"""Probe machinery: per-component tightness, reproducibility, lemma checks."""

import hashlib
import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from ratio_oracle import oracle_report, ratio_vectors

from softmatch import probes
from softmatch.bounds import ratio_lemma_bound, tau_pi
from softmatch.errors import InvalidInput
from softmatch.kernels import AttentionConfig, IdentityLookup, LinearLookup
from softmatch.measures import DomainBox
from softmatch.potentials import DotProduct, Gaussian
from softmatch.probes import (
    ProbeConfig,
    _l1_rows,
    _ratio_ascent,
    _ratio_reduction,
    check_local_lip_lemma,
    check_product_lemma,
    check_ratio_lemma,
    probe_component,
    probe_contraction,
    violation_threshold,
)


def box_probe(seed, trials, d, n_range=(2, 6), radius=1.0, **kw):
    return ProbeConfig(
        seed=seed, trials=trials, d=d, n_range=n_range,
        domain=DomainBox.cube(radius, d), **kw,
    )


class TestProbeConfig:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            ProbeConfig(trials=0)
        with pytest.raises(InvalidInput):
            ProbeConfig(n_range=(3, 2))
        with pytest.raises(InvalidInput):
            ProbeConfig(perturbation="negate")
        with pytest.raises(InvalidInput):
            ProbeConfig(d=3, domain=DomainBox.cube(1.0, 2))

    def test_drop_point_needs_two_points(self):
        cfg = AttentionConfig(Gaussian(1), IdentityLookup(1))
        pc = box_probe(seed=0, trials=2, d=1, n_range=(1, 1),
                       perturbation="drop_point")
        with pytest.raises(InvalidInput):
            probe_contraction(cfg, pc, bound=None)


class TestComponentProbes:
    def test_projection_d1_bounded_by_one(self):
        pc = box_probe(seed=0, trials=150, d=1, n_range=(1, 5), radius=2.0)
        res = probe_component("projection", pc)
        assert res.bound == tau_pi(1) == 1.0
        assert res.violations == 0
        assert res.max_ratio <= violation_threshold(1.0)
        # Dirac pairs make the ratio hit the bound
        assert res.max_ratio >= 1.0 - 1e-9

    def test_lookup_scaled_identity_tight(self):
        pc = box_probe(seed=1, trials=150, d=2, n_range=(1, 4), radius=2.0)
        res = probe_component("lookup", pc, lookup=LinearLookup(2.0 * np.eye(2)))
        assert res.bound == 2.0
        assert res.violations == 0
        assert res.max_ratio >= 2.0 - 1e-9  # attained on Dirac pairs

    def test_softmatch_in_x_constant_potential_all_zero(self):
        pc = box_probe(seed=2, trials=60, d=2)
        res = probe_component("softmatch_in_x", pc, potential=DotProduct(0.0, 2))
        assert res.max_ratio == 0.0
        assert res.violations == 0

    def test_softmatch_probes_respect_gaussian_bounds(self):
        for kind in ("softmatch_in_x", "softmatch_in_measure"):
            pc = box_probe(seed=3, trials=120, d=2)
            res = probe_component(kind, pc, potential=Gaussian(2))
            assert res.violations == 0
            assert res.max_ratio <= violation_threshold(res.bound)

    def test_unknown_kind(self):
        with pytest.raises(InvalidInput):
            probe_component("barycenter", box_probe(seed=0, trials=1, d=1))

    def test_needs_inputs(self):
        pc = box_probe(seed=0, trials=1, d=2)
        with pytest.raises(InvalidInput):
            probe_component("lookup", pc)
        with pytest.raises(InvalidInput):
            probe_component("softmatch_in_x", pc)


class TestContractionProbe:
    def test_constant_potential_controlled_by_projection(self):
        # uniform softmatch: the output measure is the Dirac at the
        # barycenter, so ratios obey the projection coefficient d
        for d in (1, 2):
            cfg = AttentionConfig(DotProduct(0.0, d), IdentityLookup(d))
            pc = box_probe(seed=4, trials=80, d=d, n_range=(2, 6))
            res = probe_contraction(cfg, pc, bound=tau_pi(d))
            assert res.violations == 0

    def test_identical_pair_skipped(self):
        cfg = AttentionConfig(Gaussian(1), IdentityLookup(1))
        pc = box_probe(seed=5, trials=10, d=1, n_range=(3, 3),
                       perturbation="jitter", jitter_sigma=0.0)
        res = probe_contraction(cfg, pc, bound=1.0)
        assert res.skipped == pc.trials
        assert res.max_ratio == 0.0
        assert res.argmax_instance is None

    def test_bit_reproducible(self):
        cfg = AttentionConfig(Gaussian(2), IdentityLookup(2))
        pc = box_probe(seed=6, trials=40, d=2)
        a = probe_contraction(cfg, pc, bound=5.0)
        b = probe_contraction(cfg, pc, bound=5.0)
        assert a.to_dict() == b.to_dict()
        assert a.ratios == b.ratios

    def test_max_ratio_monotone_in_trials(self):
        cfg = AttentionConfig(Gaussian(2), IdentityLookup(2))
        short = probe_contraction(cfg, box_probe(seed=7, trials=30, d=2), bound=None)
        long = probe_contraction(cfg, box_probe(seed=7, trials=60, d=2), bound=None)
        assert long.max_ratio >= short.max_ratio
        # the first 30 trials are literally the same stream prefix
        assert long.ratios[: len(short.ratios)] == short.ratios

    def test_histogram_quantiles(self):
        cfg = AttentionConfig(Gaussian(2), IdentityLookup(2))
        res = probe_contraction(cfg, box_probe(seed=8, trials=50, d=2), bound=None)
        assert set(res.histogram) == {"q0", "q0.25", "q0.5", "q0.75", "q0.9", "q0.99", "q1"}
        assert res.histogram["q0"] <= res.histogram["q1"] == pytest.approx(res.max_ratio)

    def test_perturbation_modes_produce_expected_sizes(self):
        cfg = AttentionConfig(Gaussian(2), IdentityLookup(2))
        for mode, delta in (("drop_point", -1), ("duplicate_point", +1)):
            pc = box_probe(seed=9, trials=10, d=2, n_range=(4, 4), perturbation=mode)
            res = probe_contraction(cfg, pc, bound=None)
            inst = res.argmax_instance
            assert len(inst["nu"]["points"]) == len(inst["mu"]["points"]) + delta


class TestRatioLemma:
    def test_small_n(self):
        rep = check_ratio_lemma(40, seed=0)
        assert rep["all_within_bound"]
        assert rep["ascent_consistent"]
        assert rep["max_violation_reduction"] <= 1e-9

    def test_n1_value_below_bound(self):
        rep = check_ratio_lemma(1, seed=0)
        assert rep["max_violation_reduction"] <= 1e-9
        assert ratio_lemma_bound(1) == pytest.approx(0.42888, abs=1e-5)

    def test_reduction_nearly_tight_for_large_n(self):
        # the 1-d reduction approaches the bound as n grows
        rep = check_ratio_lemma(200, seed=0)
        assert rep["max_violation_reduction"] > -0.25


class TestRatioLemmaParity:
    """The bucketed ascent and the vectorised reduction against the padded
    per-n computation they replace (tests/ratio_oracle.py). Sizes straddle
    the 64-row buckets and numpy's 128-element pairwise-summation blocks."""

    @pytest.mark.parametrize("n_max", [1, 2, 30, 63, 64, 65, 129, 300])
    @pytest.mark.parametrize("seed", [0, 707])
    @pytest.mark.parametrize("restarts,ascent_iters", [(1, 20), (2, 40)])
    def test_matches_oracle(self, n_max, seed, restarts, ascent_iters):
        ns, reduction, ascent = ratio_vectors(n_max, 600, restarts, seed, ascent_iters)
        ref = oracle_report(ns, reduction, ascent)
        rep = check_ratio_lemma(n_max, restarts=restarts, seed=seed, ascent_iters=ascent_iters)
        assert rep.keys() == ref.keys()
        for key in ("n_max", "all_within_bound", "ascent_consistent", "worst_n_reduction"):
            assert rep[key] == ref[key], key
        for key in ("max_violation_reduction", "max_violation_ascent", "max_ascent_excess"):
            assert abs(rep[key] - ref[key]) <= 1e-12, key
        assert np.max(np.abs(_ratio_reduction(ns, 600) - reduction)) <= 1e-14
        assert np.max(np.abs(_ratio_ascent(n_max, restarts, seed, ascent_iters) - ascent)) <= 1e-14

    def test_small_tables_are_bitwise(self):
        # below 128 columns the row sums split the same way as the padded
        # ones, so the ascent repeats the oracle bit for bit
        ns, _, ascent = ratio_vectors(100, 600, 2, 3, 30)
        assert np.array_equal(_ratio_ascent(100, 2, 3, 30), ascent)


class TestProductLemma:
    def test_subadditivity(self):
        rep = check_product_lemma(60, seed=1)
        assert rep["subadditive"]
        assert rep["max_violation"] <= 1e-9

    def test_tightness_reported(self):
        rep = check_product_lemma(30, seed=2)
        assert rep["tightness_min"] <= rep["tightness_median"] <= rep["tightness_max"]


class TestLocalLipLemma:
    def test_estimators_agree_with_known_seminorms(self):
        rep = check_local_lip_lemma(trials=9, n_samples=30_000, seed=3)
        assert rep["all_consistent"]
        assert rep["max_relative_error"] <= 1e-2
        families = {c["family"] for c in rep["cases"]}
        assert families == {"cone", "affine", "constant"}

    def test_constant_function_zero(self):
        rep = check_local_lip_lemma(trials=3, n_samples=5_000, seed=4)
        const = [c for c in rep["cases"] if c["family"] == "constant"]
        assert all(c["restricted"] == 0.0 and c["unrestricted"] == 0.0 for c in const)


class TestPinnedLemmaBits:
    """The lemma checks give the values of commit a06dc80 bit for bit: its
    one-restart-at-a-time ascent, 17-pass ascent step and numpy row sums
    in the local-Lipschitz estimator. sha256 digests recorded with that
    code, for the benchmark's four ratio configs and its two
    local-Lipschitz configs, at two seeds each."""

    @pytest.mark.parametrize(
        "n_max, restarts, ascent_iters, seed, digest",
        [
            (1000, 1, 50, 0, "92b2986ad24acabfef1a4eb3ce06dbc60b7a8b4210ab9966d73f912044dafa13"),
            (1000, 1, 50, 1, "da30c78da2784abe44ef0363e053a9af928188e2e694bab5339c3d6c9bffeb71"),
            (400, 2, 100, 0, "27e49a5dcba9f094d8293494bb1b9662292be5d9ccbd1d08d2f07a507f82c5c1"),
            (400, 2, 100, 1, "cef1248966a55e4a3253099aab2ef4372150cfcfe668061b1c76f152dd313561"),
            (100, 3, 250, 0, "cb824b67e9ab61e66eaf8196d4ddaee79d49158574d4d81f11e80df17b248039"),
            (100, 3, 250, 1, "ee520069d109397476d5c795c52eb20fc8d5df50e3aad747bddeff77245fba5e"),
            (30, 3, 250, 0, "dada900ffab9385b7f2bfddfe4474bdb883f4b43ed9231994358af5010f1f95e"),
            (30, 3, 250, 1, "0707c5bc5a762467dcdff461b4dd5d879061df98dcbdfeb20195f5b1c37d55f1"),
        ],
    )
    def test_ratio_ascent(self, n_max, restarts, ascent_iters, seed, digest):
        ascent = _ratio_ascent(n_max, restarts, seed, ascent_iters)
        assert hashlib.sha256(ascent.tobytes()).hexdigest() == digest

    def test_restart_groups_do_not_change_bits(self, monkeypatch):
        # 3 x 64 x 130 entries: one group per restart, or all three stacked
        monkeypatch.setattr(probes, "_RATIO_STACK", 1)
        one_by_one = _ratio_ascent(130, 3, 5, 20)
        monkeypatch.setattr(probes, "_RATIO_STACK", 10**9)
        assert np.array_equal(_ratio_ascent(130, 3, 5, 20), one_by_one)

    @pytest.mark.parametrize(
        "trials, d, n_samples, seed, digest",
        [
            (12, 3, 100_000, 0, "0b9d95291d3f46d5576118fc40447972ac1633c8615ab5c5426d1cf38e9c22f6"),
            (12, 3, 100_000, 1, "93eca402da10ae467ba63f4a78b746ad50fbda0d506a9bdd9dc7350ff091264b"),
            (6, 2, 50_000, 0, "007f12c710fffd7d9658da8a2cb662f2814064f7be39f3e4ba7bf5e464b1b161"),
            (6, 2, 50_000, 1, "0f5bff88d0ccfc174bc532ddd12e18d38c2106a51c18164087d50612d5633236"),
        ],
    )
    def test_local_lip_report(self, trials, d, n_samples, seed, digest):
        rep = check_local_lip_lemma(trials=trials, d=d, n_samples=n_samples, seed=seed)
        blob = json.dumps(rep, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == digest

    @pytest.mark.parametrize("d", range(1, 10))
    def test_l1_rows_is_numpy_row_sum(self, d):
        rng = np.random.default_rng(d)
        a = rng.standard_normal((257, d)) * 10.0 ** rng.integers(-8, 9, size=(257, d))
        assert np.array_equal(_l1_rows(a), np.abs(a).sum(axis=1))

    def test_checks_raise_no_float_error(self):
        with np.errstate(all="raise"):
            assert check_ratio_lemma(130, restarts=2, ascent_iters=40, seed=1)["ascent_consistent"]
            assert check_product_lemma(20, size_range=(1, 4), d=2, seed=1)["subadditive"]
            assert check_local_lip_lemma(trials=6, d=3, n_samples=4_000, seed=1)["all_consistent"]


class TestLemmaArguments:
    """A lemma check that would gather no evidence, or is asked something
    malformed, raises InvalidInput, which the CLI turns into exit 2."""

    @pytest.mark.parametrize(
        "check, kw",
        [
            (check_local_lip_lemma, {"trials": 0}),
            (check_local_lip_lemma, {"trials": -3}),
            (check_local_lip_lemma, {"d": 0}),
            (check_local_lip_lemma, {"n_samples": 1}),
            (check_ratio_lemma, {"n_max": 10, "restarts": 0}),
            (check_ratio_lemma, {"n_max": 10, "grid": 0}),
            (check_ratio_lemma, {"n_max": 10, "grid": 1}),
            (check_ratio_lemma, {"n_max": 10, "ascent_iters": 0}),
            (check_product_lemma, {"trials": 5, "size_range": (3, 2)}),
            (check_product_lemma, {"trials": 5, "size_range": (0, 2)}),
            (check_product_lemma, {"trials": 5, "d": 0}),
        ],
        ids=[
            "local_lip-trials0", "local_lip-trials-3", "local_lip-d0", "local_lip-samples1",
            "ratio-restarts0", "ratio-grid0", "ratio-grid1", "ratio-iters0",
            "product-range-reversed", "product-range-zero", "product-d0",
        ],
    )
    def test_rejected(self, check, kw):
        with pytest.raises(InvalidInput):
            check(**kw)

    @pytest.mark.parametrize(
        "check, args",
        [
            (check_ratio_lemma, {"n_max": (-2, 70), "grid": (-2, 12), "restarts": (-2, 3),
                                 "ascent_iters": (-2, 8)}),
            (check_product_lemma, {"trials": (-2, 4), "lo": (-1, 8), "hi": (-1, 8), "d": (-2, 4)}),
            (check_local_lip_lemma, {"trials": (-2, 4), "d": (-2, 4), "n_samples": (-3, 300)}),
        ],
        ids=["ratio", "product", "local_lip"],
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_finite_report_or_invalid_input(self, check, args, data):
        kw = {name: data.draw(st.integers(*span), label=name) for name, span in args.items()}
        if "lo" in kw:
            kw["size_range"] = (kw.pop("lo"), kw.pop("hi"))
        seed = data.draw(st.integers(-2, 2**32), label="seed")
        try:
            rep = check(**kw, seed=seed)
        except InvalidInput:
            return
        json.dumps(rep, allow_nan=False)  # raises on a non-finite float


class TestLemmaEvents:
    def events(self, caplog):
        messages = [r.getMessage() for r in caplog.records if r.name == "softmatch"]
        return [m for m in messages if m.startswith("check_")]

    def test_one_debug_event_per_check(self, caplog):
        caplog.set_level(logging.DEBUG, logger="softmatch")
        check_ratio_lemma(130, grid=50, restarts=2, ascent_iters=5)
        assert self.events(caplog) == [
            "check_ratio_lemma: n_max=130 grid=50 restarts=2 ascent_iters=5 buckets=3 rows=260"
        ]
        caplog.clear()
        check_product_lemma(3, size_range=(2, 3), d=2)
        assert self.events(caplog) == ["check_product_lemma: trials=3 size_range=2..3 d=2"]
        caplog.clear()
        rep = check_local_lip_lemma(trials=2, d=2, n_samples=500)
        assert self.events(caplog) == ["check_local_lip_lemma: trials=2 d=2 n_samples=500"]
        # the event carries no timing into the report, which the benchmark digests
        assert set(rep) == {"trials", "max_relative_error", "all_consistent", "cases"}
