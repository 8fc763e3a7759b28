"""Probe machinery: per-component tightness, reproducibility, lemma checks."""

import numpy as np
import pytest
from ratio_oracle import oracle_report, ratio_vectors

from softmatch.bounds import ratio_lemma_bound, tau_pi
from softmatch.errors import InvalidInput
from softmatch.kernels import AttentionConfig, IdentityLookup, LinearLookup
from softmatch.measures import DomainBox
from softmatch.potentials import DotProduct, Gaussian
from softmatch.probes import (
    ProbeConfig,
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
