"""Probe machinery: per-component tightness, reproducibility, lemma checks."""

import gc
import hashlib
import json
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from ratio_mp import sup_floats
from ratio_oracle import oracle_report, ratio_vectors

from softmatch import kernels, probes
from softmatch.bounds import (
    bound_bounded_contraction,
    bound_unbounded_gaussian,
    ratio_lemma_bound,
    ratio_lemma_sup,
    tau_pi,
)
from softmatch.errors import DegeneratePotential, DimMismatch, InvalidInput
from softmatch.kernels import (
    AttentionConfig,
    FfnConfig,
    Head,
    IdentityLookup,
    LinearLookup,
    MultiHeadConfig,
    TransformerLayerSpec,
    layer_map,
)
from softmatch.measures import DomainBox, EmpiricalMeasure, PointCloud
from softmatch.potentials import DotProduct, Gaussian
from softmatch.probes import (
    ProbeConfig,
    _ratio_ascent,
    check_local_lip_lemma,
    check_product_lemma,
    check_ratio_lemma,
    probe_component,
    probe_contraction,
    violation_threshold,
)
from softmatch.streams import stream
from softmatch.transport import w1


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
        for d in (0, -1):
            with pytest.raises(InvalidInput, match="probe dimension"):
                ProbeConfig(d=d)

    @pytest.mark.parametrize("radius", (0.0, -5.0, math.nan, math.inf, 1e308))
    def test_sampling_radius_positive_with_finite_width(self, radius):
        # numpy draws from [-r, r) through the width 2r, which overflows
        # past 2r = inf
        with pytest.raises(InvalidInput, match="sampling radius"):
            ProbeConfig(sampling_radius=radius)
        assert ProbeConfig(sampling_radius=8.9e307).sampling_radius == 8.9e307

    @pytest.mark.parametrize("sigma", (-0.1, math.nan, math.inf))
    def test_jitter_sigma_finite_and_nonnegative(self, sigma):
        with pytest.raises(InvalidInput, match="jitter sigma"):
            ProbeConfig(perturbation="jitter", jitter_sigma=sigma)
        assert ProbeConfig(perturbation="jitter", jitter_sigma=0.0).jitter_sigma == 0.0

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

    @pytest.mark.parametrize("kind", ("softmatch_in_x", "softmatch_in_measure"))
    def test_softmatch_probes_refuse_vanishing_eps(self, kind):
        # on [-20, 20], eps(G) = exp(-1600) underflows to 0
        pc = box_probe(seed=0, trials=2, d=1, radius=20.0)
        with pytest.raises(DegeneratePotential):
            probe_component(kind, pc, potential=Gaussian(1))

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


def float_bits(x) -> list:
    return np.asarray(x, dtype=np.float64).view(np.uint64).tolist()


class TestOrderStats:
    """`probes._order_stats` gives np.quantile's linear method and
    np.median bit for bit, without importing numpy.ma. The seeded corpus
    has every n from 1 to 80 in five kinds: normal draws, ties among a few
    values with both signed zeros, signed zeros with infinities,
    magnitudes from 1e-300 to 1e300, and NaNs."""

    @staticmethod
    def corpus():
        rng = np.random.default_rng(20261020)
        kinds = (
            lambda n: rng.standard_normal(n),
            lambda n: rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], size=n),
            lambda n: rng.choice([0.0, -0.0, np.inf, -np.inf, 2.5], size=n),
            lambda n: rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-300, 301, n),
            lambda n: rng.choice([0.0, -0.0, np.nan, 1.0], size=n),
        )
        for n in range(1, 81):
            for kind in kinds:
                for _ in range(5):
                    yield kind(n)

    def test_matches_numpy_bit_for_bit(self):
        lerp_differs = 0
        for a in self.corpus():
            with np.errstate(invalid="ignore"):  # numpy's lerp takes inf - inf
                quantiles, median = np.quantile(a, probes._QUANTILES), np.median(a)
            assert float_bits(probes._order_stats(a, probes._QUANTILES)) == float_bits(
                quantiles
            ), a.tolist()
            assert float_bits(probes._order_stats(a)) == float_bits(median), a.tolist()
            lerp_differs += float_bits(quantiles[2]) != float_bits(median)
        # the median is not the lerp at q = 0.5 on this corpus
        assert lerp_differs > 0

    def test_reads_its_input_only(self):
        a = np.array([3.0, -1.0, 2.0, 0.0])
        probes._order_stats(a, probes._QUANTILES)
        probes._order_stats(a)
        assert a.tolist() == [3.0, -1.0, 2.0, 0.0]


def report_digest(res) -> str:
    """sha256 of a probe report: its JSON in insertion order, as the CLI
    prints it, then the bytes of its ratios."""
    h = hashlib.sha256(json.dumps(res.to_dict()).encode())
    h.update(np.array(res.ratios, dtype=np.float64).tobytes())
    return h.hexdigest()


class TestPinnedProbeReports:
    """Whole probe reports keep their bits: ratios, argmax instance (key
    order included), histogram, bound and counts. Digests recorded with
    the two-loop probes of commit e1268e5, for d = 1, 2, 4 in turn."""

    @pytest.mark.parametrize(
        "mode, bounded, digests",
        [
            ("resample", True, (
                "c69a8ff83049eeb15e711f2686536256ac90dad3bf3939da365faf48213fd23f",
                "02acd1fb851f8313530af2434d9c136b16ec7e3a3496e1f5daaff8e710a4b2d5",
                "a7130c07a0559cc3d1b5eecd7fc2abfc8dc24020845a69893342f6839a68df42",
            )),
            ("resample", False, (
                "81f4adf6963c23313167cb4d81f1def51cfb9d160dfc11ee92a5f3b9f650f410",
                "1abdfd3cea91b45239cd6ae99ba6da0d775587ff9cc21649b4d9c7e4af169840",
                "d64d90ed72bbc42184ccb55e13fb2fc16d275d07cc9e97b8e0bbfae1df54fb3e",
            )),
            ("jitter", True, (
                "9d6a507f79af3a00313b6af5c9ee3ac4a33470af13cb995f6c1943b83e5cfe1c",
                "65ef739d726b3a1cf19f99dad3b75ec7ee7d3f9e599b478d30672b3a85190a7e",
                "48311fcb560bae653c077abd7e9028dd64ef7a1c199382237d64b4d713fe4a5d",
            )),
            ("jitter", False, (
                "9ed23b9a4d474b371197ca2386db266959233182c6df6ed44d44c56fe23f0b4e",
                "6d3bd9b5397f8ca4e6328733ce36bb485009abe6cd4753330ccb812d13838cb4",
                "791bb36ff00310e9936cec0a8cc3f4b3df5eed3a5c15bb283d9c534e19aee78f",
            )),
            ("drop_point", True, (
                "8f0e891daaac81a3b5d25ce5b84cd84dbe433db632d96873b500472a511ac4f5",
                "d54c734738ef694b389dcaa205f3cd390ee9b39b566aea40c7af14fb28fb3075",
                "57eb88d0ae3cd29c526e106dbf4741be96ac9abaeac24392915025ef058f1acb",
            )),
            ("drop_point", False, (
                "50156635dc95eddfc4664b81d544e0ba6e3c70356e76fbf4ee14920bcd48a7d5",
                "f28be34f69f2a48c67bcd63ded294d76c58ed79c1282f52f32faa4e456abd88c",
                "1ab7ce83b3bd81029b3426e3ac53d350b0541c23edaa5dd949d8a534524e5cbd",
            )),
            ("duplicate_point", True, (
                "b6998811d086a47f0d54b17675d208ad2b90abb9344812ffa078b6d39a23a477",
                "a6a813f641838182f5c4da048083a69965fc6514f73346a28653094b9e4857c2",
                "5272263e28b0aa93787d0fb42778c3257f0c42dd85e10d97e5ce00a805195934",
            )),
            ("duplicate_point", False, (
                "c96e91a3192e4c5aada162573028fb18f0cd461edd5cfbee1020911923739a1c",
                "7e86d127b28a79748d4433fcd40d7a33b380c19306d56032fe96e22068b005ee",
                "16e3e537b2734dceeec03600eff952fe4e777a2877752ebaadbf105f38fbc1df",
            )),
        ],
    )
    def test_contraction(self, mode, bounded, digests):
        for d, digest in zip((1, 2, 4), digests):
            lookup = LinearLookup(0.5 * np.eye(d))
            cfg = AttentionConfig(Gaussian(d), lookup)
            if bounded:
                box = DomainBox.cube(1.0, d)
                bound = bound_bounded_contraction(cfg, box).value
            else:
                box = DomainBox.unbounded(d)
                bound = bound_unbounded_gaussian(lookup, d, 2, 2).value
            pc = ProbeConfig(
                seed=d, trials=12, d=d, n_range=(1, 5), domain=box,
                sampling_radius=2.0, perturbation=mode, jitter_sigma=0.3,
            )
            assert report_digest(probe_contraction(cfg, pc, bound=bound)) == digest

    @pytest.mark.parametrize(
        "kind, potential, digests",
        [
            ("softmatch_in_x", 'gaussian', (
                "0ba1480b3479344bae1baa7974e7797c2f474edd4f914f70dbe3dc65d2c1353c",
                "51b6fc5ce763ad29e528864e56dec7362ec2597970553b163b0d0f69d602d67c",
                "db19bfb4dbaae23ec447dc010239d0e9dc9ae3424de1a735f94ae64bfc926fe1",
            )),
            ("softmatch_in_x", 'dot_product', (
                "61dabeed4d22c80a521baa718313f5be8937382386d44bc63d3b3939e7929edc",
                "034c30f832cbb87a1ac8b8f94a39b13fd30904cbcaac4b75caa80d74eb8055bd",
                "4a50ed4a2c6e94eb84997bef60525354200b50adf6f50d1dcc276aef568da5ba",
            )),
            ("softmatch_in_measure", 'gaussian', (
                "40c5990edd9a808aec88df2dc97e36d62d1ead8837bbc882961cc70f4d93e2a0",
                "22e0149e563d8feef3ede3d55260a290a1c5fa72aabbd139e5d3a0ab4a5105bc",
                "7e9e6f92979fb62ff92d7e03c4292d03e5be20e2af854272b493f827a13ded1d",
            )),
            ("softmatch_in_measure", 'dot_product', (
                "1750e33f51fdcb5e29bd506b855772f8b77cddabba9f9e4aeb206fa594254c91",
                "64943dc35c9924b5cb7772c9ee2686b41a766b4562aae159b02be5fd2c1cc9fe",
                "8b9acae26edd73b0cf453dca544bfe90b100d7cdbcb1aec25361d2f2badbcb8b",
            )),
            ("projection", 'gaussian', (
                "da734c475ea60133e4ae7162b8c1b4bbf2041101ab3324f0bf949f1b166c9622",
                "4ddd487b7146df3c4a0dde8e970d9d226130d1896084372e2b29749b1b7c89e1",
                "ed18652e18f4cb9488a676e6754dc8fe217f366e04a173cecedf215e04681dd0",
            )),
            ("projection", 'dot_product', (
                "da734c475ea60133e4ae7162b8c1b4bbf2041101ab3324f0bf949f1b166c9622",
                "4ddd487b7146df3c4a0dde8e970d9d226130d1896084372e2b29749b1b7c89e1",
                "ed18652e18f4cb9488a676e6754dc8fe217f366e04a173cecedf215e04681dd0",
            )),
            ("lookup", 'gaussian', (
                "e243b1ec7e7459a7522b4d7968284ef8f835a64dce81c2d7397462b0859bc029",
                "60d530b828906ed09631dc6deaf174b634d3c9455884a61c1b8a3a46e571a99b",
                "19660a958af614901c68733d44863aff0dd2d8a1b6c8c91cc219ba5b1afa3b60",
            )),
            ("lookup", 'dot_product', (
                "e243b1ec7e7459a7522b4d7968284ef8f835a64dce81c2d7397462b0859bc029",
                "60d530b828906ed09631dc6deaf174b634d3c9455884a61c1b8a3a46e571a99b",
                "19660a958af614901c68733d44863aff0dd2d8a1b6c8c91cc219ba5b1afa3b60",
            )),
        ],
    )
    def test_component(self, kind, potential, digests):
        # d = 4 draws duplicate_point pairs, of which a one-point cloud is skipped
        for d, digest in zip((1, 2, 4), digests):
            pot = Gaussian(d) if potential == "gaussian" else DotProduct(0.5, d)
            pc = ProbeConfig(
                seed=d, trials=12, d=d, n_range=(1, 5), domain=DomainBox.cube(1.0, d),
                perturbation=probes.PERTURBATIONS[d - 1],
            )
            res = probe_component(kind, pc, potential=pot, lookup=LinearLookup(2.0 * np.eye(d)))
            assert report_digest(res) == digest


def _layers(d):
    """A multi-head layer, a transformer layer over it, and a single head
    whose lookup leaves R^d, all of input dim d."""
    rng = np.random.default_rng(d)
    heads = [
        Head(AttentionConfig(Gaussian(d), IdentityLookup(d)), 0.4 * rng.normal(size=(d, d))),
        Head(
            AttentionConfig(DotProduct(0.5, d), LinearLookup(rng.normal(size=(3, d)))),
            0.3 * rng.normal(size=(3, d)),
        ),
    ]
    mh = MultiHeadConfig(heads)
    ffn = FfnConfig(
        [(rng.normal(size=(5, d)), rng.normal(size=5)), (rng.normal(size=(d, 5)), np.zeros(d))],
        "tanh",
    )
    wide = AttentionConfig(Gaussian(d), LinearLookup(rng.normal(size=(d + 1, d))))
    return {"multi-head": mh, "transformer": TransformerLayerSpec(mh, ffn), "wide-lookup": wide}


class TestBatchedTrials:
    """`probe_contraction` draws a block of trials, maps the block's clouds
    with one `layer_map` call per support size, then solves the output W1s
    in trial order; the reports keep the bits of a trial-by-trial loop."""

    def test_one_layer_map_call_per_cloud_size_in_a_block(self, monkeypatch):
        calls = []

        def counting(layer, clouds):
            calls.append(clouds.shape)
            return layer_map(layer, clouds)

        def refuse(*args, **kwargs):
            raise AssertionError("attention_pushforward called")

        monkeypatch.setattr(probes, "layer_map", counting)
        monkeypatch.setattr(kernels, "layer_map", counting)
        monkeypatch.setattr(kernels, "attention_pushforward", refuse)
        monkeypatch.setattr(probes, "_TRIAL_BLOCK", 7)
        cfg = AttentionConfig(Gaussian(2), IdentityLookup(2))
        pc = box_probe(seed=11, trials=20, d=2, n_range=(1, 6))
        res = probe_contraction(cfg, pc, bound=None)
        # per block, the kept trials' clouds grouped by size in order of appearance
        expected = []
        for start in range(0, 20, 7):
            sizes = {}
            for t in range(start, min(start + 7, 20)):
                mu, nu = probes._sample_pair(stream(11, t), pc)
                if w1(mu, nu).value >= probes.DEGENERATE_W1:
                    for m in (mu, nu):
                        sizes[m.n] = sizes.get(m.n, 0) + 1
            expected += [(count, n, 2) for n, count in sizes.items()]
        assert calls == expected
        assert sum(b for b, _, _ in calls) == 2 * len(res.ratios) > 0

    @pytest.mark.parametrize("bounded", (True, False))
    @pytest.mark.parametrize("mode", probes.PERTURBATIONS)
    def test_blocks_keep_the_report_bits(self, monkeypatch, bounded, mode):
        d = 2
        lookup = LinearLookup(0.5 * np.eye(d))
        cfg = AttentionConfig(Gaussian(d), lookup)
        box = DomainBox.cube(1.0, d) if bounded else DomainBox.unbounded(d)
        pc = ProbeConfig(
            seed=21, trials=10, d=d, n_range=(1, 5), domain=box,
            sampling_radius=2.0, perturbation=mode, jitter_sigma=0.3,
        )
        kinds = ("softmatch_in_x", "softmatch_in_measure") if bounded else ()
        runs = {}
        for block in (64, 3):
            monkeypatch.setattr(probes, "_TRIAL_BLOCK", block)
            runs[block] = [report_digest(probe_contraction(cfg, pc, bound=1.0))] + [
                report_digest(probe_component(kind, pc, potential=Gaussian(d))) for kind in kinds
            ]
        assert runs[3] == runs[64]

    @pytest.mark.parametrize("name", ("multi-head", "transformer", "wide-lookup"))
    @pytest.mark.parametrize("mode", ("resample", "duplicate_point"))
    def test_any_layer_matches_a_trial_by_trial_reference(self, name, mode):
        d = 2
        layer = _layers(d)[name]
        pc = box_probe(seed=31, trials=16, d=d, n_range=(1, 6), perturbation=mode)
        res = probe_contraction(layer, pc)

        def push(m):
            return EmpiricalMeasure(PointCloud(layer_map(layer, m.support.points[None])[0]), m.weights)

        ref = []
        for t in range(pc.trials):
            mu, nu = probes._sample_pair(stream(31, t), pc)
            d_in = w1(mu, nu).value
            if d_in >= probes.DEGENERATE_W1:
                ref.append(w1(push(mu), push(nu)).value / d_in)
        assert res.ratios == tuple(ref)
        assert (res.bound, res.violations, res.skipped) == (None, 0, 16 - len(ref))
        assert res.max_ratio == max(ref) > 0

    @pytest.mark.parametrize("fault", ("draw", "input_w1"))
    def test_a_draw_error_is_raised_after_the_earlier_trials_are_pushed(self, monkeypatch, fault):
        # trial 2's draw raises, or its input W1 does (its measures differ
        # in dim); a push that fails on trials 0 and 1 raises first, as in
        # a trial-by-trial loop, and one that succeeds does not. The
        # block's input W1s are one solve after its draws, so the draws of
        # trials 3 and 4 run first and are dropped
        real = probes._sample_pair
        drawn, mapped = [], []

        class DrawError(Exception):
            pass

        def sample_pair(rng, probe):
            if len(drawn) == 2 and fault == "draw":
                raise DrawError
            drawn.append(rng)
            mu, nu = real(rng, probe)
            if len(drawn) == 3:
                return mu, EmpiricalMeasure(PointCloud(np.zeros((2, 3))), np.full(2, 0.5))
            return mu, nu

        def failing_map(layer, clouds):
            raise InvalidInput("layer output must be finite")

        def counting_map(layer, clouds):
            mapped.append(len(clouds))
            return layer_map(layer, clouds)

        monkeypatch.setattr(probes, "_sample_pair", sample_pair)
        cfg = AttentionConfig(Gaussian(2), IdentityLookup(2))
        raised = DrawError if fault == "draw" else DimMismatch
        for mapper, error in ((failing_map, InvalidInput), (counting_map, raised)):
            drawn.clear()
            monkeypatch.setattr(probes, "layer_map", mapper)
            with pytest.raises(error):
                probe_contraction(cfg, box_probe(seed=1, trials=5, d=2))
            assert len(drawn) == (2 if fault == "draw" else 5)
        # trials 0 and 1 alone were pushed: two clouds each
        assert sum(mapped) == 4

    def test_memory_grows_with_the_ratios_only(self):
        # a block's clouds are alive at a time: holding every trial's inputs
        # took about 2 KB a trial, the ratios and their summaries take 200 B
        cfg = AttentionConfig(Gaussian(1), IdentityLookup(1))
        probe_contraction(cfg, box_probe(seed=0, trials=2, d=1))  # first-call imports
        peaks = []
        for trials in (200, 800):
            pc = box_probe(seed=1, trials=trials, d=1, n_range=(1, 3))
            res, peak = traced_peak_mib(lambda pc=pc: probe_contraction(cfg, pc))
            assert len(res.ratios) > 0.9 * trials
            peaks.append(peak * 2**20)
        assert peaks[1] - peaks[0] <= 600 * 512


class TestRefusals:
    """The probes build their measures unchecked where they made them
    finite themselves, and check the rest once per draw or block: every
    refusal keeps the exception class, message and trial of a measure
    built and checked per trial, and is raised after the earlier trials
    are pushed."""

    # one-point clouds, so that the huge finite points map and solve; the
    # jitter overflows on the unbounded domain at trial 10 of seed 0
    JITTER = dict(
        seed=0, trials=20, d=1, n_range=(1, 1), domain=DomainBox.unbounded(1),
        perturbation="jitter", jitter_sigma=1e308,
    )

    @staticmethod
    def first_overflow(pc):
        for t in range(pc.trials):
            try:
                probes._sample_pair(stream(pc.seed, t), pc)
            except InvalidInput as e:
                return t, e
        raise AssertionError("no draw overflows")

    @pytest.mark.parametrize("block", (64, 4))
    @pytest.mark.parametrize("kind", ("contraction", "lookup"))
    def test_jitter_overflow_on_the_unbounded_domain(self, monkeypatch, kind, block):
        pc = ProbeConfig(**self.JITTER)
        t0, want = self.first_overflow(pc)
        assert t0 == 10 and str(want) == "point coordinates must be finite (no NaN/Inf)"
        pushed = []
        if kind == "contraction":
            cfg = AttentionConfig(Gaussian(1), IdentityLookup(1))
            monkeypatch.setattr(probes, "layer_map", lambda layer, c: pushed.append(len(c)) or layer_map(layer, c))

            def run(trials):
                return probe_contraction(cfg, ProbeConfig(**{**self.JITTER, "trials": trials}))
        else:
            lookup, apply = IdentityLookup(1), probes.apply_lookup
            monkeypatch.setattr(probes, "apply_lookup", lambda f, mu: pushed.append(1) or apply(f, mu))

            def run(trials):
                return probe_component("lookup", ProbeConfig(**{**self.JITTER, "trials": trials}), lookup=lookup)

        monkeypatch.setattr(probes, "_TRIAL_BLOCK", block)
        assert len(run(t0).ratios) == t0
        for trials in (t0 + 1, 20):
            pushed.clear()
            with pytest.raises(InvalidInput) as raised:
                run(trials)
            assert type(raised.value) is type(want) and str(raised.value) == str(want)
            # both clouds of each earlier trial were pushed, and no later one
            assert sum(pushed) == 2 * t0

    def test_softmatch_weight_sums_are_checked(self, monkeypatch):
        # one trial a block; the first reweighted row of trial 5 is spoiled,
        # 1e-9 too heavy: that trial's push raises EmpiricalMeasure's
        # message with the row's exact sum, and no later trial is drawn
        drawn, sums = [], []
        rows, trial_stream = probes._softmatch_weights_rows, probes.stream

        def spoiled(*args):
            w = rows(*args)
            if drawn[-1] == 5 and not sums:
                w[0] *= 1.0 + 1e-9
                sums.append(math.fsum(w[0].tolist()))
            return w

        monkeypatch.setattr(probes, "stream", lambda seed, t: drawn.append(t) or trial_stream(seed, t))
        monkeypatch.setattr(probes, "_softmatch_weights_rows", spoiled)
        monkeypatch.setattr(probes, "_TRIAL_BLOCK", 1)
        pc = box_probe(seed=3, trials=12, d=2, n_range=(1, 4))
        with pytest.raises(InvalidInput) as raised:
            probe_component("softmatch_in_measure", pc, potential=Gaussian(2))
        assert abs(sums[0] - 1.0) > 1e-12
        assert str(raised.value) == f"weights sum to {sums[0]!r}, expected 1 within 1e-12"
        assert drawn == list(range(6))


class TestSampleCloud:
    """A bounded cloud is lo + (hi - lo) * u over one draw of uniforms:
    the bits of rng.uniform(lo, hi, size) with per-axis bounds, and the
    stream left at the same position."""

    BOXES = {
        "unequal": [DomainBox([-1.0, 0.0, 2.0, -3.5], [0.5, 1e-3, 7.0, 3.5])],
        "zero_width": [DomainBox([-1.0, 0.25], [1.0, 0.25]), DomainBox([0.0], [0.0])],
        "radius_0": [DomainBox.cube(0.0, d) for d in (1, 2, 4)],
    }

    @pytest.mark.parametrize("kind", BOXES)
    def test_bounded_draws_match_numpy_uniform(self, kind):
        for box in self.BOXES[kind]:
            for d in range(1, box.dim + 1):
                sub = DomainBox(box.lower[:d], box.upper[:d])
                probe = ProbeConfig(d=d, domain=sub)
                for seed in range(60):
                    n = 1 + seed % 7
                    ours, ref = stream(seed, 0), stream(seed, 0)
                    got = probes._sample_cloud(ours, n, probe)
                    want = ref.uniform(sub.lower, sub.upper, size=(n, d))
                    assert got.tobytes() == want.tobytes()
                    assert ours.random(3).tobytes() == ref.random(3).tobytes()


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
        assert np.max(np.abs(ratio_lemma_sup(ns) - reduction)) <= 1e-14
        assert np.max(np.abs(_ratio_ascent(n_max, restarts, seed, ascent_iters) - ascent)) <= 1e-14

    def test_small_tables_are_bitwise(self):
        # below 128 columns the row sums split the same way as the padded
        # ones, so the ascent repeats the oracle bit for bit
        ns, _, ascent = ratio_vectors(100, 600, 2, 3, 30)
        assert np.array_equal(_ratio_ascent(100, 2, 3, 30), ascent)


class TestRatioLemmaSupremum:
    """The ascent is an adversary of the proven supremum m_n that knows
    nothing of the proof: it may come within rounding of m_n, never above.
    Criterion 07's config and the benchmark's four ratio configs at two
    seeds each."""

    @pytest.mark.parametrize(
        "n_max, restarts, ascent_iters, seed",
        [
            (1000, 3, 250, 707),
            (1000, 1, 50, 0),
            (1000, 1, 50, 1),
            (400, 2, 100, 0),
            (400, 2, 100, 1),
            (100, 3, 250, 0),
            (100, 3, 250, 1),
            (30, 3, 250, 0),
            (30, 3, 250, 1),
        ],
    )
    def test_ascent_never_beats_m_n(self, ratio_check, n_max, restarts, ascent_iters, seed):
        # the ascent check_ratio_lemma compares: criterion 07's is run once
        _, ascent = ratio_check(n_max, restarts=restarts, ascent_iters=ascent_iters, seed=seed)
        assert np.max(ascent - sup_floats(1000)[:n_max]) <= 1e-12

    def test_report_compares_against_the_supremum(self):
        rep = check_ratio_lemma(130, restarts=2, ascent_iters=40, seed=1)
        sup = ratio_lemma_sup(np.arange(1, 131))
        cap = np.array([ratio_lemma_bound(n) for n in range(1, 131)])
        assert rep["max_violation_reduction"] == float((sup - cap).max())
        assert rep["worst_n_reduction"] == 1
        assert rep["max_ascent_excess"] <= 1e-12
        assert rep["ascent_consistent"]

    def test_grid_is_gone_and_options_are_keywords(self):
        with pytest.raises(TypeError):
            check_ratio_lemma(10, grid=600)
        with pytest.raises(TypeError):
            check_ratio_lemma(10, 3)

    def test_skip_matches_one_long_draw(self):
        # every start position and skip length across four Philox blocks
        long = stream(3, 0).random(64)
        for pos in range(12):
            for to in range(pos, 40):
                rng = stream(3, 0)
                rng.random(pos)
                probes._skip(rng, pos, to)
                assert np.array_equal(rng.random(8), long[to:to + 8]), (pos, to)

    def test_skip_past_the_crossover_matches_one_long_draw(self):
        # drawn below _ADVANCE_FROM doubles, advanced from there
        edge = probes._ADVANCE_FROM
        long = stream(3, 0).random(3 * edge)
        for pos in range(6):
            for to in range(pos + edge - 6, pos + edge + 6):
                rng = stream(3, 0)
                rng.random(pos)
                probes._skip(rng, pos, to)
                assert np.array_equal(rng.random(8), long[to:to + 8]), (pos, to)


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
    local-Lipschitz configs, at two seeds each. The two odd sizes, recorded
    with commit 7667724 (every start drawn before any ascent), put blocks
    of starts at stream offsets of every residue mod 4 and stack three
    restarts into one group."""

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
            (129, 3, 30, 0, "549cbb8febfcc7a96c64a47d8acdffc5f1566f7429a808d5f0317a0602cf4139"),
            (129, 3, 30, 1, "00989823ae57588b435b0b9c03cad7684d81c9e7dce0e2198ce637d6dfb87133"),
            (131, 2, 30, 0, "368284bc5c8697486f56831dc05335789ceab19ff4f7855745db3b8d21cdaae8"),
            (131, 2, 30, 1, "91e21e7581caa06c9035daebce8bcbb1e10d179a0b4a3c6cf5b3823d20ad6bd7"),
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
            (check_ratio_lemma, {"n_max": 10, "ascent_iters": 0}),
            (check_product_lemma, {"trials": 5, "size_range": (3, 2)}),
            (check_product_lemma, {"trials": 5, "size_range": (0, 2)}),
            (check_product_lemma, {"trials": 5, "d": 0}),
        ],
        ids=[
            "local_lip-trials0", "local_lip-trials-3", "local_lip-d0", "local_lip-samples1",
            "ratio-restarts0", "ratio-iters0",
            "product-range-reversed", "product-range-zero", "product-d0",
        ],
    )
    def test_rejected(self, check, kw):
        with pytest.raises(InvalidInput):
            check(**kw)

    @pytest.mark.parametrize(
        "check, args",
        [
            (check_ratio_lemma, {"n_max": (-2, 70), "restarts": (-2, 3), "ascent_iters": (-2, 8)}),
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
        check_ratio_lemma(130, restarts=2, ascent_iters=5)
        assert self.events(caplog) == [
            "check_ratio_lemma: n_max=130 restarts=2 ascent_iters=5 buckets=3 rows=260"
            " work_entries=16384"
        ]
        caplog.clear()
        check_product_lemma(3, size_range=(2, 3), d=2)
        assert self.events(caplog) == ["check_product_lemma: trials=3 size_range=2..3 d=2"]
        caplog.clear()
        rep = check_local_lip_lemma(trials=2, d=2, n_samples=500)
        assert self.events(caplog) == [
            "check_local_lip_lemma: trials=2 d=2 n_samples=500 work_entries=500"
        ]
        # the event carries no timing into the report, which the benchmark digests
        assert set(rep) == {"trials", "max_relative_error", "all_consistent", "cases"}


def traced_peak_mib(fn):
    """(fn(), the peak of memory traced while it ran, in MiB). A collection
    first empties the free lists, which otherwise move small peaks."""
    gc.collect()
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / 2**20


class TestLemmaMemory:
    """The lemma checks hold working memory that does not grow with the
    whole table: the ratio ascent one restart group of a bucket at a time
    (all 3 x 4000 x 4000 starts drawn first held 258 MiB), the
    local-Lipschitz sampler one block's temporaries beside its samples
    (8.8 MiB with (N, d) temporaries, 3.8 MiB with whole-sample ones)."""

    def test_ratio_ascent_peak(self):
        ascent, peak = traced_peak_mib(lambda: _ratio_ascent(4000, 3, 0, 1))
        assert peak <= 16.0
        assert hashlib.sha256(ascent.tobytes()).hexdigest() == (
            "76b6e87d4f4725653105b28d6c2d1501175f38a89d9977c17c2dd0481e8fe869"
        )

    def test_local_lip_peak(self):
        # the base points, the near (then far) points and f at the base
        # points, plus one block's numerators, distances, `_l1_norms`
        # buffer and mask, with 32 KiB for small objects: 2.87 MiB, against
        # 3.82 MiB when the ratios took whole-sample temporaries
        check_local_lip_lemma(trials=1, d=3, n_samples=1_000)  # first-call allocations
        half, d, block = 50_000, 3, probes._LIP_BLOCK
        budget = 8 * (2 * half * d + half) + 3 * 8 * block + block + 32 * 1024
        _, peak = traced_peak_mib(lambda: check_local_lip_lemma(trials=12, d=3, n_samples=100_000))
        assert peak * 2**20 <= budget
