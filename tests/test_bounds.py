"""Closed-form constants: values, scaling laws, self-consistency."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from gradient_mp import mp_gradient_constant
from ratio_mp import PREC, mp_sup
from ratio_oracle import ratio_vectors

from softmatch import bounds
from softmatch.bounds import (
    BoundReport,
    Ingredient,
    bound_bounded_contraction,
    bound_component_taus,
    bound_cross_attention,
    bound_pointwise_query,
    bound_unbounded_equal_n,
    bound_unbounded_gaussian,
    loose_gradient_constant,
    ratio_lemma_bound,
    ratio_lemma_sup,
    reevaluate,
    tau_lookup,
    tau_pi,
    tau_softmatch_bounded,
    tight_gradient_constant,
)
from softmatch.errors import (
    DegeneratePotential,
    InvalidInput,
    RequiresCompactDomain,
)
from softmatch.kernels import (
    AttentionConfig,
    IdentityLookup,
    LinearLookup,
    apply_lookup,
)
from softmatch.measures import DomainBox, empirical
from softmatch.potentials import (
    GAUSSIAN_LIP,
    CustomPotential,
    DotProduct,
    Gaussian,
    Provenance,
    RegularityStats,
    ScaledDotProduct,
    regularity_stats,
    regularity_stats_on_data,
)
from softmatch.transport import w1


def stats_with(lip_left, lip_right, eps, sup=None):
    prov = {
        k: Provenance("analytic")
        for k in ("eps_g", "sup_g", "lip_left", "lip_right", "lip_joint")
    }
    return RegularityStats(
        eps_g=eps,
        sup_g=max(lip_left, lip_right, eps, 1.0) if sup is None else sup,
        lip_left=lip_left,
        lip_right=lip_right,
        lip_joint=max(lip_left, lip_right),
        provenance=prov,
    )


class TestTauPi:
    @pytest.mark.parametrize("d,want", [(1, 1.0), (3, 3.0), (64, 64.0)])
    def test_equals_dimension(self, d, want):
        assert tau_pi(d) == want

    def test_invalid(self):
        with pytest.raises(InvalidInput):
            tau_pi(0)


class TestTauLookup:
    def test_identity(self):
        assert tau_lookup(IdentityLookup(4)) == 1.0

    def test_scaled_identity(self):
        assert tau_lookup(LinearLookup(2.0 * np.eye(3))) == 2.0

    def test_random_matrix_column_norm_and_sampled_ratios(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(3, 3))
        lk = LinearLookup(w)
        want = float(np.abs(w).sum(axis=0).max())
        assert tau_lookup(lk) == want
        # sampled W1 ratios on Dirac pairs never exceed the analytic value
        for _ in range(100):
            a, b = rng.normal(size=(2, 3))
            num = w1(
                apply_lookup(lk, empirical([a])), apply_lookup(lk, empirical([b]))
            ).value
            den = float(np.abs(a - b).sum())
            assert num <= want * den + 1e-9


class TestTauSoftmatch:
    def test_constant_potential_is_zero(self):
        box = DomainBox.cube(1.0, 2)
        stats = regularity_stats(DotProduct(0.0, 2), box)
        assert tau_softmatch_bounded(stats, box) == 0.0

    def test_formula_arithmetic(self):
        box = DomainBox([0.0], [1.0])
        s = 0.7
        stats = stats_with(s, s, 0.25)
        # 2 (s + s) diam / eps with diam = 1
        assert tau_softmatch_bounded(stats, box) == 2.0 * (2 * s) * 1.0 / 0.25

    def test_linear_in_diameter(self):
        stats = stats_with(0.3, 0.4, 0.5)
        small = tau_softmatch_bounded(stats, DomainBox.cube(1.0, 2))
        big = tau_softmatch_bounded(stats, DomainBox.cube(2.0, 2))
        assert big == 2.0 * small

    def test_guards(self):
        stats = stats_with(1.0, 1.0, 0.5)
        with pytest.raises(RequiresCompactDomain):
            tau_softmatch_bounded(stats, DomainBox.unbounded(2))
        degenerate = stats_with(1.0, 1.0, 0.0)
        with pytest.raises(DegeneratePotential):
            tau_softmatch_bounded(degenerate, DomainBox.cube(1.0, 2))


class TestBoundedContraction:
    def test_product_of_components(self):
        box = DomainBox.cube(1.0, 2)
        stats = stats_with(0.5, 0.75, 1.0)  # tau_psi = 2 * 1.25 * 4 / 1 = 10
        cfg = AttentionConfig(DotProduct(1.0, 2), IdentityLookup(2))
        rep = bound_bounded_contraction(cfg, box, stats=stats)
        t_psi = tau_softmatch_bounded(stats, box)
        assert rep.value == 2.0 * t_psi * 1.0
        assert rep.status == "ok"
        assert rep.value == rep.ingredients["tau_pi"].value * \
            rep.ingredients["tau_softmatch"].value * rep.ingredients["tau_lookup"].value

    def test_identity_d2_tau_psi_5_gives_10(self):
        box = DomainBox([0.0, 0.0], [1.0, 1.0])  # l1 diameter 2
        stats = stats_with(0.5, 0.75, 1.0)       # 2 * 1.25 * 2 / 1 = 5
        assert tau_softmatch_bounded(stats, box) == 5.0
        cfg = AttentionConfig(DotProduct(1.0, 2), IdentityLookup(2))
        rep = bound_bounded_contraction(cfg, box, stats=stats)
        assert rep.value == 10.0

    def test_constant_potential_collapses_to_zero(self):
        box = DomainBox.cube(1.0, 2)
        cfg = AttentionConfig(DotProduct(0.0, 2), IdentityLookup(2))
        assert bound_bounded_contraction(cfg, box).value == 0.0

    def test_linear_in_lookup_constant(self):
        box = DomainBox.cube(1.0, 2)
        base = AttentionConfig(DotProduct(1.0, 2), LinearLookup(np.eye(2)))
        double = AttentionConfig(DotProduct(1.0, 2), LinearLookup(2.0 * np.eye(2)))
        assert bound_bounded_contraction(double, box).value == \
            2.0 * bound_bounded_contraction(base, box).value

    def test_reevaluate_bitwise(self):
        box = DomainBox.cube(1.5, 3)
        cfg = AttentionConfig(Gaussian(3), LinearLookup(0.5 * np.eye(3)))
        rep = bound_bounded_contraction(cfg, box)
        assert reevaluate(rep) == rep.value

    def test_inapplicable_on_infinite_seminorm(self):
        box = DomainBox.cube(1.0, 2)
        stats = stats_with(math.inf, 1.0, 0.5, sup=math.inf)
        cfg = AttentionConfig(DotProduct(1.0, 2), IdentityLookup(2))
        rep = bound_bounded_contraction(cfg, box, stats=stats)
        assert rep.status == "inapplicable"

    def test_component_taus_report(self):
        box = DomainBox.cube(1.0, 2)
        cfg = AttentionConfig(Gaussian(2), IdentityLookup(2))
        rep = bound_component_taus(cfg, box)
        assert rep.theorem == "ComponentTaus"
        assert rep.value == bound_bounded_contraction(cfg, box).value


class TestPointwiseCorollary:
    def test_d1_collapses_dimension_factor(self):
        box = DomainBox([0.0], [1.0])
        stats = stats_with(0.5, 0.5, 1.0)
        cfg = AttentionConfig(DotProduct(1.0, 1), IdentityLookup(1))
        rep = bound_pointwise_query(cfg, box, stats=stats)
        assert rep.theorem == "BoundedPointwiseCorollary"
        assert rep.status == "ok"
        assert rep.value == 1.0 * 1.0 * 2.0 * 0.5 * 1.0 / 1.0
        assert reevaluate(rep) == rep.value

    def test_d4_dimension_factor_is_8(self):
        box = DomainBox.cube(1.0, 4)
        stats = stats_with(0.5, 0.5, 1.0)
        cfg = AttentionConfig(DotProduct(1.0, 4), IdentityLookup(4))
        got = bound_pointwise_query(cfg, box, stats=stats).value
        # 4^{3/2} = 8 times 2 lip_left diam / eps
        assert got == 8.0 * (2.0 * 0.5 * box.diameter_l1() / 1.0)

    def test_constant_potential_is_zero(self):
        box = DomainBox.cube(1.0, 2)
        cfg = AttentionConfig(DotProduct(0.0, 2), IdentityLookup(2))
        assert bound_pointwise_query(cfg, box).value == 0.0


class TestUnboundedGaussian:
    def test_min_one_support_term(self):
        rep = bound_unbounded_gaussian(IdentityLookup(2), 2, 1, 5)
        assert rep.ingredients["support_term"].value == pytest.approx(
            math.sqrt(1.0 / (2.0 * math.e)), abs=1e-12
        )
        assert rep.ingredients["support_term"].value == pytest.approx(0.4289, abs=1e-4)

    def test_formula_value(self):
        d, t_l, n = 2, 1.0, 8
        rep = bound_unbounded_gaussian(IdentityLookup(d), d, n, n)
        bracket = 1.0 + (math.sqrt(d) + 2.0) + math.sqrt(d) * math.sqrt(
            math.log(n) + 1.0 / (2.0 * math.e)
        ) * GAUSSIAN_LIP
        assert rep.value == pytest.approx(2.0 * d * t_l * bracket, rel=1e-15)

    def test_corollary_identity_at_equal_sizes(self):
        for d in (1, 2, 4):
            for n in (1, 2, 7, 16):
                thm = bound_unbounded_gaussian(IdentityLookup(d), d, n, n)
                cor = bound_unbounded_equal_n(IdentityLookup(d), d, n)
                assert cor.value == thm.value

    def test_monotone_in_min_size(self):
        b4 = bound_unbounded_gaussian(IdentityLookup(2), 2, 4, 100).value
        b16 = bound_unbounded_gaussian(IdentityLookup(2), 2, 16, 100).value
        assert b4 <= b16

    def test_reevaluate_bitwise(self):
        rep = bound_unbounded_gaussian(LinearLookup(1.3 * np.eye(3)), 3, 5, 9)
        assert reevaluate(rep) == rep.value

    def test_tight_constant_below_loose(self):
        for d in (1, 2, 4):
            tight = tight_gradient_constant(d)
            assert 0.0 < tight <= loose_gradient_constant(d)


def _gradient_h(a, b, d):
    """h(a, b) = 2 (2 + a + (d - 1) b) a exp(-a^2 - (d - 1) b^2)."""
    k = d - 1
    return 2.0 * (2.0 + a + k * b) * a * np.exp(-a * a - k * b * b)


class TestTightGradientConstant:
    # the 12-start Nelder-Mead maximum over R^d that the one-variable
    # maximum replaced, at its default seed 0
    NELDER_MEAD = {
        1: 2.362286402118957, 2: 2.4343787465785987, 3: 2.5011627234431955,
        4: 2.5637041067487587, 5: 2.622747344656177, 6: 2.6788381531818697,
        7: 2.7323914242626834, 8: 2.7837317359448353,
        16: 3.0738695235731557, 64: 2.7210480298887947,
    }

    @pytest.mark.parametrize("d", (1, 2, 3, 4, 8, 16, 64, 1024))
    def test_matches_the_200_bit_maximum(self, d):
        want = mp_gradient_constant(d)
        assert abs(tight_gradient_constant(d) - want) <= 1e-12 * want

    def test_keeps_nelder_mead_values_and_beats_its_misses(self):
        for d, old in self.NELDER_MEAD.items():
            if d <= 8:
                assert tight_gradient_constant(d) == pytest.approx(old, rel=1e-12, abs=0)
            else:
                assert tight_gradient_constant(d) > old

    @pytest.mark.parametrize("d", range(1, 9))
    def test_at_least_the_two_variable_grid(self, d):
        # h over a 2001 x 2001 grid of 0 <= b <= a <= 3, a row block at a
        # time; no grid point may beat the one-variable maximum
        axis = np.linspace(0.0, 3.0, 2001)
        best = 0.0
        for a in np.array_split(axis, 20):
            h = _gradient_h(a[:, None], axis[None, :], d)
            best = max(best, float(np.where(axis[None, :] <= a[:, None], h, 0.0).max()))
        assert tight_gradient_constant(d) >= best * (1.0 - 1e-12)

    def test_deterministic(self):
        for d in (1, 7, 64):
            assert tight_gradient_constant(d).hex() == tight_gradient_constant(d).hex()

    def test_dimension_must_be_positive(self):
        with pytest.raises(InvalidInput):
            tight_gradient_constant(0)


class TestCrossAttention:
    def test_constant_potential_is_zero(self):
        box = DomainBox.cube(1.0, 2)
        cfg = AttentionConfig(DotProduct(0.0, 2), IdentityLookup(2))
        assert bound_cross_attention(cfg, box, np.zeros(2)).value == 0.0

    def test_identity_lookup_d1_plugin(self):
        box = DomainBox([-1.0], [1.0])
        cfg = AttentionConfig(Gaussian(1), IdentityLookup(1))
        stats = regularity_stats(cfg.potential, box)
        rep = bound_cross_attention(cfg, box, np.array([0.3]))
        assert rep.theorem == "CrossAttention"
        assert rep.status == "ok"
        assert rep.value == 1.0 * 1.0 * 2.0 * GAUSSIAN_LIP * 2.0 / stats.eps_g
        assert rep.ingredients["lip_q"].value == GAUSSIAN_LIP
        assert reevaluate(rep) == rep.value

    def test_monotone_in_diameter(self):
        cfg = AttentionConfig(Gaussian(2), IdentityLookup(2))
        q = np.zeros(2)
        small = bound_cross_attention(cfg, DomainBox.cube(0.5, 2), q).value
        big = bound_cross_attention(cfg, DomainBox.cube(1.0, 2), q).value
        assert small <= big

    def test_degenerates_for_zero_query_dot_product(self):
        # sharp edge of the formula: at q = 0 a dot-product potential is
        # constant in its second argument, the per-query seminorm vanishes,
        # and the cap is 0 even though the two attention outputs (plain
        # means of X and Y) differ; the constant does not cover this regime
        box = DomainBox.cube(1.0, 1)
        cfg = AttentionConfig(DotProduct(1.0, 1), IdentityLookup(1))
        q = np.zeros(1)
        assert bound_cross_attention(cfg, box, q).value == 0.0
        x, y = empirical([[0.5]]), empirical([[-0.5]])
        from softmatch.kernels import attention_kernel

        dev = abs(
            float(attention_kernel(cfg, q, x)[0] - attention_kernel(cfg, q, y)[0])
        )
        assert dev == 1.0  # the outputs really do differ


class TestRatioLemmaBound:
    def test_n1(self):
        assert ratio_lemma_bound(1) == math.sqrt(1.0 / (2.0 * math.e))
        assert ratio_lemma_bound(1) == pytest.approx(0.42888, abs=1e-5)

    def test_formula(self):
        for n in (2, 7, 100, 1000):
            assert ratio_lemma_bound(n) == math.sqrt(
                math.log(n) + 1.0 / (2.0 * math.e)
            )

    def test_monotone(self):
        vals = [ratio_lemma_bound(n) for n in range(1, 50)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestRatioLemmaSup:
    """m_n = x - 1/(2x), x^2 = W(n / (2 sqrt e)) + 1/2, rounded upward: at
    least the 200-bit value, within 1e-12 of it relative, below the cap."""

    NS = np.unique(
        np.concatenate([np.arange(1, 2001), np.round(np.logspace(0, 6, 61)).astype(np.int64)])
    )

    def test_brackets_the_mpmath_value_below_the_cap(self):
        mpmath = pytest.importorskip("mpmath")
        sup = ratio_lemma_sup(self.NS)
        assert sup.shape == self.NS.shape
        with mpmath.workprec(PREC):
            for n, s in zip(self.NS.tolist(), sup.tolist()):
                m = mp_sup(n)
                cap = mpmath.sqrt(mpmath.log(n) + 1 / (2 * mpmath.e))
                assert m <= s <= m * (1 + mpmath.mpf(1e-12)), n
                assert s <= cap, n

    def test_rounding_constant_is_above_its_value(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workprec(PREC):
            assert bounds._HALF_RSQRT_E_UP >= 1 / (2 * mpmath.sqrt(mpmath.e))

    def test_golden_section_never_exceeds_it(self):
        # the per-n golden-section maxima of the old reduction
        ns, reduction, _ = ratio_vectors(1000, 600, 1, 0, 1)
        assert np.all(reduction <= ratio_lemma_sup(ns))

    def test_ratio_to_the_cap(self):
        # the cap is loose by 16-55% on these sizes
        table = {1: 0.65, 2: 0.45, 16: 0.57, 256: 0.69, 1024: 0.73, 10**6: 0.84}
        for n, ratio in table.items():
            assert round(ratio_lemma_sup(n) / ratio_lemma_bound(n), 2) == ratio, n

    def test_scalar_and_array(self):
        assert isinstance(ratio_lemma_sup(5), float)
        assert ratio_lemma_sup(5) == ratio_lemma_sup([5])[0]
        grid = ratio_lemma_sup([[1, 2], [3, 4]])
        assert grid.shape == (2, 2)
        assert np.array_equal(grid.ravel(), ratio_lemma_sup(np.arange(1, 5)))
        assert np.all(np.diff(ratio_lemma_sup(np.arange(1, 300))) > 0)

    @pytest.mark.parametrize("n", [0, -3, 2**53 + 1, 2**70, [1, 0]])
    def test_rejects_n_outside_1_to_2_53(self, n):
        with pytest.raises(InvalidInput):
            ratio_lemma_sup(n)

    def test_largest_n(self):
        mpmath = pytest.importorskip("mpmath")
        s = ratio_lemma_sup(2**53)
        with mpmath.workprec(PREC):
            m = mp_sup(2**53)
            assert m <= s <= m * (1 + mpmath.mpf(1e-12))


class TestReportStructure:
    def test_every_formula_ingredient_present(self):
        rep = bound_unbounded_gaussian(IdentityLookup(2), 2, 3, 4)
        for key in ("tau_pi", "tau_lookup", "sup_g", "lip_g", "support_term",
                    "gradient_constant_loose"):
            assert key in rep.ingredients

    def test_failed_assumption_requires_inapplicable(self):
        # the status is derived, so no report can claim "ok" over a failed
        # assumption, not even with sampled ingredients too
        for prov in (Provenance("analytic"), Provenance("sampled", 10, 0)):
            rep = BoundReport(
                "BoundedContraction",
                1.0,
                {"eps_g": Ingredient(0.5, prov)},
                (("E compact", True), ("E convex", False)),
            )
            assert rep.status == "inapplicable"
            assert rep.to_dict()["status"] == "inapplicable"
        with pytest.raises(TypeError):
            BoundReport("BoundedContraction", 1.0, {}, (("E compact", False),), status="ok")

    def test_sampled_ingredient_refuses_ok(self):
        ingredients = {
            "tau_pi": Ingredient(1.0, Provenance("analytic")),
            "eps_g": Ingredient(0.5, Provenance("sampled", 10, 0)),
        }
        rep = BoundReport("BoundedContraction", 1.0, ingredients, (("E compact", True),))
        assert rep.status == "estimated"
        assert rep.to_dict()["status"] == "estimated"
        # a sampled diagnostic is not an ingredient and leaves "ok" alone
        clean = BoundReport(
            "BoundedContraction", 1.0, {"tau_pi": ingredients["tau_pi"]},
            (("E compact", True),), diagnostics={"eps_g": ingredients["eps_g"]},
        )
        assert clean.status == "ok"

    def test_replace_rederives_the_status(self):
        rep = bound_bounded_contraction(
            AttentionConfig(Gaussian(2), IdentityLookup(2)), DomainBox.cube(1.0, 2)
        )
        failed = dataclasses.replace(
            rep, theorem="ComponentTaus",
            assumptions_checked=(*rep.assumptions_checked, ("extra", False)),
        )
        assert (rep.status, failed.status) == ("ok", "inapplicable")
        assert failed.theorem == "ComponentTaus"

    def test_gaussian_as_custom_potential_is_estimated(self):
        # the same function as Gaussian(2): its sampled eps(G) lies above
        # the true inf e^-8, so the value undercuts the certified bound
        box = DomainBox.cube(1.0, 2)
        custom = CustomPotential(fn=lambda x, y: -((x - y) ** 2).sum(axis=-1), dim=2)
        certified = bound_bounded_contraction(
            AttentionConfig(Gaussian(2), IdentityLookup(2)), box
        )
        cfg = AttentionConfig(custom, IdentityLookup(2))
        stats = regularity_stats(custom, box)
        sampled = bound_bounded_contraction(cfg, box, stats=stats)
        assert certified.status == "ok"
        assert sampled.status == "estimated"
        assert sampled.value < certified.value
        assert sampled.ingredients["eps_g"].provenance.kind == "sampled"
        assert bound_component_taus(cfg, box, stats=stats).status == "estimated"

    def test_data_stats_are_estimated(self):
        # eps(G) as the minimum of G over the data pairs lies above the
        # bounding box's inf, so the value undercuts the box's own bound;
        # it used to carry the "analytic" kind and read "ok"
        pts = np.array([[0.0, 0.0], [1.0, 0.5], [0.5, 1.0]])
        cfg = AttentionConfig(Gaussian(2), IdentityLookup(2))
        stats, box = regularity_stats_on_data(Gaussian(2), pts)
        rep = bound_bounded_contraction(cfg, box, stats)
        certified = bound_bounded_contraction(cfg, box)
        assert rep.status == "estimated"
        assert rep.ingredients["eps_g"].provenance.kind == "sampled"
        assert "data-empirical" in rep.ingredients["eps_g"].provenance.note
        assert (round(rep.value, 2), round(certified.value, 2)) == (47.90, 101.41)
        assert certified.status == "ok"

    def test_numeric_gradient_constant_is_a_diagnostic(self):
        rep = bound_unbounded_gaussian(IdentityLookup(2), 2, 3, 4, include_tight_c=True)
        assert rep.status == "ok"
        assert "gradient_constant_numeric" not in rep.ingredients
        diag = rep.to_dict()["diagnostics"]["gradient_constant_numeric"]
        assert diag["provenance"]["kind"] == "sampled"
        assert reevaluate(rep) == rep.value
        assert "diagnostics" not in bound_unbounded_gaussian(IdentityLookup(2), 2, 3, 4).to_dict()

    def test_to_dict_provenance(self):
        box = DomainBox.cube(1.0, 2)
        cfg = AttentionConfig(Gaussian(2), IdentityLookup(2))
        d = bound_bounded_contraction(cfg, box).to_dict()
        assert d["ingredients"]["eps_g"]["provenance"]["kind"] == "analytic"
        assert d["theorem"] == "BoundedContraction"


class TestPinnedReports:
    """Every theorem's report on a seeded corpus, byte for byte as recorded
    while the status was a stored field and the pointwise and
    cross-attention constants were bare floats: each report's JSON, key
    order included, and the hex of those two values."""

    DIGEST = "bf84e00945a774ee00989e9c2a6f92cceafbca3ace50dedc7690a37d40c91475"

    @staticmethod
    def corpus():
        rng = np.random.default_rng(2023)
        for d in (1, 2, 3, 4):
            for radius in (0.25, 0.5, 1.0, 1.5):
                box = DomainBox.cube(radius, d)
                wq, wk = rng.normal(size=(2, d, d)) * 0.5
                lookups = (IdentityLookup(d), LinearLookup(rng.normal(size=(d, d))))
                for pot in (Gaussian(d), DotProduct(0.7, d), ScaledDotProduct(wq, wk, 0.4)):
                    for lk in lookups:
                        cfg = AttentionConfig(pot, lk)
                        q = rng.uniform(-radius, radius, d)
                        yield json.dumps(bound_bounded_contraction(cfg, box).to_dict())
                        yield json.dumps(bound_component_taus(cfg, box).to_dict())
                        yield bound_pointwise_query(cfg, box).value.hex()
                        yield bound_cross_attention(cfg, box, q).value.hex()
                for lk in lookups:
                    for n, m in ((1, 1), (3, 7), (50, 20)):
                        yield json.dumps(bound_unbounded_gaussian(lk, d, n, m).to_dict())
                        yield json.dumps(bound_unbounded_equal_n(lk, d, n).to_dict())

    def test_corpus_digest(self):
        blob = "\n".join(self.corpus()).encode()
        assert hashlib.sha256(blob).hexdigest() == self.DIGEST
