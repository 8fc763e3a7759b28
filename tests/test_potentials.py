"""Potentials: evaluation, overflow policy, and regularity statistics."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_oracle import assert_bitwise

from softmatch.equiv import POTENTIAL_KINDS, random_potential
from softmatch.errors import (
    DimMismatch,
    InvalidInput,
    PotentialOverflow,
    UnboundedDomainUnsupported,
)
from softmatch.kernels import AttentionConfig, IdentityLookup, self_attention
from softmatch.measures import DomainBox, PointCloud
from softmatch.potentials import (
    GAUSSIAN_LIP,
    CustomPotential,
    DotProduct,
    Gaussian,
    SamplingConfig,
    ScaledDotProduct,
    _bilinear_extrema,
    _latin_hypercube,
    eps_on_data,
    evaluate,
    query_lipschitz,
    regularity_stats,
)


class TestEvaluate:
    def test_gaussian_diagonal_is_one(self):
        g = Gaussian(3)
        x = np.array([0.2, -1.0, 4.0])
        assert evaluate(g, x, x) == 1.0

    def test_dot_product_hand_value(self):
        p = DotProduct(scale=1.0 / math.sqrt(2.0), dim=2)
        got = evaluate(p, [1.0, 0.0], [1.0, 0.0])
        assert got == pytest.approx(math.exp(1.0 / math.sqrt(2.0)), rel=0, abs=1e-15)
        assert got == pytest.approx(2.0281, abs=1e-4)

    def test_gaussian_unit_distance(self):
        g = Gaussian(1)
        got = evaluate(g, [0.0], [1.0])
        assert got == math.exp(-1.0)
        assert got == pytest.approx(0.367879, abs=1e-6)

    def test_always_positive(self):
        rng = np.random.default_rng(0)
        p = DotProduct(scale=-3.0, dim=4)
        for _ in range(50):
            assert evaluate(p, rng.normal(size=4), rng.normal(size=4)) > 0.0

    def test_overflow_reported(self):
        p = DotProduct(scale=1.0, dim=1)
        with pytest.raises(PotentialOverflow) as exc:
            evaluate(p, [1e3], [1.0])
        assert exc.value.a_value == 1000.0

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            evaluate(Gaussian(2), [0.0], [1.0, 2.0])
        with pytest.raises(DimMismatch):
            ScaledDotProduct(np.eye(2), np.eye(3), 1.0)

    def test_scaled_dot_product_matches_projection(self):
        rng = np.random.default_rng(5)
        wq = rng.normal(size=(3, 4))
        wk = rng.normal(size=(3, 4))
        p = ScaledDotProduct(wq, wk, scale=0.5)
        x, y = rng.normal(size=4), rng.normal(size=4)
        want = 0.5 * float(np.dot(wq @ x, wk @ y))
        assert p.similarity(x, y) == pytest.approx(want, rel=1e-15)

    def test_similarity_matrix_agrees_pointwise(self):
        rng = np.random.default_rng(6)
        for p in (Gaussian(3), DotProduct(0.7, 3),
                  ScaledDotProduct(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), 0.9)):
            q = rng.normal(size=(4, 3))
            k = rng.normal(size=(5, 3))
            mat = p.similarity_matrix(q, k)
            for i, j in itertools.product(range(4), range(5)):
                assert mat[i, j] == pytest.approx(p.similarity(q[i], k[j]), rel=1e-12, abs=1e-12)


class TestLayouts:
    """Every layout is the one `_pairwise` expression on views of its
    arguments, so a pair gets the same bits in all four."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(POTENTIAL_KINDS),
        st.sampled_from((1, 2, 3, 4, 8, 13)),
    )
    def test_layouts_agree_bitwise(self, seed, kind, d):
        rng = np.random.default_rng(seed)
        p = random_potential(rng, d, kind)
        q = rng.normal(size=(2, 6, d))
        k = rng.normal(size=(7, 2, d))
        keys_major = p.similarity_keys_major(q, k)
        for b in range(2):
            mat = p.similarity_matrix(q[b], k[:, b])
            one = [[p.similarity(x, y) for y in k[:, b]] for x in q[b]]
            pairs = p.similarity_pairs(np.repeat(q[b], 7, axis=0), np.tile(k[:, b], (6, 1)))
            assert_bitwise(mat, np.array(one))
            assert_bitwise(mat, pairs.reshape(6, 7))
            assert_bitwise(mat, keys_major[:, b].T)


class TestCustomPotential:
    def test_scalar_style_fn_is_refused(self):
        # a function of one pair reduces the whole batch to one number
        p = CustomPotential(fn=lambda x, y: -float(np.abs(x - y).sum()), dim=2)
        with pytest.raises(InvalidInput, match="must broadcast over the last axis"):
            p.similarity_matrix(np.zeros((3, 2)), np.ones((4, 2)))
        with pytest.raises(InvalidInput):
            p.similarity([0.0, 1.0], [1.0, 2.0])

    def test_read_only_output_is_copied(self):
        # a broadcast view is read-only, and attention works in place
        def zero(x, y):
            return np.broadcast_to(0.0, np.broadcast_shapes(x.shape[:-1], y.shape[:-1]))

        cloud = PointCloud(np.random.default_rng(4).normal(size=(5, 2)))
        cfg = AttentionConfig(CustomPotential(zero, dim=2), IdentityLookup(2))
        out = self_attention(cfg, cloud).points
        np.testing.assert_allclose(out, np.tile(cloud.points.mean(axis=0), (5, 1)), atol=1e-12)


class TestGaussianStats:
    def test_sup_is_one(self):
        stats = regularity_stats(Gaussian(2), DomainBox.cube(1.0, 2))
        assert stats.sup_g == 1.0
        assert stats.provenance["sup_g"].kind == "analytic"

    def test_lip_constant_matches_1d_maximization_oracle(self):
        # sup_t 2 t exp(-t^2) by grid + local refinement
        ts = np.linspace(0.0, 4.0, 200_001)
        oracle = float((2.0 * ts * np.exp(-ts * ts)).max())
        assert GAUSSIAN_LIP == pytest.approx(math.sqrt(2.0 / math.e), rel=0, abs=0)
        assert GAUSSIAN_LIP == pytest.approx(oracle, abs=1e-9)
        assert GAUSSIAN_LIP == pytest.approx(0.85776, abs=1e-5)

    def test_eps_on_box(self):
        box = DomainBox([-1.0, 0.0], [1.0, 3.0])
        stats = regularity_stats(Gaussian(2), box)
        # farthest pair is the opposite-corner pair
        assert stats.eps_g == math.exp(-(2.0 ** 2 + 3.0 ** 2))

    def test_unbounded_allowed(self):
        stats = regularity_stats(Gaussian(2), DomainBox.unbounded(2))
        assert stats.eps_g == 0.0
        assert stats.sup_g == 1.0
        assert stats.lip_joint == GAUSSIAN_LIP

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        g = Gaussian(3)
        for _ in range(20):
            x, y = rng.normal(size=3), rng.normal(size=3)
            assert g.similarity(x, y) == g.similarity(y, x)


class TestDotProductStats:
    def test_unit_box_extrema(self):
        stats = regularity_stats(DotProduct(1.0, 2), DomainBox.cube(1.0, 2))
        assert stats.eps_g == math.exp(-2.0)
        assert stats.sup_g == math.exp(2.0)
        assert stats.provenance["eps_g"].kind == "analytic"

    def test_extrema_match_corner_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        box = DomainBox(rng.uniform(-1, 0, 3), rng.uniform(0.2, 1.2, 3))
        wq = rng.normal(size=(2, 3))
        wk = rng.normal(size=(2, 3))
        p = ScaledDotProduct(wq, wk, scale=0.8)
        stats = regularity_stats(p, box)
        corners = box.corners()
        vals = [
            p.similarity(x, y)
            for x, y in itertools.product(corners, corners)
        ]
        assert stats.eps_g == pytest.approx(math.exp(min(vals)), rel=1e-12)
        assert stats.sup_g == pytest.approx(math.exp(max(vals)), rel=1e-12)

    def test_unbounded_rejected(self):
        with pytest.raises(UnboundedDomainUnsupported):
            regularity_stats(DotProduct(1.0, 2), DomainBox.unbounded(2))

    def test_interval_extrema_enclose_corner_extrema_past_256_corners(self):
        # d = 9, a non-diagonal form: 512 corners, past the enumeration
        # limit, so the extrema are per-entry interval bounds; they must
        # enclose the true ones, which the corners attain
        rng = np.random.default_rng(9)
        d = 9
        p = ScaledDotProduct(rng.normal(size=(d, d)), rng.normal(size=(d, d)), scale=0.5)
        box = DomainBox.cube(1.0, d)
        stats = regularity_stats(p, box)
        corners = box.corners()
        vals = corners @ p.bilinear_matrix @ corners.T
        assert stats.eps_g <= math.exp(vals.min())
        assert stats.sup_g >= math.exp(vals.max())
        for name in ("eps_g", "sup_g"):
            prov = stats.provenance[name]
            assert prov.kind == "analytic" and prov.note.startswith("conservative")

    def test_zero_entries_contribute_zero_past_256_corners(self):
        # coordinate 0 spans past the float products, but its row and
        # column of M are zero: 0 * inf read NaN, and the extrema with it
        rng = np.random.default_rng(12)
        d = 9
        m = rng.normal(size=(d, d))
        m[0, :] = m[:, 0] = 0.0
        wide = DomainBox(np.r_[-1e200, -np.ones(d - 1)], np.r_[1e200, np.ones(d - 1)])
        narrow = DomainBox.cube(1.0, d)
        low, high, exact = _bilinear_extrema(m, wide)
        assert (low, high, exact) == _bilinear_extrema(m, narrow)
        assert math.isfinite(low) and math.isfinite(high) and not exact

    def test_overflow_names_the_bound_over_the_box(self):
        # the 9-d form past the corner limit whose W_Q^T W_K has zero
        # entries: the bound is inf, not NaN, and no pair is named
        w = np.eye(9)
        w[0, 1] = 1.0
        p = ScaledDotProduct(w, w, scale=1.0 / 3.0)
        with pytest.raises(PotentialOverflow) as exc:
            regularity_stats(p, DomainBox.cube(1e160, 9))
        assert exc.value.a_value == math.inf
        assert str(exc.value) == "similarity bound inf over the domain box overflows exp()"

    def test_symmetric_when_projections_match(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(2, 2))
        p = ScaledDotProduct(w, w, scale=1.0)
        x, y = rng.normal(size=2), rng.normal(size=2)
        assert p.similarity(x, y) == pytest.approx(p.similarity(y, x), rel=1e-14)

    def test_analytic_lip_dominates_sampled_ratios(self):
        # upper-bound seminorms: every sampled difference quotient obeys them
        rng = np.random.default_rng(9)
        box = DomainBox.cube(1.0, 2)
        p = DotProduct(0.9, 2)
        stats = regularity_stats(p, box)
        for _ in range(300):
            x, x2, y = rng.uniform(-1, 1, (3, 2))
            lhs = abs(evaluate(p, x, y) - evaluate(p, x2, y))
            assert lhs <= stats.lip_left * np.abs(x - x2).sum() + 1e-9


class TestSampledStats:
    def test_sampled_gaussian_never_beats_analytic(self):
        g_exact = Gaussian(2)
        as_custom = CustomPotential(fn=lambda x, y: -((x - y) ** 2).sum(axis=-1), dim=2)
        stats = regularity_stats(
            as_custom, DomainBox.cube(1.0, 2), SamplingConfig(n_pairs=20_000, seed=4)
        )
        assert stats.provenance["lip_left"].kind == "sampled"
        assert stats.lip_left <= GAUSSIAN_LIP + 1e-9
        assert stats.lip_joint <= GAUSSIAN_LIP + 1e-9
        assert stats.sup_g <= 1.0
        analytic = regularity_stats(g_exact, DomainBox.cube(1.0, 2))
        assert stats.eps_g >= analytic.eps_g - 1e-12

    def test_sampled_seed_reproducible(self):
        p = CustomPotential(fn=lambda x, y: -np.abs(x - y).sum(axis=-1), dim=2)
        cfg = SamplingConfig(n_pairs=5_000, seed=123)
        box = DomainBox.cube(1.0, 2)
        a = regularity_stats(p, box, cfg)
        b = regularity_stats(p, box, cfg)
        assert a.lip_left == b.lip_left
        assert a.eps_g == b.eps_g


    @pytest.mark.parametrize(
        "lower, upper",
        [
            ([0.0, 0.0], [0.0, 1.0]),
            ([0.0, -1.0, 2.0], [1e-9, 1.0, 2.0]),
            ([-1.0, -1.0], [1.0, 1.0]),
        ],
    )
    def test_every_sampled_point_lies_in_the_box(self, lower, upper):
        """The sampled values bound sups and infs over E only if every
        point the potential is evaluated at lies in E, sides of width 0
        (where no finite difference fits) included."""
        box = DomainBox(lower, upper)
        seen = []

        def fn(x, y):
            seen.extend((x.copy(), y.copy()))
            return -np.abs(x - y).sum(axis=-1)

        regularity_stats(CustomPotential(fn=fn, dim=box.dim), box, SamplingConfig(100))
        assert box.contains(np.concatenate(seen))

    @pytest.mark.parametrize(
        "lower, upper, n_pairs, seed, want",
        [
            (
                [-1.0, -1.0], [1.0, 1.0], 500, 3,
                ("0x1.739d850ca9343p-6", "0x1.b44875b3e6a4fp+0", "0x1.2c8abd8e5b58cp+1",
                 "0x1.0bfd74f27d598p+1", "0x1.2c8abd8e5b58cp+1"),
            ),
            (
                [-1.0, 0.0, 2.0], [0.5, 0.25, 3.0], 2000, 7,
                ("0x1.51c652e277b76p-4", "0x1.7d94a2b8f3b86p+0", "0x1.04abef62e94a0p+1",
                 "0x1.0707d53c1c040p+1", "0x1.0707d53c1c040p+1"),
            ),
            (
                [0.0], [1.0], 16, 0,
                ("0x1.de6520f80883cp-2", "0x1.0dffdb0dee8afp+0", "0x1.302aea180cb80p+0",
                 "0x1.3c8dad85d95a0p+0", "0x1.3c8dad85d95a0p+0"),
            ),
        ],
    )
    def test_stats_keep_their_bits(self, lower, upper, n_pairs, seed, want):
        """Pinned (eps_g, sup_g, lip_left, lip_right, lip_joint) of an
        asymmetric potential on boxes with no side of width 0."""
        def fn(x, y):
            sin_x, cos_y = np.sin(x).sum(axis=-1), np.cos(y).sum(axis=-1)
            return -np.abs(x - y).sum(axis=-1) + 0.3 * sin_x * cos_y

        box = DomainBox(lower, upper)
        cfg = SamplingConfig(n_pairs, seed)
        s = regularity_stats(CustomPotential(fn=fn, dim=box.dim), box, cfg)
        got = (s.eps_g, s.sup_g, s.lip_left, s.lip_right, s.lip_joint)
        assert tuple(v.hex() for v in got) == want


@pytest.mark.parametrize("dim, n, seed", ((2, 16, 0), (4, 500, 3), (6, 2000, 7), (1, 17, 11)))
def test_latin_hypercube_is_scipys(dim, n, seed):
    # the sampled statistics draw their pairs from scipy's Latin hypercube
    # algorithm, rewritten on numpy's generator to keep scipy.stats unloaded
    qmc = pytest.importorskip("scipy.stats.qmc")
    want = qmc.LatinHypercube(d=dim, seed=seed).random(n)
    assert _latin_hypercube(n, dim, seed).tobytes() == want.tobytes()


class TestQueryLipschitz:
    def test_gaussian_constant(self):
        assert query_lipschitz(Gaussian(2), np.zeros(2), DomainBox.cube(1.0, 2)) == GAUSSIAN_LIP

    def test_dot_product_dominates_samples(self):
        rng = np.random.default_rng(10)
        box = DomainBox.cube(1.0, 3)
        p = DotProduct(0.8, 3)
        q = rng.uniform(-1, 1, 3)
        lip_q = query_lipschitz(p, q, box)
        for _ in range(300):
            y1, y2 = rng.uniform(-1, 1, (2, 3))
            lhs = abs(evaluate(p, q, y1) - evaluate(p, q, y2))
            assert lhs <= lip_q * np.abs(y1 - y2).sum() + 1e-12

    def test_zero_scale_is_zero(self):
        assert query_lipschitz(DotProduct(0.0, 2), np.ones(2), DomainBox.cube(1.0, 2)) == 0.0

    @pytest.mark.parametrize("kind", POTENTIAL_KINDS)
    def test_wrong_dimension_raises(self, kind):
        p = random_potential(np.random.default_rng(0), 2, kind)
        box = DomainBox.cube(1.0, 2)
        for q in (np.zeros(3), np.zeros(1), np.zeros((1, 2)), np.float64(0.0)):
            with pytest.raises(DimMismatch):
                query_lipschitz(p, q, box)
        with pytest.raises(DimMismatch):
            query_lipschitz(p, np.zeros(2), DomainBox.cube(1.0, 3))


def test_eps_on_data_is_data_minimum():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(6, 2))
    g = Gaussian(2)
    want = min(
        evaluate(g, a, b) for a, b in itertools.product(pts, pts)
    )
    assert eps_on_data(g, pts) == pytest.approx(want, rel=1e-12)


def test_stats_on_data_flagged_and_at_least_box_eps():
    from softmatch.potentials import regularity_stats_on_data

    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(8, 2))
    stats, box = regularity_stats_on_data(Gaussian(2), pts)
    assert box.contains(pts)
    assert stats.eps_g >= regularity_stats(Gaussian(2), box).eps_g
    assert "data-empirical" in stats.provenance["eps_g"].note
