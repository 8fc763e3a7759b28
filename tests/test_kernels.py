"""Kernel pipeline vs the matrix-form oracles, plus structural invariants."""

import functools
import math

import kernel_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_oracle import KeyValueMismatch, reference_attention

from softmatch.equiv import (
    LOOKUP_KINDS,
    POTENTIAL_KINDS,
    random_attention_config,
    random_ffn,
    random_lookup,
    random_potential,
)
from softmatch.errors import DimMismatch, InvalidInput
from softmatch.kernels import (
    AttentionConfig,
    FfnConfig,
    FunctionLookup,
    Head,
    IdentityLookup,
    LinearLookup,
    MultiHeadConfig,
    TransformerLayerSpec,
    _CHUNK_ENTRIES,
    _attend,
    _chunk_size,
    _softmatch_rows,
    apply_lookup,
    attention_kernel,
    attention_pushforward,
    induced_l1_norm,
    layer_map,
    multi_head,
    reference_multi_head,
    reference_self_attention,
    reference_transformer_layer,
    self_attention,
    softmatch_measure,
    softmatch_weights,
    transformer_layer,
)
from softmatch.measures import (
    DomainBox,
    EmpiricalMeasure,
    PointCloud,
    barycenter,
    canonical_order,
    empirical,
)
from softmatch.potentials import CustomPotential, DotProduct, Gaussian

EQUIV_TOL = 1e-10


def constant_potential(d):
    # scale 0 makes the similarity identically zero: the uniform softmatch
    return DotProduct(scale=0.0, dim=d)


class TestSoftmatch:
    def test_equidistant_keys_split_evenly(self):
        nu = empirical([[1.0, 0.0], [-1.0, 0.0]])
        w = softmatch_weights(Gaussian(2), [0.0, 0.5], nu)
        np.testing.assert_array_equal(w, [0.5, 0.5])

    def test_single_key_gets_everything(self):
        nu = empirical([[3.0]])
        w = softmatch_weights(DotProduct(-2.0, 1), [5.0], nu)
        np.testing.assert_array_equal(w, [1.0])

    def test_log_two_example(self):
        # similarities 0 and ln 2 give odds 1 : 2
        nu = empirical([[0.0], [math.log(2.0)]])
        w = softmatch_weights(DotProduct(1.0, 1), [1.0], nu)
        np.testing.assert_allclose(w, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(5, 2))
        nu = empirical(pts)
        q = rng.normal(size=2)
        base = CustomPotential(fn=lambda x, y: float(x @ y), dim=2)
        shifted = CustomPotential(fn=lambda x, y: float(x @ y) + 37.5, dim=2)
        np.testing.assert_allclose(
            softmatch_weights(base, q, nu),
            softmatch_weights(shifted, q, nu),
            atol=1e-12,
        )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(1, 3))
    def test_weights_are_a_distribution(self, seed, n, d):
        rng = np.random.default_rng(seed)
        nu = empirical(PointCloud(rng.normal(size=(n, d))))
        w = softmatch_weights(Gaussian(d), rng.normal(size=d), nu)
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_overflow_safe_far_logits(self):
        nu = empirical([[1000.0], [0.0]])
        w = softmatch_weights(DotProduct(1.0, 1), [1.0], nu)
        assert np.all(np.isfinite(w))
        assert w[0] == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(1, 3),
    )
    def test_zero_weight_points_never_overflow(self, seed, n_pos, n_zero, d):
        # zero-weight points sit next to the query, far above the max
        # similarity over the positive-weight points; exp() of their
        # shifted similarity would overflow
        rng = np.random.default_rng(seed)
        pts = np.concatenate(
            [40.0 + rng.normal(size=(n_pos, d)), rng.normal(size=(n_zero, d))]
        )
        w = np.concatenate([rng.random(n_pos) + 0.1, np.zeros(n_zero)])
        perm = rng.permutation(n_pos + n_zero)
        mu = EmpiricalMeasure(PointCloud(pts[perm]), (w / w.sum())[perm])
        got = softmatch_weights(Gaussian(d), np.zeros(d), mu)
        assert np.all(np.isfinite(got))
        assert np.all(got[mu.weights == 0] == 0.0)
        assert abs(got.sum() - 1.0) <= 1e-12
        out = attention_pushforward(AttentionConfig(Gaussian(d), IdentityLookup(d)), mu)
        assert np.all(out.support.points > 30.0)

    def test_nan_query_rejected(self):
        nu = empirical([[0.0]])
        with pytest.raises(InvalidInput):
            softmatch_weights(Gaussian(1), [float("nan")], nu)

    def test_measure_keeps_support(self):
        nu = empirical([[0.0], [2.0]])
        out = softmatch_measure(Gaussian(1), [0.1], nu)
        np.testing.assert_array_equal(out.support.points, nu.support.points)


class TestLookup:
    def test_identity(self):
        mu = empirical([[1.0], [3.0]])
        out = apply_lookup(IdentityLookup(1), mu)
        np.testing.assert_array_equal(out.support.points, mu.support.points)
        np.testing.assert_array_equal(out.weights, mu.weights)

    def test_linear_scaling(self):
        out = apply_lookup(LinearLookup(2.0 * np.eye(1)), empirical([[1.0], [3.0]]))
        np.testing.assert_array_equal(out.support.points, [[2.0], [6.0]])

    def test_translation_shifts_barycenter(self):
        c = np.array([0.5, -1.0])
        lk = FunctionLookup(fn=lambda x: x + c, in_dim=2, out_dim=2, lip_ell=1.0)
        mu = empirical(np.random.default_rng(1).normal(size=(4, 2)))
        out = apply_lookup(lk, mu)
        np.testing.assert_allclose(barycenter(out), barycenter(mu) + c, atol=1e-12)

    def test_lip_values(self):
        assert IdentityLookup(3).lip() == 1.0
        assert LinearLookup(2.0 * np.eye(2)).lip() == 2.0
        w = np.array([[1.0, -2.0], [3.0, 0.5]])
        assert LinearLookup(w).lip() == 4.0  # max column abs sum
        assert induced_l1_norm(w) == 4.0

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            apply_lookup(LinearLookup(np.ones((2, 3))), empirical([[0.0, 1.0]]))


class TestAttentionKernel:
    def test_single_key_returns_lookup_of_key(self):
        mu = empirical([[2.0, 0.0]])
        lk = LinearLookup(np.array([[0.0, 1.0], [1.0, 0.0]]))
        cfg = AttentionConfig(Gaussian(2), lk)
        np.testing.assert_array_equal(
            attention_kernel(cfg, [9.0, 9.0], mu), [0.0, 2.0]
        )

    def test_constant_potential_gives_weighted_barycenter(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(6, 2))
        w = rng.random(6)
        w /= w.sum()
        mu = EmpiricalMeasure(PointCloud(pts), w)
        cfg = AttentionConfig(constant_potential(2), IdentityLookup(2))
        got = attention_kernel(cfg, rng.normal(size=2), mu)
        np.testing.assert_allclose(got, barycenter(mu), atol=1e-12)

    def test_matches_reference_on_random_instance(self):
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.normal(size=(8, 4)))
        cfg = AttentionConfig(Gaussian(4), IdentityLookup(4))
        mu = empirical(cloud)
        for q in rng.normal(size=(5, 4)):
            got = attention_kernel(cfg, q, mu)
            want = reference_attention(cfg.potential, q, cloud, cloud)
            assert np.abs(got - want).max() <= EQUIV_TOL


class TestReferenceAttention:
    def test_single_pair(self):
        k = PointCloud([[1.0, 2.0]])
        v = PointCloud([[5.0, 6.0]])
        np.testing.assert_array_equal(
            reference_attention(Gaussian(2), [0.0, 0.0], k, v), [5.0, 6.0]
        )

    def test_equal_similarity_averages(self):
        k = PointCloud([[1.0], [-1.0]])
        v = PointCloud([[4.0], [8.0]])
        np.testing.assert_allclose(
            reference_attention(Gaussian(1), [0.0], k, v), [6.0], atol=1e-12
        )

    def test_log_two_weighted_sum(self):
        keys = PointCloud([[0.0], [math.log(2.0)]])
        got = reference_attention(DotProduct(1.0, 1), [1.0], keys, keys)
        np.testing.assert_allclose(got, [(2.0 / 3.0) * math.log(2.0)], atol=1e-12)

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(KeyValueMismatch):
            reference_attention(
                Gaussian(1), [0.0], PointCloud([[0.0], [1.0]]), PointCloud([[0.0]])
            )


class TestSelfAttention:
    def test_single_point(self):
        lk = LinearLookup(3.0 * np.eye(1))
        cfg = AttentionConfig(Gaussian(1), lk)
        out = self_attention(cfg, PointCloud([[2.0]]))
        np.testing.assert_array_equal(out.points, [[6.0]])

    @pytest.mark.parametrize(
        "fn", ("self_attention", "multi_head", "transformer_layer", "attention_pushforward")
    )
    @pytest.mark.parametrize("d", (1, 2, 4, 8))
    @pytest.mark.parametrize("lookup_kind", LOOKUP_KINDS)
    @pytest.mark.parametrize("potential_kind", POTENTIAL_KINDS)
    def test_permutation_equivariance_bitwise(self, potential_kind, lookup_kind, d, fn):
        rng = np.random.default_rng(2)
        n = int(rng.integers(2, 33))
        pts = rng.normal(size=(n, d))
        perm = rng.permutation(n)
        pts[-1] = pts[0]  # one duplicated point
        cloud = PointCloud(pts)

        def attention():
            return random_attention_config(rng, d, potential_kind, lookup_kind)

        def heads():
            cfgs = [attention() for _ in range(2)]
            return MultiHeadConfig(
                [Head(c, rng.normal(scale=0.5, size=(c.out_dim, d))) for c in cfgs]
            )

        if fn == "attention_pushforward":
            w = rng.random(n) + 0.1
            mu = EmpiricalMeasure(cloud, w / w.sum())
            cfg = attention()
            out = attention_pushforward(cfg, mu)
            out_perm = attention_pushforward(cfg, mu.permuted(perm))
            np.testing.assert_array_equal(out.weights[perm], out_perm.weights)
            got, want = out.support.points, out_perm.support.points
        else:
            if fn == "self_attention":
                layer = functools.partial(self_attention, attention())
            elif fn == "multi_head":
                layer = functools.partial(multi_head, heads())
            else:
                layer = functools.partial(transformer_layer, heads(), random_ffn(rng, d))
            got, want = layer(cloud).points, layer(cloud.permuted(perm)).points
        np.testing.assert_array_equal(got[perm], want)

    def test_output_measure_permutation_invariant(self):
        rng = np.random.default_rng(5)
        cloud = PointCloud(rng.normal(size=(6, 2)))
        cfg = AttentionConfig(Gaussian(2), IdentityLookup(2))
        perm = rng.permutation(6)
        a = self_attention(cfg, cloud).points
        b = self_attention(cfg, cloud.permuted(perm)).points
        np.testing.assert_array_equal(
            a[canonical_order(a)], b[canonical_order(b)]
        )

    def test_matches_rowwise_reference(self):
        rng = np.random.default_rng(6)
        for d, n in ((1, 1), (2, 5), (4, 9)):
            cloud = PointCloud(rng.normal(size=(n, d)))
            cfg = AttentionConfig(
                DotProduct(1.0 / math.sqrt(d), d),
                LinearLookup(rng.normal(size=(d, d))),
            )
            got = self_attention(cfg, cloud).points
            want = reference_self_attention(cfg, cloud)
            assert np.abs(got - want).max() <= EQUIV_TOL

    def test_outputs_contained_in_convex_box(self):
        rng = np.random.default_rng(7)
        box = DomainBox.cube(1.0, 3)
        for _ in range(20):
            cloud = PointCloud(rng.uniform(-1, 1, size=(5, 3)))
            cfg = AttentionConfig(Gaussian(3), IdentityLookup(3))
            out = self_attention(cfg, cloud)
            assert box.contains(out.points, atol=1e-12)

    def test_pushforward_keeps_weights(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(4, 2))
        w = np.array([0.4, 0.3, 0.2, 0.1])
        mu = EmpiricalMeasure(PointCloud(pts), w)
        out = attention_pushforward(
            AttentionConfig(Gaussian(2), IdentityLookup(2)), mu
        )
        np.testing.assert_array_equal(out.weights, mu.weights)
        assert out.n == mu.n


class TestMultiHead:
    def _head(self, rng, d, w_o=None):
        cfg = AttentionConfig(Gaussian(d), IdentityLookup(d))
        return Head(attention=cfg, w_o=np.eye(d) if w_o is None else w_o)

    def test_single_head_identity_wo_reduces(self):
        rng = np.random.default_rng(9)
        cloud = PointCloud(rng.normal(size=(5, 2)))
        mh = MultiHeadConfig([self._head(rng, 2)])
        single = self_attention(AttentionConfig(Gaussian(2), IdentityLookup(2)), cloud)
        np.testing.assert_array_equal(multi_head(mh, cloud).points, single.points)

    def test_identical_heads_half_wo_average(self):
        rng = np.random.default_rng(10)
        cloud = PointCloud(rng.normal(size=(4, 2)))
        half = 0.5 * np.eye(2)
        mh = MultiHeadConfig([self._head(rng, 2, half), self._head(rng, 2, half)])
        single = self_attention(AttentionConfig(Gaussian(2), IdentityLookup(2)), cloud)
        np.testing.assert_array_equal(multi_head(mh, cloud).points, single.points)

    def test_random_two_heads_match_concat_matmul_oracle(self):
        rng = np.random.default_rng(11)
        d = 4
        heads = []
        for _ in range(2):
            dp = int(rng.integers(2, 5))
            cfg = AttentionConfig(
                DotProduct(0.5, d), LinearLookup(rng.normal(size=(dp, d)))
            )
            heads.append(Head(attention=cfg, w_o=rng.normal(size=(dp, d))))
        mh = MultiHeadConfig(heads)
        cloud = PointCloud(rng.normal(size=(6, d)))
        got = multi_head(mh, cloud).points
        want = reference_multi_head(mh, cloud)
        assert np.abs(got - want).max() <= EQUIV_TOL

    def test_mismatched_head_dims_rejected(self):
        h1 = self._head(np.random.default_rng(0), 2)
        cfg3 = AttentionConfig(Gaussian(3), IdentityLookup(3))
        h3 = Head(attention=cfg3, w_o=np.eye(3))
        with pytest.raises(DimMismatch):
            MultiHeadConfig([h1, h3])


class TestTransformerLayer:
    def test_identity_ffn_equals_multi_head(self):
        rng = np.random.default_rng(12)
        cloud = PointCloud(rng.normal(size=(5, 2)))
        mh = MultiHeadConfig(
            [Head(AttentionConfig(Gaussian(2), IdentityLookup(2)), np.eye(2))]
        )
        ffn = FfnConfig([(np.eye(2), np.zeros(2))])
        np.testing.assert_array_equal(
            transformer_layer(mh, ffn, cloud).points, multi_head(mh, cloud).points
        )

    def test_doubling_ffn(self):
        rng = np.random.default_rng(13)
        cloud = PointCloud(rng.normal(size=(4, 2)))
        mh = MultiHeadConfig(
            [Head(AttentionConfig(Gaussian(2), IdentityLookup(2)), np.eye(2))]
        )
        ffn = FfnConfig([(2.0 * np.eye(2), np.zeros(2))])
        np.testing.assert_array_equal(
            transformer_layer(mh, ffn, cloud).points,
            2.0 * multi_head(mh, cloud).points,
        )

    def test_random_instance_matches_composed_oracles(self):
        rng = np.random.default_rng(14)
        d = 3
        mh = MultiHeadConfig(
            [
                Head(
                    AttentionConfig(
                        DotProduct(0.6, d), LinearLookup(rng.normal(size=(d, d)))
                    ),
                    rng.normal(size=(d, d)),
                )
                for _ in range(2)
            ]
        )
        ffn = FfnConfig(
            [
                (rng.normal(size=(5, d)), rng.normal(size=5)),
                (rng.normal(size=(d, 5)), rng.normal(size=d)),
            ],
            "relu",
        )
        cloud = PointCloud(rng.normal(size=(6, d)))
        got = transformer_layer(mh, ffn, cloud).points
        want = reference_transformer_layer(mh, ffn, cloud)
        assert np.abs(got - want).max() <= EQUIV_TOL

    def test_ffn_lip_is_product_of_l1_norms(self):
        w1 = np.array([[1.0, 2.0], [0.0, 1.0]])
        w2 = np.array([[0.5, 0.0], [0.0, 3.0]])
        ffn = FfnConfig([(w1, np.zeros(2)), (w2, np.zeros(2))], "tanh")
        assert ffn.lip() == induced_l1_norm(w1) * induced_l1_norm(w2)

    def test_ffn_dim_must_match_attention_dim(self):
        mh = MultiHeadConfig(
            [Head(AttentionConfig(Gaussian(2), IdentityLookup(2)), np.eye(2))]
        )
        ffn = FfnConfig([(np.eye(3), np.zeros(3))])
        with pytest.raises(DimMismatch, match="FFN dim 3 vs attention dim 2"):
            TransformerLayerSpec(mh, ffn)
        assert TransformerLayerSpec(mh, FfnConfig([(np.eye(2), np.zeros(2))])).dim == 2

    def test_ffn_shape_validation(self):
        with pytest.raises(DimMismatch):
            FfnConfig([(np.ones((3, 2)), np.zeros(3))])  # not square overall
        with pytest.raises(InvalidInput):
            FfnConfig([(np.eye(2), np.zeros(2))], activation="gelu")


def weighted_cloud(rng, n, d):
    """n points with a duplicate (the last repeats the first) and, for
    n > 1, about a quarter of the weights zero."""
    pts = rng.normal(size=(n, d))
    pts[-1] = pts[0]
    w = rng.random(n) + 0.1
    zero = rng.random(n) < 0.25
    zero[int(rng.integers(n))] = False
    w[zero] = 0.0
    return EmpiricalMeasure(PointCloud(pts), w / w.sum())


class TestKernelParity:
    """Every attention function against the per-point loops it replaced
    (`kernel_oracle`), bit for bit, signed zeros included."""

    @pytest.mark.parametrize("n", (1, 2, 7, 8, 9, 64, 256))
    @pytest.mark.parametrize("d", (1, 2, 4, 8))
    @pytest.mark.parametrize("lookup_kind", LOOKUP_KINDS)
    @pytest.mark.parametrize("potential_kind", POTENTIAL_KINDS)
    def test_bitwise_against_loop_oracle(self, potential_kind, lookup_kind, d, n):
        key = [POTENTIAL_KINDS.index(potential_kind), LOOKUP_KINDS.index(lookup_kind), d, n]
        rng = np.random.default_rng(key)
        mu = weighted_cloud(rng, n, d)
        cloud = mu.support
        cfg = random_attention_config(rng, d, potential_kind, lookup_kind)
        other = random_attention_config(rng, d, potential_kind, lookup_kind)
        mh = MultiHeadConfig(
            [Head(c, rng.normal(scale=0.5, size=(c.out_dim, d))) for c in (cfg, other)]
        )
        ffn = random_ffn(rng, d)

        kernel_oracle.assert_bitwise(
            self_attention(cfg, cloud).points,
            kernel_oracle.attention_pushforward(cfg, empirical(cloud)),
        )
        out = attention_pushforward(cfg, mu)
        kernel_oracle.assert_bitwise(out.support.points, kernel_oracle.attention_pushforward(cfg, mu))
        kernel_oracle.assert_bitwise(out.weights, mu.weights)
        kernel_oracle.assert_bitwise(multi_head(mh, cloud).points, kernel_oracle.multi_head(mh, cloud))
        kernel_oracle.assert_bitwise(
            transformer_layer(mh, ffn, cloud).points,
            kernel_oracle.transformer_layer(mh, ffn, cloud),
        )
        for q in (*rng.normal(size=(2, d)), cloud.points[0]):
            kernel_oracle.assert_bitwise(
                attention_kernel(cfg, q, mu), kernel_oracle.attention_kernel(cfg, q, mu)
            )
            kernel_oracle.assert_bitwise(
                softmatch_weights(cfg.potential, q, mu),
                kernel_oracle.softmatch_weights(cfg.potential, q, mu),
            )
        kernel_oracle.assert_bitwise(barycenter(mu), kernel_oracle.barycenter(mu))
        kernel_oracle.assert_bitwise(barycenter(out), kernel_oracle.barycenter(out))

    @pytest.mark.parametrize("n", (1, 3))
    def test_negative_zero_values(self, n):
        # the value sum starts from 0.0 like the loop, so -0.0 values
        # attend to +0.0, while the barycenter keeps the -0.0
        mu = empirical(np.full((n, 2), -0.0))
        cfg = AttentionConfig(Gaussian(2), IdentityLookup(2))
        got = self_attention(cfg, mu.support).points
        kernel_oracle.assert_bitwise(got, kernel_oracle.attention_pushforward(cfg, mu))
        assert not np.any(np.signbit(got))
        kernel_oracle.assert_bitwise(barycenter(mu), kernel_oracle.barycenter(mu))
        assert np.all(np.signbit(barycenter(mu)))


class TestRowIndependence:
    """One query alone gets the same bits as its row of a batch: a batch
    of one sums along the fast axis, where numpy would sum pairwise."""

    @pytest.mark.parametrize("n", (9, 64, 256))
    @pytest.mark.parametrize("d", (1, 4))
    @pytest.mark.parametrize("potential_kind", POTENTIAL_KINDS)
    def test_single_query_equals_batched_row(self, potential_kind, d, n):
        rng = np.random.default_rng([POTENTIAL_KINDS.index(potential_kind), d, n])
        mu = weighted_cloud(rng, n, d)
        cfg = random_attention_config(rng, d, potential_kind, "linear")
        batched = attention_pushforward(cfg, mu).support.points
        pts = mu.support.points[None]
        weights, order, _ = _softmatch_rows(cfg.potential, pts, pts, mu.weights[None])
        for i, x in enumerate(mu.support.points):
            kernel_oracle.assert_bitwise(attention_kernel(cfg, x, mu), batched[i])
            row = np.zeros(n)
            row[order[0]] = weights[:, 0, i]
            kernel_oracle.assert_bitwise(softmatch_weights(cfg.potential, x, mu), row)


# the built-in potentials, plus a custom one with only a pairwise function
BATCH_POTENTIALS = POTENTIAL_KINDS + ("custom_pairwise",)
LAYER_KINDS = ("single", "multi", "transformer")


def batch_layer(rng, layer_kind, potential_kind, d):
    def attention():
        if potential_kind == "custom_pairwise":
            pot = CustomPotential(fn=lambda x, y: -float(np.abs(x - y).sum()), dim=d)
        else:
            pot = random_potential(rng, d, potential_kind)
        return AttentionConfig(pot, random_lookup(rng, d))

    if layer_kind == "single":
        return attention()
    heads = [attention() for _ in range(2)]
    mh = MultiHeadConfig([Head(c, rng.normal(scale=0.5, size=(c.out_dim, d))) for c in heads])
    if layer_kind == "multi":
        return mh
    return TransformerLayerSpec(mh, random_ffn(rng, d))


def oracle_layer(layer, cloud):
    """The per-point loops of `kernel_oracle` on one cloud."""
    if isinstance(layer, AttentionConfig):
        return kernel_oracle.attention_pushforward(layer, empirical(cloud))
    if isinstance(layer, MultiHeadConfig):
        return kernel_oracle.multi_head(layer, cloud)
    return kernel_oracle.transformer_layer(layer.mh, layer.ffn, cloud)


class TestLayerMapBatch:
    """`layer_map` on B clouds gives every cloud the bits of a call on it
    alone: of `self_attention`, `multi_head` or `transformer_layer`, which
    are its B = 1 case, and of the per-point loop oracle."""

    @pytest.mark.parametrize("d", (1, 3))
    @pytest.mark.parametrize("n", (1, 2, 17))
    @pytest.mark.parametrize("layer_kind", LAYER_KINDS)
    @pytest.mark.parametrize("potential_kind", BATCH_POTENTIALS)
    def test_batch_equals_separate_calls(self, potential_kind, layer_kind, n, d):
        key = [BATCH_POTENTIALS.index(potential_kind), LAYER_KINDS.index(layer_kind), n, d]
        rng = np.random.default_rng(key)
        layer = batch_layer(rng, layer_kind, potential_kind, d)
        clouds = rng.normal(size=(5, n, d))
        clouds[1, -1] = clouds[1, 0]  # a duplicated point
        if layer_kind == "single":
            single = functools.partial(self_attention, layer)
        elif layer_kind == "multi":
            single = functools.partial(multi_head, layer)
        else:
            single = functools.partial(transformer_layer, layer.mh, layer.ffn)
        for b in (1, 2, 5):
            got = layer_map(layer, clouds[:b])
            for i in range(b):
                cloud = PointCloud(clouds[i])
                kernel_oracle.assert_bitwise(got[i], single(cloud).points)
                kernel_oracle.assert_bitwise(got[i], oracle_layer(layer, cloud))

    @pytest.mark.parametrize("layer_kind", LAYER_KINDS)
    def test_batch_across_chunk_boundaries(self, layer_kind):
        n, d = 100, 3
        size = _chunk_size(n)
        rng = np.random.default_rng([7, LAYER_KINDS.index(layer_kind)])
        layer = batch_layer(rng, layer_kind, "gaussian", d)
        clouds = rng.uniform(-1.0, 1.0, size=(2 * size + 1, n, d))
        got = layer_map(layer, clouds)
        for i in (0, size - 1, size, 2 * size - 1, 2 * size):
            kernel_oracle.assert_bitwise(got[i], oracle_layer(layer, PointCloud(clouds[i])))

    def test_chunks_stay_within_one_256_point_matrix(self):
        for n in (1, 2, 16, 17, 64, 100, 255):
            assert _chunk_size(n) * n * n <= _CHUNK_ENTRIES < (_chunk_size(n) + 1) * n * n
        assert _chunk_size(256) == _chunk_size(512) == 1

    @pytest.mark.parametrize("n", (9, 33))
    @pytest.mark.parametrize("potential_kind", POTENTIAL_KINDS)
    def test_single_query_per_cloud(self, potential_kind, n):
        # one query per cloud: each column of the keys-major weights is
        # then summed as its own row of a batch, never along a fast axis
        d = 3
        rng = np.random.default_rng([POTENTIAL_KINDS.index(potential_kind), n])
        cfg = random_attention_config(rng, d, potential_kind, "linear")
        mu = weighted_cloud(rng, n, d)
        keys = np.stack([mu.support.points, rng.normal(size=(n, d)), mu.support.points])
        queries = rng.normal(size=(3, 1, d))
        got = _attend(cfg, queries, keys, np.stack([mu.weights] * 3))
        for i in range(3):
            nu = EmpiricalMeasure(PointCloud(keys[i]), mu.weights)
            kernel_oracle.assert_bitwise(got[i, 0], attention_kernel(cfg, queries[i, 0], nu))
            kernel_oracle.assert_bitwise(
                got[i, 0], kernel_oracle.attention_kernel(cfg, queries[i, 0], nu)
            )

    @pytest.mark.parametrize("potential_kind", POTENTIAL_KINDS)
    def test_zero_weight_points_in_a_batch(self, potential_kind):
        n, d = 12, 2
        rng = np.random.default_rng([POTENTIAL_KINDS.index(potential_kind), 99])
        cfg = random_attention_config(rng, d, potential_kind, "identity")
        mu = weighted_cloud(rng, n, d)
        assert np.any(mu.weights == 0)
        clouds = np.stack([mu.support.points, rng.normal(size=(n, d)), rng.normal(size=(n, d))])
        got = _attend(cfg, clouds, clouds, np.stack([mu.weights] * 3))
        for i in range(3):
            nu = EmpiricalMeasure(PointCloud(clouds[i]), mu.weights)
            kernel_oracle.assert_bitwise(got[i], attention_pushforward(cfg, nu).support.points)
            kernel_oracle.assert_bitwise(got[i], kernel_oracle.attention_pushforward(cfg, nu))

    def test_non_finite_input_raises_invalid_input(self):
        cfg = AttentionConfig(Gaussian(2), IdentityLookup(2))
        clouds = np.zeros((3, 4, 2))
        clouds[2, 1, 0] = np.nan
        with pytest.raises(InvalidInput):
            layer_map(cfg, clouds)
        mu = empirical(np.zeros((4, 2)))
        for q in ([np.inf, 0.0], [0.0, np.nan]):
            with pytest.raises(InvalidInput):
                attention_kernel(cfg, q, mu)
            with pytest.raises(InvalidInput):
                softmatch_weights(cfg.potential, q, mu)

    def test_overflowing_similarity_raises_invalid_input(self):
        cfg = AttentionConfig(DotProduct(1e300, 1), IdentityLookup(1))
        clouds = np.array([[[1.0], [2.0]], [[1e10], [2e10]]])
        with pytest.raises(InvalidInput):
            layer_map(cfg, clouds)
        with pytest.raises(InvalidInput):
            self_attention(cfg, PointCloud(clouds[1]))
        with pytest.raises(InvalidInput):
            softmatch_weights(cfg.potential, [1e10], empirical(clouds[1]))

    def test_overflowing_output_raises_invalid_input(self):
        mh = MultiHeadConfig([Head(AttentionConfig(Gaussian(1), IdentityLookup(1)), np.eye(1))])
        ffn = FfnConfig([(np.array([[1e308]]), np.zeros(1))])
        cloud = PointCloud([[10.0], [10.0]])
        with pytest.raises(InvalidInput):
            transformer_layer(mh, ffn, cloud)
        with pytest.raises(InvalidInput):
            layer_map(TransformerLayerSpec(mh, ffn), np.stack([cloud.points] * 2))
        # an overflowing multi-head output raises even where tanh would
        # map it back to a finite FFN output
        wide = MultiHeadConfig([Head(AttentionConfig(Gaussian(1), IdentityLookup(1)), [[1e308]])])
        squash = FfnConfig([(np.eye(1), np.zeros(1)), (np.eye(1), np.zeros(1))], "tanh")
        with pytest.raises(InvalidInput):
            transformer_layer(wide, squash, cloud)
        with pytest.raises(InvalidInput):
            layer_map(TransformerLayerSpec(wide, squash), np.stack([cloud.points] * 2))

    def test_bad_shapes_and_layers_rejected(self):
        cfg = AttentionConfig(Gaussian(2), IdentityLookup(2))
        with pytest.raises(InvalidInput):
            layer_map(cfg, np.zeros((4, 2)))
        with pytest.raises(InvalidInput):
            layer_map(cfg, np.zeros((0, 4, 2)))
        with pytest.raises(DimMismatch):
            layer_map(cfg, np.zeros((1, 4, 3)))
        with pytest.raises(InvalidInput):
            layer_map(object(), np.zeros((1, 4, 2)))
