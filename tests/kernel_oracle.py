"""The attention engine as softmatch computed it before the keys-major
weights: the per-point Python loops of `_ordered_sum`, `_softmatch_rows`
and `_attend`, kept unchanged as a bitwise parity oracle, plus the public
functions composed from them as they were, and the bitwise comparison.
Also the inversion's Lipschitz gate as it ran before batching: one layer
call per cloud, trial by trial. And `reference_attention`, the textbook
formula for one query, with no measure machinery."""

from __future__ import annotations

import numpy as np

from softmatch.dynamics import cloud_distance
from softmatch.errors import DimMismatch, InvalidInput
from softmatch.kernels import AttentionConfig, apply_lookup, layer_map
from softmatch.measures import EmpiricalMeasure, PointCloud, _ordered_matmul, canonical_order, empirical
from softmatch.potentials import Potential
from softmatch.streams import stream


class KeyValueMismatch(ValueError):
    """Key and value collections have different lengths."""


def _ordered_sum(rows: np.ndarray) -> np.ndarray:
    # strict left-to-right accumulation; rows are already canonically ordered
    acc = rows[0].copy()
    for i in range(1, rows.shape[0]):
        acc += rows[i]
    return acc


def _softmatch_rows(
    potential: Potential, queries: np.ndarray, nu: EmpiricalMeasure
) -> tuple[np.ndarray, np.ndarray]:
    """Softmatch weights of nu for every query row, shape (Q, N), and the
    canonical order of nu's positive-weight points they were summed in.

    Exponentials are shifted by each row's max similarity over the
    positive-weight points and taken only there, so nothing overflows and
    a point of weight zero keeps weight zero.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if not np.all(np.isfinite(queries)):
        raise InvalidInput("query must be finite")
    if queries.shape[1:] != (nu.dim,):
        raise DimMismatch(f"query shape {queries.shape[1:]} vs measure dim {nu.dim}")
    logits = potential.similarity_matrix(queries, nu.support.points)
    if not np.all(np.isfinite(logits)):
        raise InvalidInput("similarity produced non-finite values")
    order = canonical_order(nu.support.points, nu.weights)
    order = order[nu.weights[order] > 0]
    num = logits[:, order]
    num -= num.max(axis=1, keepdims=True)
    np.exp(num, out=num)
    num *= nu.weights[order]
    num /= _ordered_sum(num.T)[:, None]
    weights = np.zeros_like(logits)
    weights[:, order] = num
    return weights, order


def _attend(
    cfg: AttentionConfig, queries: np.ndarray, mu: EmpiricalMeasure
) -> np.ndarray:
    """barycenter(lookup(softmatch(mu, q))) for every query row q; shape
    (Q, d_out). The value sum runs in the order the weights were
    normalized in."""
    weights, order = _softmatch_rows(cfg.potential, queries, mu)
    values = apply_lookup(cfg.lookup, mu).support.points
    out = np.zeros((weights.shape[0], values.shape[1]))
    for i in order:
        out += weights[:, i, None] * values[i]
    return out


def softmatch_weights(potential, q, nu):
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    return _softmatch_rows(potential, q[None, :], nu)[0][0]


def attention_kernel(cfg, q, mu):
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    return _attend(cfg, q[None, :], mu)[0]


def attention_pushforward(cfg, mu) -> np.ndarray:
    """The output support points; the weights are mu's."""
    return _attend(cfg, mu.support.points, mu)


def multi_head(cfg, cloud) -> np.ndarray:
    mu = empirical(cloud)
    per_head = [
        _ordered_matmul(_attend(h.attention, cloud.points, mu), h.w_o)
        for h in cfg.heads
    ]
    return _ordered_sum(np.stack(per_head))


def transformer_layer(mh, ffn, cloud) -> np.ndarray:
    return ffn.apply_points(multi_head(mh, cloud))


def barycenter(mu) -> np.ndarray:
    order = canonical_order(mu.support.points, mu.weights)
    rows = mu.weights[order, None] * mu.support.points[order]
    return _ordered_sum(rows)


def assert_bitwise(got, want):
    # tobytes also tells -0.0 from 0.0, which assert_array_equal does not
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes(), np.abs(got - want).max()


def sampled_set_lipschitz(layer, reference, trials=16, seed=0) -> float:
    scale = 0.5
    best = 0.0
    shape = reference.points.shape
    for t in range(trials):
        rng = stream(seed, t)
        a = reference.points + scale * rng.standard_normal(shape)
        mode = t % 3
        if mode == 0:
            b = reference.points + scale * rng.standard_normal(shape)
        elif mode == 1:
            b = a + scale * rng.standard_normal(shape[1])[None, :]
        else:
            b = a.copy()
            b[int(rng.integers(shape[0]))] += scale * rng.standard_normal(shape[1])
        den = cloud_distance(a, b)
        if den < 1e-12:
            continue
        ga = layer_map(layer, a[None])[0]
        gb = layer_map(layer, b[None])[0]
        best = max(best, cloud_distance(ga, gb) / den)
    return best


def reference_attention(
    a: Potential, q, keys: PointCloud, values: PointCloud
) -> np.ndarray:
    """The textbook formula sum_i softmax(a(q, k_.))_i v_i.

    Direct exponentials with a max shift; no measure machinery.
    """
    if keys.n != values.n:
        raise KeyValueMismatch(f"{keys.n} keys vs {values.n} values")
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    logits = np.array([a.similarity(q, k) for k in keys.points])
    e = np.exp(logits - logits.max())
    p = e / e.sum()
    return p @ values.points
