"""Attention as measure transport: softmatch, lookup, projection, and the
composed attention / multi-head / feed-forward kernels.

The pipeline view of one attention evaluation at query q against measure mu:

    reweight mu by G(q, .), normalized        (softmatch, the measure softmax)
    push the support through the lookup map   (key -> value correspondence)
    project to the Dirac at the barycenter    (value averaging)

`_attend` runs this map for a batch of B measures of one shape at once,
each with its own query rows, and every attention function here calls it:
the measure functions (`softmatch_weights`, `attention_kernel`,
`attention_pushforward`) with B = 1, and `layer_map`, the set-to-set map
of a single-head, multi-head or transformer layer on (B, N, d) clouds,
with any B, or on a list of clouds of mixed sizes in chunks padded to
one shape each.
`self_attention`, `multi_head` and `transformer_layer` are its B = 1 case.

Per batch, `np.lexsort` along the last axis puts each cloud's
positive-weight keys in canonical order, and the potential builds the
similarities directly in keys-major layout from those sorted keys: an
(n', B, Q) buffer with one row per key, the same elementwise operations
in the same operand order as its matrix form (q - k for the Gaussian,
q_c k_c accumulated over c in order for the dot products), so no (Q, N)
matrix is transposed and gathered. Exponentials are shifted by each
query's max, and the softmatch normalizer and the value sums are each one
`measures._ordered_sum` along axis 0 of a C-contiguous (n', B * Q) view:
numpy adds the rows one after another, vectorised across clouds and
queries, which is the canonical left-to-right order of each column. The
lookup maps the sorted keys row by row, and products over support points
(similarities, lookups, W_O, the FFN) accumulate their shared index in
order.

So no bit depends on the batch: an output row depends only on its query
and its own cloud, in any batch and any chunk of it, and jointly
permuting a cloud permutes its output bit for bit. A single query
(B = Q = 1) gets the same bits as in a batch, although its (n', 1) weights
make axis 0 the fast axis, which numpy would sum pairwise:
`_ordered_sum` accumulates that shape instead. `layer_map` splits a batch
so that its (N, B, N) buffers hold about as many entries as one 256-point
similarity matrix; a cloud of 256 points or more runs alone.

The matrix-form `reference_*` functions compute the familiar formula
directly with max-shifted exponentials, independent of the pipeline code;
`softmatch equiv` compares the two.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimMismatch, InvalidInput
from .measures import (
    EmpiricalMeasure,
    PointCloud,
    _ordered_matmul,
    _ordered_sum,
    _padded,
    canonical_order,
)
from .potentials import Potential


def induced_l1_norm(w: np.ndarray) -> float:
    """Operator norm of x -> W x between l1 spaces: max column abs sum."""
    w = np.asarray(w, dtype=np.float64)
    return float(np.abs(w).sum(axis=0).max())


# ---------------------------------------------------------------------------
# Lookup kernels (deterministic key -> value maps)
# ---------------------------------------------------------------------------

class Lookup:
    """Deterministic lookup map ell; the kernel is the Dirac at ell(k)."""

    in_dim: int
    out_dim: int

    def apply_points(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def lip(self) -> float:
        """l1 Lipschitz constant of ell (exact for identity and linear)."""
        raise NotImplementedError


@dataclass(frozen=True)
class IdentityLookup(Lookup):
    dim: int

    @property
    def in_dim(self):
        return self.dim

    @property
    def out_dim(self):
        return self.dim

    def apply_points(self, pts):
        return np.asarray(pts, dtype=np.float64)

    def lip(self):
        return 1.0


@dataclass(frozen=True, eq=False)
class LinearLookup(Lookup):
    """ell(k) = W_V k with W_V of shape (d_v, d_k)."""

    w_v: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w_v, dtype=np.float64)
        if w.ndim != 2:
            raise DimMismatch(f"W_V must be a matrix, got shape {w.shape}")
        object.__setattr__(self, "w_v", w)

    @property
    def in_dim(self):
        return self.w_v.shape[1]

    @property
    def out_dim(self):
        return self.w_v.shape[0]

    def apply_points(self, pts):
        return _ordered_matmul(np.asarray(pts, dtype=np.float64), self.w_v.T)

    def lip(self):
        return induced_l1_norm(self.w_v)


@dataclass(frozen=True)
class FunctionLookup(Lookup):
    """Arbitrary deterministic lookup; lip_ell is user-supplied.

    fn maps all points at once: an (n, in_dim) array to its (n, out_dim)
    values, row i the value of point i.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    in_dim: int
    out_dim: int
    lip_ell: float | None = None

    def apply_points(self, pts):
        pts = np.asarray(pts, dtype=np.float64)
        out = np.asarray(self.fn(pts), dtype=np.float64)
        if out.shape != (pts.shape[0], self.out_dim):
            raise DimMismatch(
                f"lookup fn produced shape {out.shape}, expected (*, {self.out_dim})"
            )
        return out

    def lip(self):
        if self.lip_ell is None:
            raise InvalidInput("FunctionLookup has no stored Lipschitz constant")
        return float(self.lip_ell)


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AttentionConfig:
    """One attention head: an interaction potential plus a lookup."""

    potential: Potential
    lookup: Lookup

    def __post_init__(self):
        if self.potential.dim != self.lookup.in_dim:
            raise DimMismatch(
                f"potential dim {self.potential.dim} != lookup input dim "
                f"{self.lookup.in_dim}"
            )

    @property
    def dim(self) -> int:
        return self.potential.dim

    @property
    def out_dim(self) -> int:
        return self.lookup.out_dim


@dataclass(frozen=True, eq=False)
class Head:
    """An attention head with its output projection W_O of shape (d_h, d)."""

    attention: AttentionConfig
    w_o: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w_o, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != self.attention.out_dim:
            raise DimMismatch(
                f"W_O shape {w.shape} does not accept head output dim "
                f"{self.attention.out_dim}"
            )
        object.__setattr__(self, "w_o", w)


@dataclass(frozen=True, eq=False)
class MultiHeadConfig:
    heads: tuple

    def __init__(self, heads):
        heads = tuple(heads)
        if not heads:
            raise InvalidInput("need at least one head")
        d = heads[0].attention.dim
        d_out = heads[0].w_o.shape[1]
        for h in heads:
            if h.attention.dim != d or h.w_o.shape[1] != d_out:
                raise DimMismatch("all heads must share input and output dims")
        if d != d_out:
            raise DimMismatch(
                f"multi-head input dim {d} must equal output dim {d_out}"
            )
        object.__setattr__(self, "heads", heads)

    @property
    def n_heads(self) -> int:
        return len(self.heads)

    @property
    def dim(self) -> int:
        return self.heads[0].attention.dim


_ACTIVATIONS = {
    "identity": lambda h: h,
    "relu": lambda h: np.maximum(h, 0.0),
    "tanh": np.tanh,
}


@dataclass(frozen=True, eq=False)
class FfnConfig:
    """Feed-forward map f: R^d -> R^d, affine layers with an elementwise
    nonlinearity between them (none after the last layer)."""

    layers: tuple
    activation: str = "identity"

    def __init__(self, layers, activation="identity"):
        if activation not in _ACTIVATIONS:
            raise InvalidInput(f"unknown activation {activation!r}")
        norm = []
        for w, b in layers:
            w = np.asarray(w, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64).reshape(-1)
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise DimMismatch(f"bad affine layer shapes {w.shape}, {b.shape}")
            norm.append((w, b))
        if not norm:
            raise InvalidInput("need at least one affine layer")
        for (w1, _), (w2, _) in zip(norm, norm[1:]):
            if w2.shape[1] != w1.shape[0]:
                raise DimMismatch("consecutive layers do not compose")
        if norm[0][0].shape[1] != norm[-1][0].shape[0]:
            raise DimMismatch("FFN must map R^d to R^d")
        object.__setattr__(self, "layers", tuple(norm))
        object.__setattr__(self, "activation", activation)

    @property
    def dim(self) -> int:
        return self.layers[0][0].shape[1]

    def apply_points(self, pts: np.ndarray) -> np.ndarray:
        h = np.asarray(pts, dtype=np.float64)
        act = _ACTIVATIONS[self.activation]
        for i, (w, b) in enumerate(self.layers):
            h = _ordered_matmul(h, w.T) + b
            if i < len(self.layers) - 1:
                h = act(h)
        return h

    def lip(self) -> float:
        """Upper bound: product of per-layer induced l1 norms (the
        nonlinearities are 1-Lipschitz)."""
        out = 1.0
        for w, _ in self.layers:
            out *= induced_l1_norm(w)
        return out


@dataclass(frozen=True, eq=False)
class TransformerLayerSpec:
    """A full layer: multi-head attention followed by a pointwise FFN."""

    mh: MultiHeadConfig
    ffn: FfnConfig

    def __post_init__(self):
        if self.ffn.dim != self.mh.dim:
            raise DimMismatch(f"FFN dim {self.ffn.dim} vs attention dim {self.mh.dim}")

    @property
    def dim(self) -> int:
        return self.mh.dim


Layer = AttentionConfig | MultiHeadConfig | TransformerLayerSpec


# ---------------------------------------------------------------------------
# Softmatch
# ---------------------------------------------------------------------------

def _require_finite(values: np.ndarray, message: str) -> None:
    if not np.isfinite(values).all():
        raise InvalidInput(message)


# Overflow in the similarities, W_O products or FFN surfaces as a
# non-finite value that `_require_finite` turns into InvalidInput, so numpy
# need not warn about it first.
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


def _softmatch_rows(
    potential: Potential, queries: np.ndarray, keys: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Softmatch weights of B measures of one shape, each for its own
    query rows, stored keys-major; with the canonical order and the keys
    it sorts.

    queries has shape (B, Q, d), keys (B, N, d) and weights (B, N): cloud
    b is the measure with weights[b] on keys[b]. Returns (w, order,
    sorted_keys): order (B, n) lists each cloud's points in canonical
    order, sorted_keys (n, B, d) holds them in that order, and w
    (n, B, Q) is C-contiguous with row j of cloud b belonging to the
    point order[b, j]. Every sum over points is then one `_ordered_sum`
    along axis 0, in canonical order. Exponentials are shifted by each
    query's max similarity over the positive-weight points and taken only
    there, so nothing overflows. Points of weight zero have no row when
    every cloud has equally many positive weights, n' (n = n'). Otherwise
    every point keeps its row (n = N); once the positive-weight rows are
    checked finite, the others get similarity -inf, and so exact zero
    weights, which leave the max and every sum as the cloud alone has it.
    """
    _require_finite(queries, "query must be finite")
    if queries.shape[-1] != keys.shape[-1]:
        raise DimMismatch(
            f"query shape {queries.shape[-1:]} vs measure dim {keys.shape[-1]}"
        )
    order = canonical_order(keys, weights)
    clouds = np.arange(len(order))[:, None]
    mass = weights[clouds, order]
    live = None  # (N, B): the positive-weight rows, where every row stays
    if np.count_nonzero(mass) < mass.size:
        keep = mass > 0
        if len(order) > 1 and np.ptp(np.count_nonzero(keep, axis=1)):
            live = keep.T
        else:
            order = order[keep].reshape(len(order), -1)
            mass = mass[keep].reshape(order.shape)
    sorted_keys = keys[clouds.T, order.T]
    w = potential.similarity_keys_major(queries, sorted_keys)
    # a kept zero-weight row may be non-finite: then only the others count
    if not np.isfinite(w).all() and (live is None or not np.isfinite(w[live]).all()):
        raise InvalidInput("similarity produced non-finite values")
    if live is not None:
        w[~live] = -np.inf
    w -= w.max(axis=0)
    np.exp(w, out=w)
    w *= mass.T[..., None]
    n = w.shape[0]
    w /= _ordered_sum(w.reshape(n, -1)).reshape(w.shape[1:])
    return w, order, sorted_keys


def softmatch_weights(
    potential: Potential, q: np.ndarray, nu: EmpiricalMeasure
) -> np.ndarray:
    """Boltzmann-Gibbs weights nu_i G(q, k_i) / sum_j nu_j G(q, k_j).

    Exponentials are shifted by the max similarity over the points of
    positive weight and taken only at those points, so the computation
    never overflows. The normalizer is accumulated in canonical support
    order, which keeps the weights exactly invariant under joint
    permutations of nu.
    """
    q = np.asarray(q, dtype=np.float64).reshape(1, -1)
    return _softmatch_weights_rows(potential, q, nu.support.points[None], nu.weights[None])[0]


@_quiet_overflow
def _softmatch_weights_rows(
    potential: Potential, queries: np.ndarray, points: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """`softmatch_weights` of B measures of one shape, each for its own
    query: queries (B, d), points (B, N, d) and weights (B, N), with any
    counts of positive weights. Returns the (B, N) weights, row b with the
    bits, and the error, of a call on measure b alone."""
    w, order, _ = _softmatch_rows(potential, queries[:, None, :], points, weights)
    out = np.zeros(weights.shape)
    out[np.arange(len(order))[:, None], order] = w[:, :, 0].T
    return out


def softmatch_measure(
    potential: Potential, q: np.ndarray, nu: EmpiricalMeasure
) -> EmpiricalMeasure:
    """The softmatch output: same support as nu, reweighted by G(q, .)."""
    return EmpiricalMeasure(nu.support, softmatch_weights(potential, q, nu))


def apply_lookup(lookup: Lookup, mu: EmpiricalMeasure) -> EmpiricalMeasure:
    """Pushforward of mu through the lookup map; weights unchanged."""
    if lookup.in_dim != mu.dim:
        raise DimMismatch(
            f"lookup input dim {lookup.in_dim} vs measure dim {mu.dim}"
        )
    return EmpiricalMeasure(PointCloud(lookup.apply_points(mu.support.points)), mu.weights)


# ---------------------------------------------------------------------------
# Attention kernels
# ---------------------------------------------------------------------------

def _attend(
    cfg: AttentionConfig, queries: np.ndarray, keys: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """barycenter(lookup(softmatch(mu_b, q))) for every query row q of
    every cloud b, where mu_b puts weights[b] on keys[b]; queries
    (B, Q, d), keys (B, N, d) and weights (B, N) give shape (B, Q, d_out).

    The lookup maps the sorted keys row by row. Output coordinate c is the
    keys-major product w * values[..., c] summed along axis 0, in the
    order the weights were normalized in; one product buffer serves every
    coordinate. Each sum is added to a zero output, so a sum of only -0.0
    terms gives +0.0, the bits of an accumulation started from zero, and
    a kept zero-weight row's zero terms change no bit. The caller enters
    `_quiet_overflow`."""
    w, _, sorted_keys = _softmatch_rows(cfg.potential, queries, keys, weights)
    if cfg.lookup.in_dim != keys.shape[-1]:
        raise DimMismatch(
            f"lookup input dim {cfg.lookup.in_dim} vs measure dim {keys.shape[-1]}"
        )
    n, b, q = w.shape
    values = cfg.lookup.apply_points(sorted_keys.reshape(n * b, -1)).reshape(n, b, -1)
    out = np.zeros((b, q, values.shape[-1]))
    term = np.empty_like(w)
    for c in range(values.shape[-1]):
        np.multiply(w, values[..., c, None], out=term)
        out[..., c] += _ordered_sum(term.reshape(n, -1)).reshape(b, q)
    return out


@_quiet_overflow
def attention_kernel(
    cfg: AttentionConfig, q: np.ndarray, mu: EmpiricalMeasure
) -> np.ndarray:
    """Location of the output Dirac: barycenter(lookup(softmatch(mu, q)))."""
    q = np.asarray(q, dtype=np.float64).reshape(1, 1, -1)
    out = _attend(cfg, q, mu.support.points[None], mu.weights[None])[0, 0]
    _require_finite(out, "attention output must be finite")
    return out


@_quiet_overflow
def attention_pushforward(
    cfg: AttentionConfig, mu: EmpiricalMeasure
) -> EmpiricalMeasure:
    """The full output measure of self-attention: every support point of mu
    is mapped through the attention kernel (interacting with mu itself),
    keeping its weight."""
    pts = mu.support.points[None]
    return EmpiricalMeasure(PointCloud(_attend(cfg, pts, pts, mu.weights[None])[0]), mu.weights)


def _multi_head(cfg: MultiHeadConfig, clouds: np.ndarray, weights: np.ndarray) -> np.ndarray:
    per_head = [
        _ordered_matmul(_attend(h.attention, clouds, clouds, weights), h.w_o)
        for h in cfg.heads
    ]
    return _ordered_sum(np.stack(per_head))


# A batch of clouds is evaluated in chunks whose (N, B, N) buffers hold
# about as many entries as one 256-point similarity matrix; clouds of 256
# points or more run one at a time.
_CHUNK_ENTRIES = 256 * 256


def _chunk_size(n: int) -> int:
    """Clouds of n points per chunk of a batch."""
    return max(1, _CHUNK_ENTRIES // (n * n))


# Padding a cloud to its chunk's largest cloud may add at most this many
# buffer entries: a padded entry costs what a real one does, and most of a
# block's clouds share a size with another, so a join saves less than a
# kernel call (256 and 512 measured faster than 1024 and 4096 on 128
# clouds of 2 to 32-256 points). Clouds of up to 22 points always join.
_PAD_ENTRIES = 512


def _size_chunks(entries: list) -> list:
    """Chunks of a list of clouds of mixed sizes, as lists of indices:
    entries[b] is cloud b's buffer entries, and each chunk is padded to
    its first, largest cloud. Clouds are taken largest first, and one
    joins the open chunk while the chunk stays within `_CHUNK_ENTRIES`
    and its padding adds at most `_PAD_ENTRIES`."""
    chunks = []
    for i in sorted(range(len(entries)), key=entries.__getitem__, reverse=True):
        if chunks and (len(chunks[-1]) + 1) * top <= _CHUNK_ENTRIES and top - entries[i] <= _PAD_ENTRIES:
            chunks[-1].append(i)
        else:
            chunks.append([i])
            top = entries[i]
    return chunks


@_quiet_overflow
def _layer_chunk(layer: Layer, clouds: np.ndarray, weights: np.ndarray) -> np.ndarray:
    if isinstance(layer, AttentionConfig):
        out = _attend(layer, clouds, clouds, weights)
    elif isinstance(layer, MultiHeadConfig):
        out = _multi_head(layer, clouds, weights)
    else:
        out = _multi_head(layer.mh, clouds, weights)
        _require_finite(out, "multi-head output must be finite")
        out = layer.ffn.apply_points(out)
    _require_finite(out, "layer output must be finite")
    return out


def layer_map(layer: Layer, clouds: np.ndarray | list) -> np.ndarray | list:
    """The set-to-set map of one layer on B clouds at once, each attending
    over m(X) of itself: (B, N, d) -> (B, N, d_out), or a list of (n_b, d)
    clouds of any sizes to the list of their (n_b, d_out) images.

    A single head is self-attention, a `MultiHeadConfig` sums its heads'
    W_O products in head order, and a `TransformerLayerSpec` applies its
    FFN pointwise to that sum. Every cloud gets the bits of a call on it
    alone, whatever the batch: all sums over points and heads run along
    axis 0 of keys-major buffers, vectorised across clouds and queries,
    and the batch is split into chunks of `_CHUNK_ENTRIES` buffer entries,
    one kernel call each. A list is split by `_size_chunks`, and each
    chunk is padded to its largest cloud with copies of each cloud's last
    point at weight 0, whose rows are then dropped.
    Non-finite input, similarities or outputs raise InvalidInput.
    """
    if not isinstance(layer, Layer):
        raise InvalidInput(f"not a layer: {layer!r}")
    if isinstance(clouds, list):
        if not clouds or any(np.ndim(c) != 2 or not len(c) for c in clouds):
            raise InvalidInput("a list of clouds must hold (n, d) arrays with n >= 1")
        if any(np.shape(c)[1] != layer.dim for c in clouds):
            raise DimMismatch(f"layer dim {layer.dim} vs cloud dims {[np.shape(c)[1] for c in clouds]}")
        sizes = [len(c) for c in clouds]
        out = [None] * len(clouds)
        for idx in _size_chunks([n * n for n in sizes]):
            k = np.array([sizes[i] for i in idx])
            weights = np.where(np.arange(k[0]) < k[:, None], 1.0 / k[:, None], 0.0)
            chunk = np.asarray(_padded([clouds[i] for i in idx], k), dtype=np.float64)
            for i, n, mapped in zip(idx, k.tolist(), _layer_chunk(layer, chunk, weights)):
                out[i] = mapped[:n]
        return out
    clouds = np.asarray(clouds, dtype=np.float64)
    if clouds.ndim != 3 or 0 in clouds.shape[:2]:
        raise InvalidInput(f"clouds must have shape (B, N, d), got {clouds.shape}")
    if clouds.shape[-1] != layer.dim:
        raise DimMismatch(f"layer dim {layer.dim} vs cloud dim {clouds.shape[-1]}")
    b, n = clouds.shape[:2]
    weights = np.full((b, n), 1.0 / n)  # m(X), as `empirical` builds it
    size = _chunk_size(n)
    outs = [_layer_chunk(layer, clouds[s : s + size], weights[s : s + size]) for s in range(0, b, size)]
    return outs[0] if len(outs) == 1 else np.concatenate(outs)


def self_attention(cfg: AttentionConfig, cloud: PointCloud) -> PointCloud:
    """Apply the attention kernel with mu = m(X) to every point of X."""
    return PointCloud(layer_map(cfg, cloud.points[None])[0])


def multi_head(cfg: MultiHeadConfig, cloud: PointCloud) -> PointCloud:
    """Multi-head attention sum_h Attention_h(X) W_O_h, the concat-matmul
    identity.

    Every head attends over the whole cloud in one batched call against
    mu = m(X), and the head outputs are summed in configured head order.
    W_O products accumulate in index order, like every product over
    points, so the result is exactly permutation equivariant.
    """
    return PointCloud(layer_map(cfg, cloud.points[None])[0])


def transformer_layer(
    mh: MultiHeadConfig, ffn: FfnConfig, cloud: PointCloud
) -> PointCloud:
    """FFN applied pointwise to the multi-head output."""
    return PointCloud(layer_map(TransformerLayerSpec(mh, ffn), cloud.points[None])[0])


# ---------------------------------------------------------------------------
# Reference (matrix form) layers, independent of the measure pipeline
# ---------------------------------------------------------------------------

def reference_self_attention(cfg: AttentionConfig, cloud: PointCloud) -> np.ndarray:
    """Row-wise matrix attention with values = lookup(X); shape (N, d_out)."""
    logits = cfg.potential.similarity_matrix(cloud.points, cloud.points)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    return p @ cfg.lookup.apply_points(cloud.points)


def reference_multi_head(cfg: MultiHeadConfig, cloud: PointCloud) -> np.ndarray:
    """Concat-and-matmul multi-head attention, computed head by head in
    matrix form: sum_h SelfAttention_h(X) W_O_h."""
    out = np.zeros((cloud.n, cfg.heads[0].w_o.shape[1]))
    for h in cfg.heads:
        out = out + reference_self_attention(h.attention, cloud) @ h.w_o
    return out


def reference_transformer_layer(
    mh: MultiHeadConfig, ffn: FfnConfig, cloud: PointCloud
) -> np.ndarray:
    return ffn.apply_points(reference_multi_head(mh, cloud))
