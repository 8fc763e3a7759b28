"""Interaction potentials G(x, y) = exp(a(x, y)) and their regularity data.

The contraction estimates consume four numbers about a potential on a
domain E: its infimum eps(G), its supremum, and Lipschitz seminorms in the
first argument (lip_left, sup over the second argument), in the second
argument (lip_right), and jointly on E x E (lip_joint). The canonical
ground metric is l1 on R^d throughout; l2-derived constants are converted
using ||u||_2 <= ||u||_1 and the conversion is recorded in the field's
provenance.

Each potential writes its similarity a(x, y) once, as one broadcasting
expression, and derives every layout of many pairs from it (`Potential`).

Analytic values are produced whenever the similarity is bilinear on a box
(corner extrema, or per-entry interval bounds past 2^8 corners) or
Gaussian (closed forms). Only custom potentials are sampled;
sampled sups are lower bounds and sampled infs are upper bounds, and the
provenance says so.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DimMismatch,
    InvalidInput,
    PotentialOverflow,
    UnboundedDomainUnsupported,
)
from .measures import DomainBox, _l1_norms, _ordered_matmul

MAX_EXP_ARG = 709.0

# sup over t >= 0 of 2 t exp(-t^2), attained at t = 1/sqrt(2): the l2 norm
# of the Gaussian potential's gradient in one argument never exceeds this,
# and since ||.||_2 <= ||.||_1 it is also a valid l1 Lipschitz constant.
GAUSSIAN_LIP = math.sqrt(2.0 / math.e)

# analytic corner enumeration is limited to 2^d <= this many corners
_MAX_CORNERS = 256

# finite-difference step of sampled seminorms, relative to the box's
# shortest side
_FD_STEP = 1e-4


def _scaled_dot(scale: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """scale * sum_c x_c y_c over the last axis of broadcastable x and y,
    the products accumulated over c in order (as `_ordered_matmul` does)."""
    out = np.multiply(x[..., 0], y[..., 0])
    term = np.empty_like(out)
    for c in range(1, x.shape[-1]):
        np.multiply(x[..., c], y[..., c], out=term)
        out += term
    out *= scale
    return out


class Potential:
    """Base interaction potential G(x, y) = exp(a(x, y)).

    A subclass writes its similarity a once, as `_pairwise(x, y)`: one
    broadcasting expression over the last axis of broadcastable x and y,
    elementwise across the leading axes. Every layout of many pairs is that
    expression on views of its arguments:

    - `similarity`, one pair;
    - `similarity_matrix`, one row per query;
    - `similarity_keys_major`, one row per key for a batch of clouds;
    - `similarity_pairs`, row i against row i.

    So a pair gets the same bits in every layout, and `evaluate` computes
    the G that attention uses.
    """

    dim: int
    kind: str = "custom"

    def _pairwise(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def similarity(self, x: np.ndarray, y: np.ndarray) -> float:
        """a(x, y) for one pair of points of dimension `dim`."""
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise DimMismatch(
                f"{self.kind} potential of dim {self.dim} got shapes {x.shape}, {y.shape}"
            )
        return float(self._pairwise(x[None], y[None])[0])

    def similarity_matrix(self, queries: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """a(q_i, k_j) for all pairs; shape (n_queries, n_keys)."""
        return self._pairwise(queries[:, None, :], keys[None, :, :])

    def similarity_keys_major(self, queries: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """a(q_i, k_j) within each of B clouds, stored keys-major: queries
        of shape (B, Q, d) and keys of shape (N, B, d) give (N, B, Q)."""
        return self._pairwise(queries[None], keys[:, :, None, :])

    def similarity_pairs(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """a(x_i, y_i) row-wise; shape (n,)."""
        return self._pairwise(xs, ys)


@dataclass(frozen=True)
class DotProduct(Potential):
    """a(x, y) = scale * <x, y>."""

    scale: float
    dim: int
    kind: str = field(default="dot_product", init=False)

    def _pairwise(self, x, y):
        return _scaled_dot(self.scale, x, y)

    @property
    def bilinear_matrix(self) -> np.ndarray:
        return self.scale * np.eye(self.dim)


@dataclass(frozen=True, eq=False)
class ScaledDotProduct(Potential):
    """a(x, y) = scale * <W_Q x, W_K y>, the learned-projection similarity."""

    w_q: np.ndarray
    w_k: np.ndarray
    scale: float
    kind: str = field(default="scaled_dot_product", init=False)

    def __post_init__(self):
        wq = np.asarray(self.w_q, dtype=np.float64)
        wk = np.asarray(self.w_k, dtype=np.float64)
        if wq.ndim != 2 or wk.ndim != 2 or wq.shape != wk.shape:
            raise DimMismatch(
                f"W_Q and W_K must be matrices of one shape, got {wq.shape}, {wk.shape}"
            )
        object.__setattr__(self, "w_q", wq)
        object.__setattr__(self, "w_k", wk)

    @property
    def dim(self) -> int:
        return self.w_q.shape[1]

    def _pairwise(self, x, y):
        q = _ordered_matmul(x, self.w_q.T)
        k = _ordered_matmul(y, self.w_k.T)
        return _scaled_dot(self.scale, q, k)

    @property
    def bilinear_matrix(self) -> np.ndarray:
        return self.scale * (self.w_q.T @ self.w_k)


@dataclass(frozen=True)
class Gaussian(Potential):
    """a(x, y) = -||x - y||_2^2, so G(x, y) = exp(-||x - y||_2^2) exactly."""

    dim: int
    kind: str = field(default="gaussian", init=False)

    @staticmethod
    def _pairwise(x, y):
        # one coordinate at a time into two preallocated buffers, so no
        # (n_queries, n_keys, dim) temporary and no allocation per coordinate
        sq = np.subtract(x[..., 0], y[..., 0])
        sq *= sq
        diff = np.empty_like(sq)
        for c in range(1, x.shape[-1]):
            np.subtract(x[..., c], y[..., c], out=diff)
            diff *= diff
            sq += diff
        np.negative(sq, out=sq)
        return sq


@dataclass(frozen=True)
class CustomPotential(Potential):
    """A user-supplied similarity: fn(x, y) is a(x, y) broadcast over the
    last axis of x and y, one value per pair, like `_pairwise`; for
    example `-np.abs(x - y).sum(axis=-1)`. A function of one pair can be
    wrapped with `np.vectorize(fn, signature="(d),(d)->()")`. An output of
    any other shape than the pairs' raises InvalidInput.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dim: int
    kind: str = field(default="custom", init=False)

    def _pairwise(self, x, y):
        # a copy: attention works in place on the similarities, and fn may
        # return a view of its own data, or a read-only one
        out = np.array(self.fn(x, y), dtype=np.float64)
        pairs = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
        if out.shape != pairs:
            raise InvalidInput(
                f"custom similarity gave shape {out.shape} for pairs of shape {pairs}; "
                "fn must broadcast over the last axis"
            )
        return out


def evaluate(potential: Potential, x, y) -> float:
    """G(x, y) = exp(a(x, y)); always strictly positive.

    Raises PotentialOverflow when the similarity exceeds the float64 exp
    range (a > 709). The softmatch kernel never hits this because it shifts
    by the max similarity; the raw primitive reports the overflow honestly.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InvalidInput("potential arguments must be finite")
    a = potential.similarity(x, y)
    if not math.isfinite(a):
        raise InvalidInput(f"similarity returned non-finite value {a!r}")
    if a > MAX_EXP_ARG:
        raise PotentialOverflow(a, x, y)
    return math.exp(a)


# ---------------------------------------------------------------------------
# Regularity statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Provenance:
    """How a statistic was obtained.

    kind is "analytic" or "sampled". Sampled sups are lower bounds of the
    true value and sampled infs are upper bounds; analytic seminorms may be
    conservative upper bounds, in which case the note says so.
    """

    kind: str
    n_samples: int | None = None
    seed: int | None = None
    note: str | None = None

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.n_samples is not None:
            d["n_samples"] = self.n_samples
        if self.seed is not None:
            d["seed"] = self.seed
        if self.note is not None:
            d["note"] = self.note
        return d


@dataclass(frozen=True)
class SamplingConfig:
    """Latin-hypercube pair sampling plus coordinate finite differences."""

    n_pairs: int = 100_000
    seed: int = 0


@dataclass(frozen=True, eq=False)
class RegularityStats:
    """eps(G), sup(G) and the three Lipschitz seminorms of G on E x E."""

    eps_g: float
    sup_g: float
    lip_left: float
    lip_right: float
    lip_joint: float
    provenance: dict

    def __post_init__(self):
        if self.eps_g < 0 or self.sup_g < 0:
            raise InvalidInput("potential bounds must be nonnegative")
        if self.eps_g > self.sup_g + 1e-12:
            raise InvalidInput("eps(G) cannot exceed sup(G)")
        for name in ("lip_left", "lip_right", "lip_joint"):
            if getattr(self, name) < 0:
                raise InvalidInput(f"{name} must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "eps_g": self.eps_g,
            "sup_g": self.sup_g,
            "lip_left": self.lip_left,
            "lip_right": self.lip_right,
            "lip_joint": self.lip_joint,
            "provenance": {k: v.to_dict() for k, v in self.provenance.items()},
        }


@np.errstate(over="ignore", invalid="ignore")
def _bilinear_extrema(m: np.ndarray, box: DomainBox) -> tuple[float, float, bool]:
    """Min and max of x^T M y over box x box, and whether they are exact.

    For fixed x the form is linear in y and vice versa, so both extrema are
    attained at corner pairs. Diagonal M separates per coordinate (O(d));
    otherwise all corner pairs are enumerated when 2^d <= _MAX_CORNERS.
    Beyond that each term M_ij x_i y_j is bounded on its own over
    [lo_i, hi_i] x [lo_j, hi_j]: the sums of the termwise extrema enclose
    the true ones (conservative, not exact); a zero entry contributes
    exactly 0, however wide the box. On a box too wide for the products
    an extremum is infinite, which the caller reports: where float sums
    meet inf - inf, the maximum is inf and the minimum -inf.
    """
    lo, hi = box.lower, box.upper
    d = lo.shape[0]
    off_diag = m - np.diag(np.diag(m))
    if not np.any(off_diag):
        diag = np.diag(m)
        cand = np.stack(
            [diag * lo * lo, diag * lo * hi, diag * hi * lo, diag * hi * hi]
        )
        low, high, exact = cand.min(axis=0).sum(), cand.max(axis=0).sum(), True
    elif 2 ** d > _MAX_CORNERS:
        cand = np.stack([m * np.outer(a, b) for a in (lo, hi) for b in (lo, hi)])
        cand[:, m == 0] = 0.0  # not 0 * inf
        low, high, exact = cand.min(axis=0).sum(), cand.max(axis=0).sum(), False
    else:
        corners = box.corners()
        vals = corners @ m @ corners.T
        low, high, exact = vals.min(), vals.max(), True
    low = -math.inf if np.isnan(low) else float(low)
    high = math.inf if np.isnan(high) else float(high)
    return low, high, exact


def _max_linf_image(m: np.ndarray, box: DomainBox) -> float:
    """max over y in box of ||M y||_inf (convex, so attained at a corner)."""
    lo, hi = box.lower, box.upper
    # per output row: maximize |sum_j m_kj y_j| coordinate-wise
    pos = np.where(m > 0, m, 0.0)
    neg = np.where(m < 0, m, 0.0)
    upper = pos @ hi + neg @ lo
    lower = pos @ lo + neg @ hi
    return float(np.maximum(np.abs(upper), np.abs(lower)).max())


def _require_bounded(box: DomainBox, potential: Potential) -> None:
    if not box.is_bounded:
        raise UnboundedDomainUnsupported(
            f"{potential.kind} potential needs a bounded domain for regularity stats"
        )


def _latin_hypercube(n: int, dim: int, seed: int) -> np.ndarray:
    """n points of [0, 1)^dim, one in each of the n strata of every axis:
    scipy's `qmc.LatinHypercube(d=dim, seed=seed).random(n)`, bit for bit,
    as its algorithm on the same generator (a uniform offset per entry,
    then one shuffle of the strata 1..n per axis)."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(n, dim))
    strata = np.tile(np.arange(1, n + 1), (dim, 1))
    for row in strata:
        rng.shuffle(row)
    return (strata.T - u) / n


def _sampled_stats(
    potential: Potential, box: DomainBox, sampling: SamplingConfig
) -> RegularityStats:
    _require_bounded(box, potential)
    d = box.dim
    rng_seed = sampling.seed
    n = max(16, sampling.n_pairs)
    u = _latin_hypercube(n, 2 * d, rng_seed)
    span = box.upper - box.lower
    xs = box.lower + u[:, :d] * span
    ys = box.lower + u[:, d:] * span

    a_vals = potential.similarity_pairs(xs, ys)
    if np.any(a_vals > MAX_EXP_ARG):
        i = int(np.argmax(a_vals))
        raise PotentialOverflow(float(a_vals[i]), xs[i], ys[i])
    g_vals = np.exp(a_vals)
    eps_hat = float(g_vals.min())
    sup_hat = float(g_vals.max())

    # finite differences along each side of positive width, turned back
    # at the upper face (h is at most half of every such side, so they
    # stay in the box), then far-pair ratios in the l1 ground metric
    m = min(n, 4096)
    k = min(n - 1, 4096)
    h = _FD_STEP * float(span.min(where=span > 0, initial=math.inf))

    def seminorm(left: bool) -> float:
        """Sampled seminorm of G in its left (x) or right (y) argument."""
        moving, fixed = (xs, ys) if left else (ys, xs)

        def g(p, q):  # G with the moving argument at p, the fixed one at q
            a = potential.similarity_pairs(p, q) if left else potential.similarity_pairs(q, p)
            return np.exp(a)

        lip = 0.0
        for axis in np.flatnonzero(span > 0):
            moved = moving[:m].copy()
            moved[:, axis] += h
            moved[moved[:, axis] > box.upper[axis], axis] -= 2 * h
            lip = max(lip, float(np.abs(g(moved, fixed[:m]) - g_vals[:m]).max()) / h)
        dist = _l1_norms(moving[1 : k + 1], moving[:k])
        far = np.abs(g(moving[1 : k + 1], fixed[:k]) - g_vals[:k])
        return max(lip, float((far / np.where(dist > 1e-12, dist, np.inf)).max()))

    lip_l, lip_r = seminorm(True), seminorm(False)
    lip_j = max(lip_l, lip_r)
    prov_inf = Provenance("sampled", n, rng_seed, "upper bound of the true inf")
    prov_sup = Provenance("sampled", n, rng_seed, "lower bound of the true sup")
    prov_lip = Provenance("sampled", n, rng_seed, "lower bound of the true seminorm")
    return RegularityStats(
        eps_g=eps_hat,
        sup_g=sup_hat,
        lip_left=lip_l,
        lip_right=lip_r,
        lip_joint=lip_j,
        provenance={
            "eps_g": prov_inf,
            "sup_g": prov_sup,
            "lip_left": prov_lip,
            "lip_right": prov_lip,
            "lip_joint": prov_lip,
        },
    )


def regularity_stats(
    potential: Potential,
    box: DomainBox,
    sampling: SamplingConfig | None = None,
) -> RegularityStats:
    """Regularity statistics of G on box x box.

    Gaussian: all fields analytic, bounded or not (eps(G) is 0 on the
    unbounded domain). Dot-product kinds: bounded box required; extrema
    from corner enumeration (conservative per-entry interval bounds past
    2^8 corners), seminorms as conservative analytic upper bounds of the
    form sup||grad a||_inf * sup G. Custom potentials are sampled
    (flagged) with `sampling`.
    """
    if isinstance(potential, Gaussian):
        analytic = Provenance("analytic")
        conv = Provenance(
            "analytic",
            note="l2 gradient bound sqrt(2/e); valid in l1 since ||.||_2 <= ||.||_1",
        )
        if box.is_bounded:
            span = box.upper - box.lower
            # a squared side past the float range gives eps = 0, which
            # the bounds report as a degenerate potential
            with np.errstate(over="ignore"):
                eps = math.exp(-float(np.dot(span, span)))
        else:
            eps = 0.0
        return RegularityStats(
            eps_g=eps,
            sup_g=1.0,
            lip_left=GAUSSIAN_LIP,
            lip_right=GAUSSIAN_LIP,
            lip_joint=GAUSSIAN_LIP,
            provenance={
                "eps_g": analytic,
                "sup_g": analytic,
                "lip_left": conv,
                "lip_right": conv,
                "lip_joint": conv,
            },
        )

    if isinstance(potential, (DotProduct, ScaledDotProduct)):
        _require_bounded(box, potential)
        if box.dim != potential.dim:
            raise DimMismatch(
                f"box dim {box.dim} does not match potential dim {potential.dim}"
            )
        m = potential.bilinear_matrix
        a_min, a_max, exact = _bilinear_extrema(m, box)
        if not a_max <= MAX_EXP_ARG:
            raise PotentialOverflow(a_max, None, None)
        eps = math.exp(a_min)
        sup = math.exp(a_max)
        grad_x = _max_linf_image(m, box)        # sup_y ||M y||_inf
        grad_y = _max_linf_image(m.T, box)      # sup_x ||M^T x||_inf
        lip_l = grad_x * sup
        lip_r = grad_y * sup
        lip_j = max(grad_x, grad_y) * sup
        analytic = Provenance(
            "analytic",
            note="corner extrema of the bilinear form" if exact else
            "conservative: sum of per-entry interval extrema of the bilinear form",
        )
        upper = Provenance(
            "analytic", note="upper bound: sup||grad a||_inf * sup G, factorized"
        )
        return RegularityStats(
            eps_g=eps,
            sup_g=sup,
            lip_left=lip_l,
            lip_right=lip_r,
            lip_joint=lip_j,
            provenance={
                "eps_g": analytic,
                "sup_g": analytic,
                "lip_left": upper,
                "lip_right": upper,
                "lip_joint": upper,
            },
        )

    if sampling is None:
        sampling = SamplingConfig()
    return _sampled_stats(potential, box, sampling)


def query_lipschitz(potential: Potential, q: np.ndarray, box: DomainBox) -> float:
    """Analytic l1 Lipschitz seminorm of y -> G(q, y) over the box.

    Gaussian: the global constant sqrt(2/e). Dot-product kinds: the
    gradient in y is constant (M^T q), so the seminorm over the box equals
    ||M^T q||_inf * sup_y G(q, y) with the sup at a corner. q must have
    shape (dim,), and the box the potential's dimension.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (potential.dim,):
        raise DimMismatch(
            f"{potential.kind} potential of dim {potential.dim} got q of shape {q.shape}"
        )
    if box.dim is not None and box.dim != potential.dim:
        raise DimMismatch(f"box dim {box.dim} does not match potential dim {potential.dim}")
    if isinstance(potential, Gaussian):
        return GAUSSIAN_LIP
    if isinstance(potential, (DotProduct, ScaledDotProduct)):
        _require_bounded(box, potential)
        m = potential.bilinear_matrix
        grad = m.T @ q
        pos = np.where(grad > 0, grad, 0.0)
        neg = np.where(grad < 0, grad, 0.0)
        a_max = float(pos @ box.upper + neg @ box.lower)
        if a_max > MAX_EXP_ARG:
            raise PotentialOverflow(a_max, q, None)
        return float(np.abs(grad).max()) * math.exp(a_max)
    raise InvalidInput(
        f"no analytic per-query seminorm for potential kind {potential.kind!r}"
    )


def eps_on_data(potential: Potential, points: np.ndarray) -> float:
    """min over all data pairs of G; flagged data-empirical by callers."""
    pts = np.asarray(points, dtype=np.float64)
    a = potential.similarity_matrix(pts, pts)
    a_min = float(a.min())
    if a_min < -MAX_EXP_ARG:
        return 0.0
    return math.exp(a_min)


def regularity_stats_on_data(
    potential: Potential,
    points: np.ndarray,
    sampling: SamplingConfig | None = None,
) -> tuple[RegularityStats, DomainBox]:
    """Stats anchored to a data set instead of a user box.

    The domain is the data's bounding box; eps(G) is replaced by the min
    over all data pairs (never smaller than the box infimum) and flagged
    data-empirical. That minimum only estimates the box infimum from
    above, as a sampled inf does, and the theorems need a convex E, which
    a finite data set is not; so it carries the "sampled" kind, and a
    bound built from these stats is "estimated", never "ok".
    """
    pts = np.asarray(points, dtype=np.float64)
    box = DomainBox.bounding(pts)
    stats = regularity_stats(potential, box, sampling)
    eps_data = max(stats.eps_g, eps_on_data(potential, pts))
    prov = dict(stats.provenance)
    prov["eps_g"] = Provenance(
        "sampled",
        n_samples=pts.shape[0],
        note="data-empirical: min of G over all data pairs; applicability "
        "refers to the data bounding box",
    )
    data_stats = RegularityStats(
        eps_g=eps_data,
        sup_g=max(stats.sup_g, eps_data),
        lip_left=stats.lip_left,
        lip_right=stats.lip_right,
        lip_joint=stats.lip_joint,
        provenance=prov,
    )
    return data_stats, box
