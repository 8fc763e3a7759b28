"""Empirical measures on R^d and the two primitive measure maps.

A point cloud X = (x_1, ..., x_N) turns into the uniform empirical measure
m(X) placing mass 1/N on every point; attention transports such measures.
The barycenter of a weighted measure and the projection of a measure onto
the Dirac at its barycenter are the value-averaging half of attention.

Weighted sums are evaluated in a canonical order (points sorted
lexicographically, weight as final tiebreak) so that jointly permuting
(support, weights) changes nothing, bit for bit.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimMismatch, EmptySupport, InvalidInput

WEIGHT_SUM_TOL = 1e-12


def _as_points_array(points) -> np.ndarray:
    try:
        pts = np.asarray(points, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise InvalidInput(f"points must be a rectangular array of numbers: {e}") from None
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2:
        raise InvalidInput(f"points must be a 2-d array, got shape {pts.shape}")
    return pts


@dataclass(frozen=True, eq=False)
class PointCloud:
    """An ordered list of N >= 1 points in R^d.

    Raw representation of queries, keys, values, and particle states.
    Immutable; the underlying array is copied on construction and marked
    read-only.
    """

    points: np.ndarray

    def __init__(self, points):
        pts = _as_points_array(points).copy()
        if pts.shape[0] == 0:
            raise EmptySupport("a point cloud needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise InvalidInput("point coordinates must be finite (no NaN/Inf)")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.n

    def permuted(self, order) -> "PointCloud":
        return PointCloud(self.points[np.asarray(order, dtype=int)])


def canonical_order(points: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Index order sorting rows lexicographically, weights as a final tiebreak.

    Jointly permuted (points, weights) pairs map to the same ordered
    sequence, which makes canonically ordered reductions exactly
    permutation invariant. Points of shape (..., N, d) with weights of
    shape (..., N) are sorted cloud by cloud along their N axis.
    """
    keys = [points[..., j] for j in range(points.shape[-1] - 1, -1, -1)]
    if weights is not None:
        keys.insert(0, weights)
    return np.lexsort(keys, axis=-1)


def _ordered_sum(rows: np.ndarray) -> np.ndarray:
    """rows[0] + rows[1] + ... along axis 0, strictly left to right.

    The rows are already canonically ordered. numpy reduces a non-fast
    axis of a C-contiguous array row by row, each step vectorised along
    the trailing axes, which is exactly this order; other layouts are
    copied to C order first, since numpy sums a fast axis pairwise. When
    the trailing size is 1 the reduced axis is the fast one even in C
    order, so that case is accumulated instead, which is sequential by
    definition. The initial -0.0 leaves the first row as it is, signed
    zeros included.
    """
    rows = np.ascontiguousarray(rows)
    if rows[0].size == 1:
        return np.add.accumulate(rows, axis=0)[-1]
    return np.add.reduce(rows, axis=0, initial=-0.0)


def _ordered_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b with the shared index accumulated in index order, for a of
    shape (..., k).

    Every output row then depends on its own input row alone, bit for bit;
    BLAS may round a row differently depending on where it sits, which
    would break exact permutation invariance.
    """
    out = a[..., 0, None] * b[0]
    for c in range(1, a.shape[-1]):
        out += a[..., c, None] * b[c]
    return out


def _l1_norms(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """||a - b||_1 over the last axis of float arrays a and b that
    broadcast together (b omitted: the origin), bit for bit
    np.abs(a - b).sum(axis=-1). Every l1 distance in the library is this.

    numpy adds a last axis shorter than 8 in order and a longer one
    pairwise, so that expression is evaluated as it stands from d = 8 on,
    at d = 0 and up to 1024 entries of the difference, where its three
    calls cost less than a loop (4 against 9 us at 4 x 4 x 2). Otherwise
    the coordinates are accumulated in order into the output through one
    reused buffer. That forms no difference array and beats numpy's
    reduce, whose inner loop runs once per short row (seven times slower
    on a (50 000, 3) array). Operands of one shape skip `np.broadcast`,
    which costs about 1 us, as much again as the rest of the choice.
    Witness: without the <= 1024 branch the `probe` benchmark read 1.6-6.6%
    lower (14 of 20 pairs), but `dynamics` 2.5% higher (9 of 10).
    """
    bc = a if b is None or a.shape == b.shape else np.broadcast(a, b)
    d = bc.shape[-1]
    if d >= 8 or d == 0 or bc.size <= 1024:
        return np.abs(a if b is None else a - b).sum(axis=-1)

    def term(k, into):
        if b is None:
            return np.abs(a[..., k], out=into)
        return np.abs(np.subtract(a[..., k], b[..., k], out=into), out=into)

    out = term(0, np.empty(bc.shape[:-1]))
    buf = np.empty_like(out) if d > 1 else None
    for k in range(1, d):
        out += term(k, buf)
    return out


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """A finitely supported probability measure sum_i w_i * delta_{x_i}.

    Weights are nonnegative, must sum to 1 within 1e-12 (the exact sum,
    so the check does not depend on their order) and are kept exactly as
    given: rebuilding a measure from its own weights changes nothing. W1
    normalizes the masses it reads exactly. Support points may repeat and
    are never merged, so m(X) with duplicated tokens round-trips.
    """

    support: PointCloud
    weights: np.ndarray

    def __init__(self, support: PointCloud, weights):
        if not isinstance(support, PointCloud):
            support = PointCloud(support)
        w = np.array(weights, dtype=np.float64)
        if w.shape != (support.n,):
            raise InvalidInput(
                f"weights shape {w.shape} does not match support size {support.n}"
            )
        ws = w.tolist()
        if not all(map(math.isfinite, ws)):
            raise InvalidInput("weights must be finite")
        if min(ws) < 0:
            raise InvalidInput("weights must be nonnegative")
        _check_sums([ws])
        w.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.support.n

    @property
    def dim(self) -> int:
        return self.support.dim

    def permuted(self, order) -> "EmpiricalMeasure":
        order = np.asarray(order, dtype=int)
        return EmpiricalMeasure(self.support.permuted(order), self.weights[order])

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "points": self.support.points.tolist(),
            "weights": self.weights.tolist(),
        }

    @staticmethod
    def from_dict(d: dict) -> "EmpiricalMeasure":
        cloud = PointCloud(d["points"])
        weights = d.get("weights")
        if weights is None:
            return empirical(cloud)
        return EmpiricalMeasure(cloud, weights)


def _check_sums(rows) -> None:
    """`EmpiricalMeasure`'s weight-sum check on each row of weights (lists
    of floats): the exact sum, by fsum, must be within 1e-12 of 1."""
    for total in map(math.fsum, rows):
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidInput(f"weights sum to {total!r}, expected 1 within 1e-12")


def _measure(points: np.ndarray, weights: np.ndarray) -> EmpiricalMeasure:
    """The measure of weights on (n, d) points, from arrays the library
    made and checked itself: no copy and no check, both marked read-only.
    What a caller passes goes through the constructors."""
    points.setflags(write=False)
    weights.setflags(write=False)
    mu = object.__new__(EmpiricalMeasure)
    object.__setattr__(mu, "support", object.__new__(PointCloud))
    object.__setattr__(mu.support, "points", points)
    object.__setattr__(mu, "weights", weights)
    return mu


def empirical(points: PointCloud | np.ndarray) -> EmpiricalMeasure:
    """The empirical-measure map: uniform weights 1/N on the given support.

    Order is preserved and multiplicity kept.
    """
    if not isinstance(points, PointCloud):
        points = PointCloud(points)
    n = points.n
    return EmpiricalMeasure(points, np.full(n, 1.0 / n))


def barycenter(mu: EmpiricalMeasure) -> np.ndarray:
    """sum_i w_i x_i, accumulated in canonical order (exactly permutation
    invariant for jointly permuted inputs)."""
    order = canonical_order(mu.support.points, mu.weights)
    rows = mu.weights[order, None] * mu.support.points[order]
    return _ordered_sum(rows)


def project_dirac(mu: EmpiricalMeasure) -> EmpiricalMeasure:
    """Project a measure onto the Dirac at its barycenter. Idempotent."""
    b = barycenter(mu)
    return EmpiricalMeasure(PointCloud(b.reshape(1, -1)), np.array([1.0]))


@dataclass(frozen=True, eq=False)
class DomainBox:
    """An axis-aligned box [lower, upper] in R^d, or the unbounded domain.

    A bounded box is compact and convex, which is all the bounded-domain
    contraction estimates need from the representation space.
    """

    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    dim_hint: int | None = None

    def __init__(self, lower=None, upper=None, dim_hint=None):
        if (lower is None) != (upper is None):
            raise InvalidInput("provide both bounds or neither")
        if lower is not None:
            # fresh copies; + 0.0 turns -0.0 into 0.0, since numpy's uniform
            # refuses the box [0.0, -0.0] (its high - low has a sign bit)
            lo = np.asarray(lower, dtype=np.float64).reshape(-1) + 0.0
            hi = np.asarray(upper, dtype=np.float64).reshape(-1) + 0.0
            if lo.shape != hi.shape:
                raise DimMismatch("lower and upper must have the same dimension")
            if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
                raise InvalidInput("box bounds must be finite")
            if np.any(lo > hi):
                raise InvalidInput("lower must be <= upper coordinate-wise")
            with np.errstate(over="ignore"):
                if not np.all(np.isfinite(hi - lo)):
                    raise InvalidInput("box sides upper - lower must be finite")
            lo.setflags(write=False)
            hi.setflags(write=False)
            object.__setattr__(self, "lower", lo)
            object.__setattr__(self, "upper", hi)
            object.__setattr__(self, "dim_hint", lo.shape[0])
        else:
            object.__setattr__(self, "lower", None)
            object.__setattr__(self, "upper", None)
            object.__setattr__(self, "dim_hint", dim_hint)

    @staticmethod
    def unbounded(dim: int | None = None) -> "DomainBox":
        return DomainBox(dim_hint=dim)

    @staticmethod
    def cube(radius: float, dim: int) -> "DomainBox":
        if dim < 1:
            raise InvalidInput(f"box dimension must be >= 1, got {dim!r}")
        r = float(radius)
        return DomainBox(np.full(dim, -r), np.full(dim, r))

    @staticmethod
    def bounding(points: np.ndarray) -> "DomainBox":
        """The l-infinity bounding box of the data."""
        pts = _as_points_array(points)
        return DomainBox(pts.min(axis=0), pts.max(axis=0))

    @property
    def is_bounded(self) -> bool:
        return self.lower is not None

    @property
    def dim(self) -> int | None:
        return self.lower.shape[0] if self.is_bounded else self.dim_hint

    def diameter_l1(self) -> float:
        if not self.is_bounded:
            return float("inf")
        return float(np.sum(self.upper - self.lower))

    def diameter_l2(self) -> float:
        if not self.is_bounded:
            return float("inf")
        return float(np.linalg.norm(self.upper - self.lower, 2))

    def diameter_linf(self) -> float:
        if not self.is_bounded:
            return float("inf")
        return float(np.max(self.upper - self.lower))

    def contains(self, points, atol: float = 0.0) -> bool:
        if not self.is_bounded:
            return True
        pts = _as_points_array(points)
        return bool(
            np.all(pts >= self.lower - atol) and np.all(pts <= self.upper + atol)
        )

    def clip(self, points: np.ndarray) -> np.ndarray:
        if not self.is_bounded:
            return np.asarray(points, dtype=np.float64)
        return np.clip(points, self.lower, self.upper)

    def corners(self) -> np.ndarray:
        """All 2^d corners, rows of a (2^d, d) array."""
        if not self.is_bounded:
            raise InvalidInput("unbounded box has no corners")
        d = self.dim
        idx = np.indices((2,) * d).reshape(d, -1).T
        return np.where(idx == 0, self.lower, self.upper).astype(np.float64)

    def to_dict(self) -> dict:
        if not self.is_bounded:
            return {"unbounded": True, "dim": self.dim_hint}
        return {"lower": self.lower.tolist(), "upper": self.upper.tolist()}


# ---------------------------------------------------------------------------
# File I/O: CSV (one point per row) and JSON {"dim", "points", "weights"?}
# ---------------------------------------------------------------------------

def save_point_cloud_csv(path, cloud: PointCloud) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in cloud.points:
            writer.writerow([repr(float(v)) for v in row])


def load_point_cloud_csv(path) -> PointCloud:
    try:
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as e:
        raise InvalidInput(f"{path}: not a CSV text file: {e}") from None
    rows = []
    for line, row in enumerate(table, 1):
        if not row:
            continue
        try:
            rows.append([float(v) for v in row])
        except ValueError:
            raise InvalidInput(f"{path}, line {line}: non-numeric field in {row!r}") from None
    if not rows:
        raise EmptySupport(f"no points in {path}")
    return PointCloud(rows)


def save_measure_json(path, mu: EmpiricalMeasure) -> None:
    Path(path).write_text(json.dumps(mu.to_dict()))


def load_measure_json(path) -> EmpiricalMeasure:
    try:
        d = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise InvalidInput(f"{path}: malformed JSON: {e}") from None
    if not isinstance(d, dict) or "points" not in d:
        raise InvalidInput(f"{path}: expected a JSON object with a 'points' list")
    pts = _as_points_array(d["points"])
    if "dim" in d and int(d["dim"]) != pts.shape[1]:
        raise DimMismatch(
            f"declared dim {d['dim']} does not match points of dim {pts.shape[1]}"
        )
    return EmpiricalMeasure.from_dict(d)


def load_cloud_any(path) -> PointCloud:
    """Load a point cloud from .csv or .json by extension."""
    p = Path(path)
    if p.suffix.lower() == ".json":
        return load_measure_json(p).support
    return load_point_cloud_csv(p)


def load_measure_any(path) -> EmpiricalMeasure:
    """Load a measure; CSV input gets uniform weights."""
    p = Path(path)
    if p.suffix.lower() == ".json":
        return load_measure_json(p)
    return empirical(load_point_cloud_csv(p))
