"""Exact 1-Wasserstein distance between empirical measures, l1 ground metric.

Every float is a dyadic rational, so costs are scaled by a power of two to
exact integers with no rounding; the optimum is exact over those integers
and converted back with one correctly rounded division. A measure keeps the
weights it is given, which sum to 1 only within 1e-12, so the masses are
the weights normalized exactly: w_i / sum(w) as integers over one common
denominator. Both sides then carry the same total mass, and the primal and
dual optima agree exactly: the dual gap is 0.

On the line (d = 1) the monotone coupling of the sorted supports is
optimal for |x - y| costs, and W1 = int |F - G| for the cumulative masses
F and G. `_line_basis` merges the sorted supports once, in exact integers:
the value is W1 with the exact costs |x - y|, and the dual potentials come
from the same walk, exactly feasible with strong duality by construction.

For d >= 2 every solve is one exact transportation network simplex
(`_network_simplex`) on the float l1 cost matrix: "exact" means the exact
optimum of the LP over those float costs, each c_ij = fl(sum_k |x_ik -
y_jk|) read exactly as a dyadic integer. Flows and potentials are exact
integers; numpy prices every arc from float copies of the potentials, and
an arc enters only once its reduced cost is confirmed negative in exact
integers, so the solve stops with an exact dual certificate. A solver's
plan keeps the exact potentials of its optimal basis and derives float
duals from them at the first read, rounded toward -inf so that they stay
exactly feasible for the float cost matrix.

`w1` is the one entry point, and it picks the path from its input: d = 1
takes the sorted-supports path; uniform equal-size measures start the
simplex from scipy's Hungarian matching, hung along its shortest-path
tree (`_w1_assignment`); every other pair starts from the matrix-minimum
allocation (`_matrix_minimum_basis`). scipy serves only for that
matching, and only its compiled kernel is loaded
(`_linear_sum_assignment`): importing softmatch loads no scipy, and every
other path runs on numpy alone.

A result keeps its plan as the at most n + m - 1 atoms (row, column,
mass) of its optimal basis, with the exact potentials of that basis until
its float duals are first read: O(n + m) memory once `w1` returns. The
plan checks its cost on those atoms, and the dense N x M `gamma` is built
only when read.

Desk-scale limits: every path accepts N, M <= 512, d = 1 included. At
d = 1 `w1` builds no N x M cost matrix (an O(N + M) range check refuses
overflowing costs): only `dual_potentials()`, fitting the float duals at
its first call, and `certificate()` build one. At d >= 2 the simplex
refuses costs whose largest times 4 (N + M) overflows, as its float
pricing would. Product measures hold at most 64 support points.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import logging
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatch, InvalidInput, SupportTooLarge
from .measures import EmpiricalMeasure, PointCloud, _l1_norms

MAX_LP_SUPPORT = 512
MAX_PRODUCT_SUPPORT = 64
MARGINAL_TOL = 1e-9

log = logging.getLogger("softmatch")


def cost_matrix_l1(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """c_ij = ||x_i - y_j||_1: `measures._l1_norms` of x[:, None, :]
    against y[None, :, :], so bit for bit numpy's sum over the last axis
    of their absolute difference. d = 0 gives the zero matrix.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    d = x.shape[1]
    if d != y.shape[1]:
        raise DimMismatch(f"dims {d} and {y.shape[1]} differ")
    # finite coordinates may still overflow; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        c = _l1_norms(x[:, None, :], y[None, :, :])
    # every entry is >= 0 or NaN, and max propagates NaN
    if not c.max(initial=0.0) < math.inf:
        raise InvalidInput("non-finite transport costs")
    return c


# ---------------------------------------------------------------------------
# Exact dyadic integerization (floats are p / 2^k, no rounding involved)
# ---------------------------------------------------------------------------

def _dyadic_shift(values: np.ndarray) -> int:
    """A shift >= 0 making every values[i] * 2**shift an integer: a finite
    float is an integer times 2**(exp - 53), exp from frexp, so
    53 - min(exp) works, or 0 when that is negative.

    It is not the least such shift: [0.5] gives 53 where 1 would do, and
    0.0 counts as exp 0. Callers rely on this value and not a smaller one:
    the simplex's grain 2**-shift decides which of its pricing rounds are
    settled as ties, and with them the arcs that enter.
    """
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    if not flat.size:
        return 0
    return max(0, 53 - int(np.frexp(flat)[1].min()))


def _dyadic_ints(values: np.ndarray, shift: int | None = None) -> tuple[list[int], int]:
    """Represent floats exactly as integers over one power-of-two denominator.

    Returns (ints, shift) with values[i] == ints[i] / 2**shift exactly;
    `shift` defaults to `_dyadic_shift(values)` and may be given larger.
    """
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    if shift is None:
        shift = _dyadic_shift(flat)
    mant, exp = np.frexp(flat)
    # mant * 2^53 is integral for every finite float
    ms = (mant * (1 << 53)).astype(np.int64).tolist()
    return [a << e for a, e in zip(ms, (exp + (shift - 53)).tolist())], shift


def _integer_masses(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> tuple[list, list, int]:
    """Exact integer supplies and demands with equal totals: (supply,
    demand, den) with supply[i] / den == mu.weights[i] / sum(mu.weights)
    exactly, and likewise for nu.

    Each side's dyadic integers, divided by their gcd (which leaves the
    one coprime vector proportional to the weights, whatever shift they
    were read with), are scaled by the other side's total over the gcd of
    the two totals, so both sum to den = lcm of the totals; uniform
    weights give unit masses.
    """
    a, b = _coprime_masses(mu.weights), _coprime_masses(nu.weights)
    ta, tb = sum(a), sum(b)
    g = math.gcd(ta, tb)
    sa, sb = tb // g, ta // g
    return [x * sa for x in a], [y * sb for y in b], ta * sa


def _is_uniform(weights: np.ndarray) -> bool:
    ws = weights.tolist()
    return ws.count(ws[0]) == len(ws)


def _coprime_masses(weights: np.ndarray) -> list:
    """The coprime nonnegative integers proportional to `weights`: ones
    for uniform weights, else their dyadic integers over their gcd."""
    if _is_uniform(weights):
        return [1] * len(weights)
    ints, _ = _dyadic_ints(weights)
    g = math.gcd(*ints)
    return [x // g for x in ints]


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TransportPlan:
    """A coupling gamma between two empirical measures certifying a cost,
    kept as its atoms: mass[k] at gamma[rows[k], cols[k]], atoms at one
    entry adding up, every other entry 0. A solver's plan has the at most
    n + m - 1 atoms of its optimal basis, one per entry; `from_gamma`
    turns a caller's dense matrix into atoms. `to_dict()` gives the atoms
    as lists, and `gamma` builds the dense N x M view at each read and
    keeps nothing. Equality is identity; compare plans by `to_dict()`.

    Invariants checked on construction, over the atoms alone: indices
    within the supports, masses >= -1e-15, marginals matching the measure
    weights and the stored cost matching sum_k mass[k] ||x[rows[k]] -
    y[cols[k]]||_1, both within 1e-9, with no N x M cost matrix.
    Kantorovich dual potentials are available through dual_potentials();
    they satisfy u_i + v_j <= c_ij exactly, with equality (to an ulp) on
    the support of gamma when the plan is optimal. A solver's plan keeps
    the exact integer potentials of its optimal basis instead, (u, v,
    shift) as in `_Basis`, and derives the float duals from them at the
    first read, which then replace them.
    """

    rows: np.ndarray
    cols: np.ndarray
    mass: np.ndarray
    source: EmpiricalMeasure
    target: EmpiricalMeasure
    cost: float
    _duals: tuple | None = None
    _potentials: tuple | None = field(default=None, repr=False)

    @classmethod
    def from_gamma(cls, gamma, source: EmpiricalMeasure, target: EmpiricalMeasure, cost: float):
        """The plan of a dense N x M coupling: its nonzero entries are the atoms."""
        g = np.asarray(gamma, dtype=np.float64)
        if g.shape != (source.n, target.n):
            raise InvalidInput(f"plan shape {g.shape} does not match measures")
        rows, cols = np.nonzero(g)
        return cls(rows, cols, g[rows, cols], source, target, cost)

    def __post_init__(self):
        n, m = self.source.n, self.target.n
        rows, cols = np.asarray(self.rows), np.asarray(self.cols)
        mass = np.asarray(self.mass, dtype=np.float64)
        if not (rows.ndim == cols.ndim == mass.ndim == 1 and rows.size == cols.size == mass.size):
            raise InvalidInput("plan atoms need 1-D rows, cols and mass of one length")
        if rows.dtype.kind not in "iu" or cols.dtype.kind not in "iu":
            raise InvalidInput("plan rows and cols must be integers")
        rows, cols = rows.astype(np.intp, copy=False), cols.astype(np.intp, copy=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "mass", mass)
        # each comparison is written so that NaN fails it
        if not mass.min(initial=0.0) >= -1e-15:
            raise InvalidInput("plan has negative or NaN entries")
        try:
            out, into = np.bincount(rows, mass, n), np.bincount(cols, mass, m)
        except ValueError:  # a negative index
            out = into = None
        if out is None or out.size > n or into.size > m:
            raise InvalidInput(f"plan atoms fall outside the {n} x {m} supports")
        row_err = np.abs(out - self.source.weights).max()
        col_err = np.abs(into - self.target.weights).max()
        if not max(row_err, col_err) <= MARGINAL_TOL:
            raise InvalidInput(
                f"marginal mismatch {max(row_err, col_err):.3e} exceeds 1e-9"
            )
        x, y = self.source.support.points, self.target.support.points
        # an overflowing cost is inf or NaN, which fails the check below
        with np.errstate(over="ignore", invalid="ignore"):
            recomputed = float(_l1_norms(x[rows], y[cols]) @ mass)
        if not abs(recomputed - self.cost) <= MARGINAL_TOL * (1.0 + abs(self.cost)):
            raise InvalidInput(
                f"plan cost {recomputed!r} disagrees with stored {self.cost!r}"
            )

    @property
    def gamma(self) -> np.ndarray:
        """The dense N x M coupling, built from the atoms at each read."""
        g = np.zeros((self.source.n, self.target.n))
        np.add.at(g, (self.rows, self.cols), self.mass)
        return g

    def to_dict(self) -> dict:
        """The atoms as lists: gamma[rows[k], cols[k]] += mass[k]."""
        return {"rows": self.rows.tolist(), "cols": self.cols.tolist(), "mass": self.mass.tolist()}

    def dual_potentials(self) -> tuple[np.ndarray, np.ndarray]:
        """Optimal Kantorovich potentials (u, v): u_i + v_j <= c_ij.

        Plans from the solvers give the duals of their optimal basis,
        tight to an ulp wherever gamma_ij > 0, derived at the first call
        from its exact potentials (at d = 1 against the float cost matrix,
        built then) and cached. For a plan built by a caller they are
        those of w1(source, target), so they are feasible whatever the
        plan; a suboptimal plan shows up as
        certificate()["max_support_slack"] > 0.
        """
        return self._fit_duals(None)

    def _fit_duals(self, c: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """`dual_potentials()`, on the cost matrix c at d = 1 if the caller built it."""
        if self._duals is None:
            exact = self._potentials
            if exact is None:
                duals = w1(self.source, self.target).plan.dual_potentials()
            elif self.source.dim == 1:
                if c is None:
                    c = cost_matrix_l1(self.source.support.points, self.target.support.points)
                duals = _line_duals(*exact, c)
            else:
                duals = _float_duals(*exact)
            object.__setattr__(self, "_duals", duals)
            object.__setattr__(self, "_potentials", None)
        return self._duals

    def certificate(self) -> dict:
        """Feasibility and complementary-slackness diagnostics (floats)."""
        c = cost_matrix_l1(self.source.support.points, self.target.support.points)
        u, v = self._fit_duals(c)
        feas = float((u[:, None] + v[None, :] - c).max())
        supp = self.mass > 0
        i, j = self.rows[supp], self.cols[supp]
        slack = float(np.abs(u[i] + v[j] - c[i, j]).max()) if supp.any() else 0.0
        dual_obj = float(self.source.weights @ u + self.target.weights @ v)
        return {
            "max_feasibility_violation": feas,
            "max_support_slack": slack,
            "dual_objective": dual_obj,
            "primal_objective": self.cost,
        }


@dataclass(frozen=True, eq=False)
class W1Result:
    """Optimal value, an optimal plan, and its duality gap: the masses
    are normalized exactly, so the gap is 0.0 on every path."""

    value: float
    plan: TransportPlan
    dual_gap: float

    def __post_init__(self):
        if self.value < 0:
            raise InvalidInput("W1 value cannot be negative")
        if self.dual_gap > 1e-9 * (1.0 + self.value):
            raise InvalidInput(
                f"dual gap {self.dual_gap!r} exceeds 1e-9 * (1 + value)"
            )

    def to_dict(self, include_plan: bool = False) -> dict:
        d = {"value": self.value, "dual_gap": self.dual_gap}
        if include_plan:
            d["plan"] = self.plan.to_dict()
        return d


# ---------------------------------------------------------------------------
# Exact transportation network simplex
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _Basis:
    """An optimal basis: the basic arcs (i, j, flow), exact integer
    potentials u, v (costs scaled by 2**shift) with c_ij - u_i - v_j >= 0
    on every arc and = 0 on every basic arc, and the exact objective
    sum flow * c. The simplex's arcs span a tree; the line path keeps only
    the arcs that carry flow."""

    arcs: list
    u: list
    v: list
    total: int
    shift: int


def _matrix_minimum_basis(c: np.ndarray, supply: list, demand: list) -> list:
    """Matrix-minimum allocation with every node but the root sink m - 1
    carrying eps extra supply (eps less demand at a sink).

    Amounts are (mass, eps) pairs compared lexicographically. The
    perturbed problem is nondegenerate, so each allocation closes exactly
    one row or column until the last closes both: n + m - 1 arcs with
    positive perturbed flow, i.e. a spanning tree in which every zero-flow
    arc points from its source up to its sink (strongly feasible).

    The cells are walked in stable cost order, ties in row-major index
    order, as `_smallest` gives them. The walk goes in chunks of
    2 (n + m - 1) cells from which closed cells are dropped in bulk first.
    Up to 256 cells (every probe-sized pair) it reads them all in one pass
    with no filter, and keeps its open flags in lists: there it reaches
    about 96% of the cells before the tree spans (median over the probe
    benchmark's pairs), so it visits every chunk anyway, and this halves
    its time. Witness: the bulk walk everywhere took 300 probe-sized
    solves 6% longer, the list walk everywhere 128 x 112 solves 12%.
    """
    n, m = c.shape
    rem_s = [(a, 1) for a in supply]
    rem_d = [(b, -1) for b in demand]
    rem_d[-1] = (demand[-1], n + m - 1)
    order = _smallest(c.reshape(-1), c.size)
    arcs = []
    need = n + m - 1
    bulk = order.size > 256
    if bulk:
        row_open = np.ones(n, dtype=bool)
        col_open = np.ones(m, dtype=bool)
        chunk = 2 * need
    else:
        row_open = [True] * n
        col_open = [True] * m
        chunk = order.size
    for lo in range(0, order.size, chunk):
        cells = order[lo : lo + chunk]
        if bulk:
            # drop cells already closed off in bulk; the rest are re-checked
            # one by one since each allocation closes a line
            cells = cells[row_open[cells // m] & col_open[cells % m]]
        for k in cells.tolist():
            i, j = divmod(k, m)
            if not (row_open[i] and col_open[j]):
                continue
            s, d = rem_s[i], rem_d[j]
            if s <= d:
                row_open[i] = False
                rem_d[j] = (d[0] - s[0], d[1] - s[1])
                arcs.append((i, j, s[0]))
            else:
                col_open[j] = False
                rem_s[i] = (s[0] - d[0], s[1] - d[1])
                arcs.append((i, j, d[0]))
            if len(arcs) == need:
                return arcs
    raise RuntimeError("matrix-minimum start did not span the nodes")


def _split(pot: list, shift: int) -> tuple[np.ndarray, list]:
    """(hi, rem): hi[k] = pot[k] / 2**shift correctly rounded, and the
    exact integer rest rem[k] = pot[k] - hi[k] * 2**shift.

    hi[k] * 2**shift is always an integer (hi is coarser than 2**-shift
    wherever it is inexact), read from one frexp as mant << (exp + shift).
    """
    scale = 1 << shift
    hi = np.array([p / scale for p in pot])
    mant, exp = np.frexp(hi)
    ms = (mant * (1 << 53)).astype(np.int64).tolist()
    ks = (exp.astype(np.int64) + (shift - 53)).tolist()
    rem = [p - (a << k if k >= 0 else a >> -k) for p, a, k in zip(pot, ms, ks)]
    return hi, rem


def _two_sum_error(a: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(a + b) - s exactly, for s = fl(a + b) (Knuth's TwoSum)."""
    bb = s - a
    return (a - (s - bb)) + (b - bb)


def _tie_signs(c, src, dst, pot: list, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """(zero, positive): which arcs src[k] -> dst[k] of float cost c[k]
    have an exactly zero, and which an exactly positive, reduced cost
    r = c - pot[src] - pot[dst] (potentials over 2**shift), found in
    double-double; the others need exact integers.

    Each potential is split by `_split` into u = uh + ul, with ul its rest
    rounded to a float (exact unless u needs more than 106 bits). TwoSum
    gives c - uh - vh = s2 + e1 + e2 exactly, and
    r~ = s2 + ((e1 + e2) - (ul + vl)) errs from r by at most
    err2 = 2^-50 (|e1| + |e2| + 2 |ul| + 2 |vl| + |r~|) + 2^-1070 (four
    roundings and the split, with room; the constant covers underflow).
    r is a multiple of grain = 2**-shift, so it is 0 where |r~| <= err2
    and 2 err2 < grain, and positive where r~ > err2.
    Used past 2 (n + m) + 128 ties. Witness: 384-point quarter-grid solves
    took 2.4% longer without it, 300 probe-sized ones 19% with it always.
    """
    hi, rem = _split(pot, shift)
    scale = 1 << shift
    lo = np.array([x / scale for x in rem])
    uh, ul, vh, vl = hi[src], lo[src], hi[dst], lo[dst]
    s1 = c - uh
    e1 = _two_sum_error(c, -uh, s1)
    s2 = s1 - vh
    e2 = _two_sum_error(s1, -vh, s2)
    r = s2 + ((e1 + e2) - (ul + vl))
    err2 = np.abs(e1) + np.abs(e2) + 2.0 * (np.abs(ul) + np.abs(vl)) + np.abs(r)
    err2 = np.ldexp(err2, -50) + math.ldexp(1.0, -1070)
    return (np.abs(r) <= err2) & (2.0 * err2 < math.ldexp(1.0, -shift)), r > err2


def _smallest(vals: np.ndarray, k: int) -> np.ndarray:
    """np.argsort(vals, kind="stable")[:k] of a 1-D array with no NaN: the
    engine's one stable order. Up to 512 entries it is numpy's stable merge
    sort, so a probe-sized solve never maps the SIMD sort (0.5 MB resident).
    Past 512 with k < size, only the entries at or below the k-th smallest
    value are sorted, in index order, so the same k come first. Witness:
    without it weighted d = 4 solves took 35% longer at 256 x 257, 2.3
    times as long at 512 x 511. Past 512 with k >= size, numpy's default
    (SIMD) argsort orders the values, and each run of equal ones (-0.0
    beside +0.0) is put back in index order by one sort of the distinct
    keys run * size + index. Witness: with the merge sort instead weighted
    256 x 257 solves took 12% longer at d = 2 and 4.
    """
    if vals.size <= 512:
        return vals.argsort(kind="stable")[:k]
    if k < vals.size:
        keep = np.flatnonzero(vals <= np.partition(vals, k - 1)[k - 1])
        return keep[vals[keep].argsort(kind="stable")[:k]]
    order = vals.argsort()
    ranked = vals[order]
    tied = ranked[1:] == ranked[:-1]
    if tied.any():
        run = np.concatenate(([0], np.cumsum(~tied)))
        pos = np.flatnonzero(np.concatenate((tied, [False])) | np.concatenate(([False], tied)))
        order[pos] = np.sort(run[pos] * vals.size + order[pos]) % vals.size
    return order


def _network_simplex(c: np.ndarray, arcs: list, shift: int, path: str) -> _Basis:
    """Exact network simplex for the transportation problem on cost c.

    `arcs` is a strongly feasible spanning-tree basis (i, j, flow) rooted
    at sink m - 1: every zero-flow arc has its source as the child. Flows
    and potentials are exact Python integers; costs enter as
    c_ij * 2**shift, each read on demand from the float c_ij for the arcs
    that need it (the start tree and each round's candidates). Node i
    stores u_i and node n + j stores -v_j, so the reduced cost is
    r_ij = c_ij - pot[i] + pot[n + j], and a pivot adds one amount to
    every stored potential of the subtree it re-hangs. Pricing runs in
    numpy on correctly rounded float copies of the potentials, refreshed
    from the exact ones once at the top of each pricing round (pivots
    shift only the exact potentials, and nothing reads the floats until
    the next pass); rounding to nearest is odd-symmetric, so
    (c - u~) + (-v)~ has the bits of (c - u~) - v~.

    At every size each conversion is one int64 cast where that is exact,
    and goes through Python lists where it is not. Where `scaled` holds,
    p * 2**-shift is p / 2**shift correctly rounded for every tree
    potential p, and int64 -> float64 rounds to nearest, ties to even, as
    int -> float does: the potentials are rounded by one cast when all of
    them have |p| < 2**63 (an OverflowError otherwise). Every scaled cost
    c_ij * 2**shift is then an integer-valued float, and the candidates'
    exact costs are read by one cast while c_max * 2**shift < 2**62.

    Pricing compares against a rigorous bound `err` on the rounding error
    of the float reduced cost r~:

    - r~ < -err: certainly negative;
    - |r~| <= err: a possible tie, looked at once no certainly negative arc
      is left. When 2 err is below 2**-shift, the grain of the exact
      values, every such arc is exactly 0. Otherwise, when the ties
      outnumber 2 (n + m) + 128, `_tie_signs` prices them again in
      double-double from the exact potentials, which settles most of them
      as exactly 0 or exactly positive; the rest go through the candidate
      list in exact integers;
    - r~ > err: certainly nonnegative.

    Candidates are taken most negative first, ties in arc order, by the
    engine's one stable order `_smallest`: the `block` most negative in an
    ordinary round, all of them in a tie round. Each is re-priced in exact
    integers before it enters, so no arc enters on a stale or rounded
    value. The leaving arc is the last blocking arc met when walking the
    cycle from its apex along the entering arc (strongly feasible rule:
    the tree stays strongly feasible, so degenerate pivots cannot cycle).
    When no arc is exactly negative the flow is optimal and the tree
    potentials are an exact dual certificate. Every tree arc is tight,
    c_ij = u_i + v_j, so the objective is the sum of flow * (u_i + v_j)
    over the tree.
    """
    n, m = c.shape
    size = n + m
    root = size - 1
    scale = 1 << shift
    grain = math.ldexp(1.0, -shift)
    cflat = np.ascontiguousarray(c).reshape(-1)
    c_max = float(cflat.max(initial=0.0))
    # a potential sums at most n + m - 1 costs: every float stays below 4 (n + m) c_max
    if not c_max * (4 * size) < math.inf:
        raise InvalidInput(f"transport cost {c_max!r} is too large to price over {size} nodes")

    parent = [-1] * size
    depth = [0] * size
    flow = [0] * size  # flow on the arc between a node and its parent
    children = [[] for _ in range(size)]
    # u_i at node i and -v_j at node n + j: r_ij = c_ij - pot[i] + pot[n + j]
    pot = [0] * size
    basic = np.zeros(n * m, dtype=bool)

    # where `scaled` holds, scaling by 2**shift or 2**-shift is exact:
    # every c_ij * 2**shift is a finite float and an integer, and a tree
    # potential, a sum of at most n + m such costs, converts to a float and
    # scales back with no overflow and no subnormal, so float(p) *
    # 2**-shift is p / 2**shift correctly rounded
    scaled = shift <= 1022 and math.frexp(c_max)[1] + shift + size.bit_length() <= 1023
    up, down = (math.ldexp(1.0, shift), math.ldexp(1.0, -shift)) if scaled else (0.0, 0.0)
    cast_costs = scaled and c_max * up < 2.0**62

    def exact_costs(ks):
        if cast_costs:
            return (cflat[ks] * up).astype(np.int64).tolist()
        if scaled:
            return [int(x * up) for x in cflat[ks].tolist()]
        return _dyadic_ints(cflat[ks], shift)[0]

    def rounded(pot):
        if scaled:
            try:
                potf = np.array(pot, dtype=np.int64) * down
                return potf, float(np.abs(potf).max())
            except OverflowError:
                floats = [p * down for p in pot]
        else:
            floats = [p / scale for p in pot]
        return np.array(floats), max(map(abs, floats))

    adj = [[] for _ in range(size)]
    ks = np.array([i * m + j for i, j, _ in arcs])
    for (i, j, f), ck in zip(arcs, exact_costs(ks)):
        # a tight arc has pot[i] - pot[n + j] = c_ij
        adj[i].append((n + j, f, -ck))
        adj[n + j].append((i, f, ck))
    basic[ks] = True
    stack = [root]
    while stack:
        x = stack.pop()
        for y, f, ck in adj[x]:
            if y != parent[x]:
                parent[y] = x
                depth[y] = depth[x] + 1
                flow[y] = f
                children[x].append(y)
                pot[y] = pot[x] + ck
                stack.append(y)
    # the tree now holds all the pivots need of the start arcs; free the
    # rest before the (n, m) pricing buffer is made
    del adj, arcs
    red = np.empty((n, m))
    flat_red = red.reshape(-1)
    block = max(8, size // 2)
    guard = 4 * n * m + 64
    pivots = degenerate = tie_checks = 0

    def pivot(i, j, r):
        nonlocal degenerate
        a, b = i, n + j
        # climb from the deeper end until both meet at the apex; the paths
        # list the child ends of the cycle's arcs, from a and b upwards
        path_a, path_b = [], []
        x, y = a, b
        while x != y:
            if depth[x] >= depth[y]:
                path_a.append(x)
                x = parent[x]
            else:
                path_b.append(y)
                y = parent[y]
        # walking up from b, flow drops on arcs whose child is a sink;
        # walking up from a, on arcs whose child is a source. Ties go to
        # b's side nearest the apex, then to a's side nearest a.
        delta = math.inf
        leave = -1
        for t, v in enumerate(path_b):
            if v >= n and flow[v] <= delta:
                delta, leave = flow[v], t
        on_b = leave >= 0
        for t, v in enumerate(path_a):
            if v < n and flow[v] < delta:
                delta, leave, on_b = flow[v], t, False
        if delta:
            for v in path_a:
                flow[v] += -delta if v < n else delta
            for v in path_b:
                flow[v] += -delta if v >= n else delta
        else:
            degenerate += 1
        if on_b:
            e_in, e_out, cut = b, a, path_b[: leave + 1]
        else:
            e_in, e_out, cut = a, b, path_a[: leave + 1]
        q = cut[-1]
        p = parent[q]
        basic[(q * m + p - n) if q < n else (p * m + q - n)] = False
        basic[i * m + j] = True
        # hang the cut-off subtree from e_out, re-rooted at e_in
        new_par, carry = e_out, delta
        for x in cut:
            children[parent[x]].remove(x)
            children[new_par].append(x)
            parent[x], new_par = new_par, x
            flow[x], carry = carry, flow[x]
        # shift its potentials so the entering arc becomes tight: u by s
        # and v by -s, so every stored potential by s
        s = r if e_in < n else -r
        sub = [e_in]
        for x in sub:
            pot[x] += s
            depth[x] = depth[parent[x]] + 1
            sub += children[x]

    while True:
        # pivots shift only the exact potentials; round them once per pass
        potf, pot_max = rounded(pot)
        np.subtract(c, potf[:n, None], out=red)
        red += potf[n:]
        # |r~ - r| <= 2^-53 (2|c| + 3|u~| + 2|v~|) to first order (rounded
        # potentials, two rounded subtractions); 2^-50 (max c + 2 max|pot~|)
        # covers it with room, 2^-1070 covers subnormal potentials
        err = math.ldexp(c_max + 2.0 * pot_max, -50)
        err += math.ldexp(1.0, -1070)
        cand = (flat_red < -err).nonzero()[0]
        ties = cand.size == 0
        if ties:
            if 2.0 * err < grain:
                break
            cand = (flat_red <= err).nonzero()[0]
            cand = cand[~basic[cand]]
            if cand.size > 2 * size + 128:
                # double-double settles most ties, at about the cost of
                # exactly checking 2 (n + m) + 128 of them
                i, j = np.divmod(cand, m)
                uv = pot[:n] + [-w for w in pot[n:]]
                zero, positive = _tie_signs(cflat[cand], i, j + n, uv, shift)
                cand = cand[~(zero | positive)]
            if cand.size == 0:
                break
        cand = cand[_smallest(flat_red[cand], cand.size if ties else block)]
        entered = 0
        rows, cols = np.divmod(cand, m)
        for i, j, ck in zip(rows.tolist(), cols.tolist(), exact_costs(cand)):
            r = ck - pot[i] + pot[n + j]
            if r < 0:
                pivot(i, j, r)
                entered += 1
        if ties:
            tie_checks += cand.size
        pivots += entered
        if not entered:
            if ties:
                break
            raise RuntimeError("network simplex: float pricing bound violated")
        if pivots > guard:
            raise RuntimeError("network simplex exceeded its iteration guard")

    log.debug(
        "w1 %s: n=%d m=%d pivots=%d degenerate=%d tie_checks=%d",
        path, n, m, pivots, degenerate, tie_checks,
    )
    arcs = []
    total = 0
    for x in range(root):
        i, j = (x, parent[x]) if x < n else (parent[x], x)
        arcs.append((i, j - n, flow[x]))
        # every tree arc is tight: its exact cost is pot[i] - pot[j]
        total += flow[x] * (pot[i] - pot[j])
    return _Basis(arcs, pot[:n], [-w for w in pot[n:]], total, shift)


# near the float range a distance can overflow: inf never improves a
# distance and -inf only ends the relaxation early, so neither warns
@np.errstate(over="ignore", invalid="ignore")
def _assignment_basis(c: np.ndarray, cols: list) -> list:
    """Unit masses matched i -> cols[i] on a strongly feasible basis rooted
    at sink n - 1: the matching's shortest-path tree.

    Row r0 is matched to the root. Every other row k hangs by a zero-flow
    arc under the sink cols[p] of the pair p minimising
    d_p + c[k, cols[p]] - c[p, cols[p]], with d_r0 = 0, so the tree
    potentials are u_k = u_r0 + d_k: for an optimal matching they are dual
    feasible, and the simplex only certifies it. The distances come from
    an active-set Bellman-Ford in float, each round relaxing from the rows
    that improved in the round before. One relaxation errs by at most
    2^-52 (2 max c + max |d|) to first order, and an improvement counts
    only past 2n times that, so rounding alone never closes a cycle of
    predecessors. A row whose chain of predecessors does not reach r0 (a
    negative cycle: the matching is suboptimal) hangs from the root sink
    instead, and the simplex repairs the matching.

    `c` need not be the matrix the simplex then prices: `w1` hands over
    `_reduced_costs(c)`, r_kj = c_kj - a_k - b_j. On r the distances
    become d_k - a_k + a_r0, and every candidate of row k moves by the
    same a_r0 - a_k, so in exact arithmetic each row picks the same
    predecessor; only the rounding differs. From any matrix the arcs are
    a strongly feasible basis, so a rounded choice costs pivots at most.
    """
    n = len(cols)
    root = n - 1
    r0 = cols.index(root)
    at = c.T[cols]  # at[p, k] = c[k, cols[p]]
    base = at.diagonal()
    unit = n * math.ldexp(1.0, -51)
    c_max = float(at.max(initial=0.0))
    # the first round relaxes from r0 alone: every row under the root
    d = at[r0] - base[r0]
    d[r0] = 0.0
    pred = np.full(n, r0)
    active = np.flatnonzero(np.arange(n) != r0)
    span = float(np.abs(d).max())
    # via[q, k]: row k's distance through the q-th active row, filled in
    # place; mode="clip" keeps np.take from buffering (the indices are valid)
    buf = np.empty_like(at)
    for _ in range(n - 1):
        via = np.take(at, active, axis=0, out=buf[: active.size], mode="clip")
        via += (d[active] - base[active])[:, None]
        # argmin's first minimal row, found without the copy argmin makes
        # to bring axis 0 last
        best = via.min(axis=0)
        better = best < d - unit * (2.0 * c_max + span)
        better[r0] = False
        improved = np.flatnonzero(better)
        if not improved.size:
            break
        arg = (via == best).argmax(axis=0)
        pred[improved] = active[arg[improved]]
        d[improved] = best[improved]
        span = max(span, float(np.abs(d[improved]).max()))
        active = improved
    # pointer doubling: r0 is a fixed point, a cycle never reaches it
    hop = pred.copy()
    for _ in range(n.bit_length()):
        hop = hop[hop]
    sink = np.where(hop == r0, np.asarray(cols)[pred], root).tolist()
    return [(i, j, 1) for i, j in enumerate(cols)] + [
        (k, sink[k], 0) for k in range(n) if k != r0
    ]


def _reduced_costs(c: np.ndarray) -> np.ndarray:
    """c less each row's minimum, then each column's minimum, in float.

    On a step of a contracted particle trajectory every row of c is
    nearly constant, and the differences that decide the matching sit in
    its last bits. Subtracting the row minimum removes the shared part
    (exactly, by Sterbenz, wherever a row stays within a factor 2 of its
    minimum), so the Hungarian method and the Bellman-Ford of
    `_assignment_basis` see those differences at full precision.
    """
    r = c - c.min(axis=1)[:, None]
    r -= r.min(axis=0)
    return r


def _solve_masses(c: np.ndarray, supply: list, demand: list, shift: int, path: str) -> _Basis:
    """Optimal basis from the matrix-minimum start for integer masses.

    Zero-mass nodes would leave zero-flow leaves that no rooting makes
    strongly feasible, so they sit out of the simplex; each then gets the
    largest potential keeping all of its arcs dual feasible.
    """
    if all(supply) and all(demand):
        return _network_simplex(c, _matrix_minimum_basis(c, supply, demand), shift, path)
    n, m = c.shape
    rows = [i for i in range(n) if supply[i]]
    cols = [j for j in range(m) if demand[j]]
    sub = c[np.ix_(rows, cols)]
    basis = _network_simplex(
        sub,
        _matrix_minimum_basis(sub, [supply[i] for i in rows], [demand[j] for j in cols]),
        shift,
        path,
    )
    u = [None] * n
    v = [None] * m
    for i, x in zip(rows, basis.u):
        u[i] = x
    for j, x in zip(cols, basis.v):
        v[j] = x
    for j in range(m):
        if v[j] is None:
            col = _dyadic_ints(c[rows, j], shift)[0]
            v[j] = min(ck - u[i] for i, ck in zip(rows, col))
    for i in range(n):
        if u[i] is None:
            v_row = _dyadic_ints(c[i], shift)[0]
            u[i] = min(ck - vj for ck, vj in zip(v_row, v))
    arcs = [(rows[i], cols[j], f) for i, j, f in basis.arcs]
    return _Basis(arcs, u, v, basis.total, shift)


def _float_duals(u: list, v: list, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """The exact potentials of a basis over 2**shift, each rounded toward
    -inf: then u_i + v_j <= c_ij still holds exactly for the floats, and
    they stay within an ulp of tight on the support."""
    n = len(u)
    hi, rem = _split(u + v, shift)
    down = np.array([r < 0 for r in rem], dtype=bool)
    hi[down] = np.nextafter(hi[down], -np.inf)
    return hi[:n], hi[n:]


# ---------------------------------------------------------------------------
# Exact W1 on the line
# ---------------------------------------------------------------------------

def _line_basis(mu: EmpiricalMeasure, nu: EmpiricalMeasure, supply: list, demand: list) -> _Basis:
    """Optimal basis for the exact costs |x - y| on R, by merging the
    sorted supports.

    Coordinates are read exactly as integers over 2**shift. The
    north-west-corner coupling of the stably sorted supports is monotone,
    hence optimal, and has at most n + m - 1 arcs with positive flow. The
    duals come from one walk over the merged supports: u_i = phi(x_i) and
    v_j = -phi(y_j), where phi(t) = -int sign(F - G) for the cumulative
    masses F and G. phi is 1-Lipschitz, so u_i + v_j <= |x_i - y_j|, with
    equality on every arc (F - G keeps one sign between the ends of an arc
    that moves mass), and summing by parts gives
    sum a u + sum b v = int |F - G| = total.
    Overflowing costs are refused in O(n + m): rounding is monotone, so
    the larger of fl(max x - min y) and fl(max y - min x) is the largest
    fl(|x_i - y_j|).
    """
    n, m = mu.n, nu.n
    x, y = mu.support.points[:, 0], nu.support.points[:, 0]
    # Python floats overflow to inf without a warning
    if not max(float(x.max()) - float(y.min()), float(y.max()) - float(x.min())) < math.inf:
        raise InvalidInput("non-finite transport costs")
    coords = np.concatenate([x, y])
    pos, shift = _dyadic_ints(coords)
    order = np.argsort(coords, kind="stable").tolist()
    phi = [0] * (n + m)
    level = excess = 0
    at = pos[order[0]]
    for k in order:
        level -= ((excess > 0) - (excess < 0)) * (pos[k] - at)
        at = pos[k]
        phi[k] = level
        excess += supply[k] if k < n else -demand[k - n]
    xs = [k for k in order if k < n]
    ys = [k - n for k in order if k >= n]
    arcs = []
    total = i = j = 0
    left, right = supply[xs[0]], demand[ys[0]]
    while True:
        f = min(left, right)
        if f:
            arcs.append((xs[i], ys[j], f))
            total += f * abs(pos[xs[i]] - pos[n + ys[j]])
            left -= f
            right -= f
        if not left:
            i += 1
            if i == n:
                break
            left = supply[xs[i]]
        if not right:
            j += 1
            if j == m:
                break
            right = demand[ys[j]]
    log.debug(
        "w1 %s: n=%d m=%d pivots=%d degenerate=%d tie_checks=%d", "line", n, m, 0, 0, 0
    )
    return _Basis(arcs, phi[:n], [-p for p in phi[n:]], total, shift)


def _line_duals(u: list, v: list, shift: int, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float duals of a line basis's exact potentials, exactly
    feasible for the float cost matrix c.

    The basis is feasible for the exact costs |x_i - y_j|, and c_ij can
    round below them. Wherever u_i + v_j > c_ij in exact arithmetic (the
    rounding error of each float sum is recovered exactly), v_j drops to
    the largest float at most min_i (c_ij - u_i): an ulp of c at most.
    """
    u, v = _float_duals(u, v, shift)
    s = u[:, None] + v[None, :]
    over = (s > c) | ((s == c) & (_two_sum_error(u[:, None], v[None, :], s) > 0))
    cols = np.flatnonzero(over.any(axis=0))
    if cols.size:
        sub = c[:, cols]
        room = sub - u[:, None]
        low = _two_sum_error(sub, -u[:, None], room) < 0
        room[low] = np.nextafter(room[low], -np.inf)
        v[cols] = np.minimum(v[cols], room.min(axis=0))
    return u, v


# ---------------------------------------------------------------------------
# Public solvers
# ---------------------------------------------------------------------------

def _check_pair(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> None:
    if mu.dim != nu.dim:
        raise DimMismatch(f"measure dims {mu.dim} and {nu.dim} differ")
    if mu.n > MAX_LP_SUPPORT or nu.n > MAX_LP_SUPPORT:
        raise SupportTooLarge(
            f"LP path supports N, M <= {MAX_LP_SUPPORT}, got {mu.n}, {nu.n}"
        )


def w1(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> W1Result:
    """Exact W1 between empirical measures with l1 ground costs.

    The masses are the weights normalized exactly, each side by its own
    sum. At d = 1 every pair takes the sorted-supports path, and the value
    is W1 with the exact costs |x - y|, rounded once. At d >= 2 it is the
    exact optimum of the LP over the float l1 cost matrix, rounded once:
    uniform measures of one size take the assignment path, the simplex
    warm-started from a Hungarian matching, and every other pair starts
    from the matrix-minimum allocation. The dual gap is 0.0 on every path.
    """
    _check_pair(mu, nu)
    if mu.dim == 1:
        supply, demand, den = _integer_masses(mu, nu)
        return _result(mu, nu, _line_basis(mu, nu, supply, demand), den)
    c = cost_matrix_l1(mu.support.points, nu.support.points)
    if mu.n == nu.n and _is_uniform(mu.weights) and _is_uniform(nu.weights):
        return _w1_assignment(mu, nu, c)
    supply, demand, den = _integer_masses(mu, nu)
    return _result(mu, nu, _solve_masses(c, supply, demand, _dyadic_shift(c), "flow"), den)


def _result(mu, nu, basis: _Basis, den: int) -> W1Result:
    """Value and plan of an optimal basis whose masses are the normalized
    weights times den; the value is the exact optimum rounded once (int
    true division is correctly rounded), and the dual gap is 0. The plan's
    atoms are the basis arcs, and it derives its float duals from the
    basis when they are first read."""
    value = basis.total / (den << basis.shift)
    i, j, f = zip(*basis.arcs)
    mass = np.array([x / den for x in f])
    exact = basis.u, basis.v, basis.shift
    plan = TransportPlan(np.array(i), np.array(j), mass, mu, nu, value, _potentials=exact)
    return W1Result(value=value, plan=plan, dual_gap=0.0)


def _w1_assignment(mu: EmpiricalMeasure, nu: EmpiricalMeasure, c: np.ndarray) -> W1Result:
    """W1 of two uniform measures of one size and dim via optimal assignment.

    For equal sizes and uniform weights the transportation LP optimum is
    attained at a permutation. scipy's Hungarian matching (float
    arithmetic; `_linear_sum_assignment` loads its compiled kernel alone),
    hung along its shortest-path tree (`_assignment_basis`), warm-starts
    the exact network simplex with unit masses (a one-point pair has the
    one matching and needs no scipy). Both are computed on the reduced
    matrix r = `_reduced_costs(c)`: in exact arithmetic row and column
    shifts change neither which matchings are optimal nor the tree, and in
    float r keeps the bits that tell the matchings of a contracted cloud
    apart. r never makes a result wrong:
    the simplex prices and certifies the true c, integerized with c's
    own dyadic shift, and r only decides where it starts. When the
    matching is exactly optimal for c the tree potentials are already
    dual feasible and the simplex certifies it without a pivot; otherwise
    it improves the matching. Either way it supplies exact duals. The value
    is the exact optimum rounded once, so it is exactly symmetric in the
    two inputs; the masses are exact, so the dual gap is 0. The plan
    refers to mu and nu themselves.
    """
    r = _reduced_costs(c)
    cols = [0] if mu.n == 1 else _linear_sum_assignment()(r)[1].tolist()
    basis = _network_simplex(c, _assignment_basis(r, cols), _dyadic_shift(c), "assignment")
    return _result(mu, nu, basis, mu.n)


@functools.cache
def _linear_sum_assignment():
    """`scipy.optimize.linear_sum_assignment` itself, loaded alone from its
    compiled module `scipy.optimize._lsap` without importing the
    `scipy.optimize` package and its hundreds of modules. The module is
    registered under its own name, so a later `import scipy.optimize`
    reuses it, and one loaded by such an import is reused here. Where
    scipy keeps the kernel elsewhere, the public function is imported."""
    name = "scipy.optimize._lsap"
    kernel = sys.modules.get(name)
    if kernel is None:
        scipy = importlib.util.find_spec("scipy")
        spec = scipy and importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(p, "optimize") for p in scipy.submodule_search_locations]
        )
        if spec is None:
            from scipy.optimize import linear_sum_assignment

            return linear_sum_assignment
        kernel = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(kernel)
        sys.modules[name] = kernel
    return kernel.linear_sum_assignment


def product_measure(mu1: EmpiricalMeasure, mu2: EmpiricalMeasure) -> EmpiricalMeasure:
    """mu1 (x) mu2 on R^{d1 + d2}; support size is the product of sizes."""
    n = mu1.n * mu2.n
    if n > MAX_PRODUCT_SUPPORT:
        raise SupportTooLarge(
            f"product support {n} exceeds the limit {MAX_PRODUCT_SUPPORT}"
        )
    pts = np.concatenate(
        [
            np.repeat(mu1.support.points, mu2.n, axis=0),
            np.tile(mu2.support.points, (mu1.n, 1)),
        ],
        axis=1,
    )
    w = np.outer(mu1.weights, mu2.weights).reshape(-1)
    return EmpiricalMeasure(PointCloud(pts), w)


def w1_product(
    mu1: EmpiricalMeasure,
    nu1: EmpiricalMeasure,
    mu2: EmpiricalMeasure,
    nu2: EmpiricalMeasure,
) -> tuple[float, float, float]:
    """(W1 of the product measures, W1(mu1, nu1), W1(mu2, nu2)).

    Callers assert subadditivity: the first entry never exceeds the sum of
    the other two (up to solver tolerance).
    """
    prod_mu = product_measure(mu1, mu2)
    prod_nu = product_measure(nu1, nu2)
    w_prod = w1(prod_mu, prod_nu).value
    w_1 = w1(mu1, nu1).value
    w_2 = w1(mu2, nu2).value
    return w_prod, w_1, w_2
