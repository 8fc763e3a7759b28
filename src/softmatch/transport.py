"""Exact 1-Wasserstein distance between empirical measures, l1 ground metric.

Every solve is one exact transportation network simplex. Every float is a
dyadic rational, so costs and weights are scaled by powers of two with no
rounding at all; flows and node potentials are exact Python integers on a
spanning-tree basis, and the optimum is converted back with one correctly
rounded division. numpy prices all N*M arcs at once from correctly rounded
float copies of the potentials; an arc enters only once its reduced cost
is confirmed negative in exact integers, and arcs within the float error
bound of zero are settled exactly. The solve stops when no arc is exactly
negative, so the primal, the dual and complementary slackness hold by
construction: every plan carries the dual potentials of its optimal basis,
rounded toward -inf so that they stay exactly feasible. The only
approximation anywhere is a mass-balance adjustment of a few integer
grains when the two weight vectors do not sum to bitwise identical totals;
its worst-case effect is charged to the reported dual gap.

Starting bases: the matrix-minimum allocation for weighted measures; for
uniform equal-size measures the LP is an assignment problem, and scipy's
Hungarian matching warm-starts the simplex, which supplies exact duals and
repairs the matching where float rounding left it suboptimal. Oracles:
factorial enumeration over permutations, and LCM replication for uniform
unequal sizes.

Desk-scale limits: the dense LP path accepts N, M <= 512.
"""
from __future__ import annotations

import logging
import math
from dataclasses import InitVar, dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import (
    DimMismatch,
    InvalidInput,
    OracleTooLarge,
    SizeMismatch,
    SupportTooLarge,
)
from .measures import EmpiricalMeasure, PointCloud, empirical

MAX_LP_SUPPORT = 512
MARGINAL_TOL = 1e-9

log = logging.getLogger("softmatch")


def cost_matrix_l1(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """c_ij = ||x_i - y_j||_1."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[1] != y.shape[1]:
        raise DimMismatch(f"dims {x.shape[1]} and {y.shape[1]} differ")
    c = np.abs(x[:, None, :] - y[None, :, :]).sum(axis=2)
    if not np.all(np.isfinite(c)):
        raise InvalidInput("non-finite transport costs")
    return c


# ---------------------------------------------------------------------------
# Exact dyadic integerization (floats are p / 2^k, no rounding involved)
# ---------------------------------------------------------------------------

def _dyadic_shift(values: np.ndarray) -> int:
    """The least shift >= 0 making every values[i] * 2**shift an integer:
    a finite float is an integer times 2**(exp - 53), exp from frexp."""
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    if not flat.size:
        return 0
    return max(0, 53 - int(np.frexp(flat)[1].min()))


def _dyadic_ints(values: np.ndarray, shift: int | None = None) -> tuple[list[int], int]:
    """Represent floats exactly as integers over one power-of-two denominator.

    Returns (ints, shift) with values[i] == ints[i] / 2**shift exactly;
    `shift` defaults to the least one that works and may be given larger.
    """
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    mant, exp = np.frexp(flat)
    # mant * 2^53 is integral for every finite float
    m_int = (mant * (1 << 53)).astype(np.int64)
    e_int = exp.astype(np.int64) - 53
    if shift is None:
        shift = _dyadic_shift(flat)
    ms = m_int.tolist()
    es = e_int.tolist()
    return [m << (e + shift) for m, e in zip(ms, es)], shift


def _integer_masses(wa: np.ndarray, wb: np.ndarray):
    """Exact integer supplies/demands over a common denominator, balanced.

    The two float weight vectors rarely sum to bitwise identical totals;
    the deficit (a few grains at most) is added to the largest entry of the
    lighter side and returned so callers can charge it to the dual gap.
    """
    ints, shift = _dyadic_ints(np.concatenate([wa, wb]))
    a = ints[: len(wa)]
    b = ints[len(wa):]
    ta, tb = sum(a), sum(b)
    slop = abs(ta - tb)
    if ta < tb:
        a[max(range(len(a)), key=a.__getitem__)] += tb - ta
    elif tb < ta:
        b[max(range(len(b)), key=b.__getitem__)] += ta - tb
    return a, b, shift, slop


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransportPlan:
    """A coupling gamma between two empirical measures certifying a cost.

    Invariants checked on construction: marginals match the measure weights
    and the stored cost matches sum_ij gamma_ij c_ij, both within 1e-9.
    `cost_matrix` lets a solver hand over the c it has already built for
    that check; it is not stored, and without it c is built here.
    Kantorovich dual potentials are available through dual_potentials();
    they satisfy u_i + v_j <= c_ij exactly, with equality (to an ulp) on
    the support of gamma when the plan is optimal.
    """

    gamma: np.ndarray
    source: EmpiricalMeasure
    target: EmpiricalMeasure
    cost: float
    _duals: tuple | None = None
    cost_matrix: InitVar[np.ndarray | None] = None

    def __post_init__(self, cost_matrix):
        g = np.asarray(self.gamma, dtype=np.float64)
        if g.shape != (self.source.n, self.target.n):
            raise InvalidInput(f"plan shape {g.shape} does not match measures")
        if np.any(g < -1e-15):
            raise InvalidInput("plan has negative entries")
        row_err = np.abs(g.sum(axis=1) - self.source.weights).max()
        col_err = np.abs(g.sum(axis=0) - self.target.weights).max()
        if max(row_err, col_err) > MARGINAL_TOL:
            raise InvalidInput(
                f"marginal mismatch {max(row_err, col_err):.3e} exceeds 1e-9"
            )
        c = cost_matrix
        if c is None:
            c = cost_matrix_l1(self.source.support.points, self.target.support.points)
        recomputed = float(np.sum(g * c))
        if abs(recomputed - self.cost) > MARGINAL_TOL * (1.0 + abs(self.cost)):
            raise InvalidInput(
                f"plan cost {recomputed!r} disagrees with stored {self.cost!r}"
            )

    def dual_potentials(self) -> tuple[np.ndarray, np.ndarray]:
        """Optimal Kantorovich potentials (u, v): u_i + v_j <= c_ij.

        Plans from the solvers carry the duals of their optimal basis,
        tight to an ulp wherever gamma_ij > 0. For a plan built by a caller
        they come from solving the LP of the two measures exactly, so they
        are feasible whatever the plan; a suboptimal plan shows up as
        certificate()["max_support_slack"] > 0.
        """
        if self._duals is None:
            c = cost_matrix_l1(self.source.support.points, self.target.support.points)
            supply, demand, _, _ = _integer_masses(self.source.weights, self.target.weights)
            shift = _dyadic_shift(c)
            basis = _solve_masses(c, supply, demand, shift, "duals")
            object.__setattr__(self, "_duals", _float_duals(basis, shift))
        return self._duals

    def certificate(self) -> dict:
        """Feasibility and complementary-slackness diagnostics (floats)."""
        u, v = self.dual_potentials()
        c = cost_matrix_l1(self.source.support.points, self.target.support.points)
        feas = float((u[:, None] + v[None, :] - c).max())
        supp = self.gamma > 0
        slack = float(np.abs((u[:, None] + v[None, :] - c))[supp].max()) if supp.any() else 0.0
        dual_obj = float(self.source.weights @ u + self.target.weights @ v)
        return {
            "max_feasibility_violation": feas,
            "max_support_slack": slack,
            "dual_objective": dual_obj,
            "primal_objective": self.cost,
        }


@dataclass(frozen=True)
class W1Result:
    """Optimal value, an optimal plan, and a certified duality gap."""

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
            d["plan"] = self.plan.gamma.tolist()
        return d


# ---------------------------------------------------------------------------
# Exact transportation network simplex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Basis:
    """An optimal basis: the spanning-tree arcs (i, j, flow), exact integer
    potentials u, v (costs scaled by 2**shift) with c_ij - u_i - v_j >= 0
    on every arc and = 0 on every basic arc, and the exact objective
    sum flow * c."""

    arcs: list
    u: list
    v: list
    total: int


def _matrix_minimum_basis(c: np.ndarray, supply: list, demand: list) -> list:
    """Matrix-minimum allocation with every node but the root sink m - 1
    carrying eps extra supply (eps less demand at a sink).

    Amounts are (grains, eps) pairs compared lexicographically. The
    perturbed problem is nondegenerate, so each allocation closes exactly
    one row or column until the last closes both: n + m - 1 arcs with
    positive perturbed flow, i.e. a spanning tree in which every zero-flow
    arc points from its source up to its sink (strongly feasible).
    """
    n, m = c.shape
    rem_s = [(a, 1) for a in supply]
    rem_d = [(b, -1) for b in demand]
    rem_d[-1] = (demand[-1], n + m - 1)
    row_open = np.ones(n, dtype=bool)
    col_open = np.ones(m, dtype=bool)
    order = np.argsort(c, axis=None, kind="stable")
    arcs = []
    need = n + m - 1
    chunk = 2 * need
    for lo in range(0, order.size, chunk):
        # drop cells already closed off in bulk; the rest are re-checked
        # one by one since each allocation closes a line
        cells = order[lo : lo + chunk]
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


def _network_simplex(c: np.ndarray, arcs: list, shift: int, path: str) -> _Basis:
    """Exact network simplex for the transportation problem on cost c.

    `arcs` is a strongly feasible spanning-tree basis (i, j, flow) rooted
    at sink m - 1: every zero-flow arc has its source as the child. Flows
    and potentials are exact Python integers; costs enter as
    c_ij * 2**shift. Pricing runs in numpy on correctly rounded float
    copies of the potentials, against a rigorous bound `err` on the
    rounding error of the float reduced cost r~:

    - r~ < -err: certainly negative;
    - |r~| <= err: a possible tie, settled exactly through the candidate
      list once no certainly negative arc is left. When 2 err is below
      2**-shift, the grain of the exact values, every such arc is exactly
      0 and none needs a check;
    - r~ > err: certainly nonnegative.

    Candidates are taken most negative first and each is re-priced in
    exact integers before it enters, so no arc enters on a stale or
    rounded value. The leaving arc is the last blocking arc met when
    walking the cycle from its apex along the entering arc (strongly
    feasible rule: the tree stays strongly feasible, so degenerate pivots
    cannot cycle). When no arc is exactly negative the flow is optimal
    and the tree potentials are an exact dual certificate.
    """
    n, m = c.shape
    size = n + m
    root = size - 1
    scale = 1 << shift
    grain = math.ldexp(1.0, -shift)
    cflat = np.ascontiguousarray(c).reshape(-1)
    c_max = float(cflat.max(initial=0.0))

    parent = [-1] * size
    flow = [0] * size  # flow on the arc between a node and its parent
    children = [[] for _ in range(size)]
    pot = [0] * size  # u_i at node i, v_j at node n + j
    basic = np.zeros(n * m, dtype=bool)
    # exact scaled costs are mant << sh, kept per arc in numpy
    mant, sh = np.frexp(cflat)
    mant = (mant * (1 << 53)).astype(np.int64)
    sh += shift - 53

    def exact_costs(ks):
        return [a << e for a, e in zip(mant[ks].tolist(), sh[ks].tolist())]

    adj = [[] for _ in range(size)]
    ks = [i * m + j for i, j, _ in arcs]
    for (i, j, f), ck in zip(arcs, exact_costs(ks)):
        adj[i].append((n + j, f, ck))
        adj[n + j].append((i, f, ck))
    basic[ks] = True
    stack = [root]
    while stack:
        x = stack.pop()
        for y, f, ck in adj[x]:
            if y != parent[x]:
                parent[y] = x
                flow[y] = f
                children[x].append(y)
                pot[y] = ck - pot[x]
                stack.append(y)
    potf = np.array([p / scale for p in pot])
    red = np.empty((n, m))
    flat_red = red.reshape(-1)
    block = max(8, size // 2)
    guard = 4 * n * m + 64
    pivots = degenerate = tie_checks = 0

    def pivot(i, j, r):
        nonlocal degenerate
        a, b = i, n + j
        # climb from both ends in turn until one meets the other's trail
        # at the apex; the paths list the child ends of the cycle's arcs
        path_a, path_b = [a], [b]
        at_a, at_b = {a: 0}, {b: 0}
        x, y = a, b
        while True:
            if x != root:
                x = parent[x]
                if x in at_b:
                    del path_b[at_b[x]:]
                    break
                at_a[x] = len(path_a)
                path_a.append(x)
            if y != root:
                y = parent[y]
                if y in at_a:
                    del path_a[at_a[y]:]
                    break
                at_b[y] = len(path_b)
                path_b.append(y)
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
        # shift its potentials (sources by s, sinks by -s) so the entering
        # arc becomes tight
        s = r if e_in < n else -r
        moved = []
        stack = [e_in]
        while stack:
            x = stack.pop()
            moved.append(x)
            pot[x] += s if x < n else -s
            stack += children[x]
        potf[moved] = [pot[x] / scale for x in moved]

    while True:
        np.subtract(c, potf[:n, None], out=red)
        red -= potf[None, n:]
        # |r~ - r| <= 2^-53 (2|c| + 3|u~| + 2|v~|) to first order (rounded
        # potentials, two rounded subtractions); 2^-50 (max c + 2 max|pot~|)
        # covers it with room, 2^-1070 covers subnormal potentials
        err = math.ldexp(c_max + 2.0 * float(np.abs(potf).max()), -50)
        err += math.ldexp(1.0, -1070)
        cand = np.flatnonzero(flat_red < -err)
        ties = cand.size == 0
        if ties:
            if 2.0 * err < grain:
                break
            cand = np.flatnonzero(flat_red <= err)
            cand = cand[~basic[cand]]
            if cand.size == 0:
                break
        order = np.argsort(flat_red[cand], kind="stable")
        cand = cand[order if ties else order[:block]]
        entered = 0
        for k, ck in zip(cand.tolist(), exact_costs(cand)):
            i, j = divmod(k, m)
            r = ck - pot[i] - pot[n + j]
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
    arcs = [
        (x, parent[x] - n, flow[x]) if x < n else (parent[x], x - n, flow[x])
        for x in range(root)
    ]
    costs = exact_costs([i * m + j for i, j, _ in arcs])
    total = sum(f * ck for (_, _, f), ck in zip(arcs, costs))
    return _Basis(arcs, pot[:n], pot[n:], total)


def _matching_basis(cols: list) -> list:
    """Unit masses matched i -> cols[i], plus a zero-flow arc from every
    other source up to the root sink n - 1: a strongly feasible basis."""
    root = len(cols) - 1
    return [(i, j, 1) for i, j in enumerate(cols)] + [
        (i, root, 0) for i, j in enumerate(cols) if j != root
    ]


def _solve_masses(c: np.ndarray, supply: list, demand: list, shift: int, path: str) -> _Basis:
    """Optimal basis from the matrix-minimum start for integer masses.

    Zero-mass nodes would leave zero-flow leaves that no rooting makes
    strongly feasible, so they sit out of the simplex; each then gets the
    largest potential keeping all of its arcs dual feasible.
    """
    n, m = c.shape
    rows = [i for i in range(n) if supply[i]]
    cols = [j for j in range(m) if demand[j]]
    if len(rows) == n and len(cols) == m:
        return _network_simplex(c, _matrix_minimum_basis(c, supply, demand), shift, path)
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
    return _Basis(arcs, u, v, basis.total)


def _float_duals(basis: _Basis, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """The exact potentials over 2**shift, each rounded toward -inf: then
    u_i + v_j <= c_ij still holds exactly for the floats, and they stay
    within an ulp of tight on the support."""
    scale = 1 << shift

    def floor(x: int) -> float:
        f = x / scale
        p, q = f.as_integer_ratio()
        return math.nextafter(f, -math.inf) if p * scale > x * q else f

    return (
        np.array([floor(x) for x in basis.u]),
        np.array([floor(x) for x in basis.v]),
    )


# ---------------------------------------------------------------------------
# Public solvers
# ---------------------------------------------------------------------------

def _is_uniform(mu: EmpiricalMeasure) -> bool:
    return bool(np.all(mu.weights == mu.weights[0]))


def _check_pair(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> None:
    if mu.dim != nu.dim:
        raise DimMismatch(f"measure dims {mu.dim} and {nu.dim} differ")
    if mu.n > MAX_LP_SUPPORT or nu.n > MAX_LP_SUPPORT:
        raise SupportTooLarge(
            f"LP path supports N, M <= {MAX_LP_SUPPORT}, got {mu.n}, {nu.n}"
        )


def w1(mu: EmpiricalMeasure, nu: EmpiricalMeasure, method: str = "auto") -> W1Result:
    """Exact W1 between empirical measures with l1 ground costs.

    method:
      "flow"       the exact network simplex from the matrix-minimum
                   start (always applicable);
      "assignment" the simplex warm-started from a Hungarian matching
                   (uniform, equal sizes only);
      "auto"       dispatch to the assignment path when it applies.
    """
    _check_pair(mu, nu)
    if method not in ("auto", "flow", "assignment"):
        raise InvalidInput(f"unknown method {method!r}")
    if method != "flow" and mu.n == nu.n and _is_uniform(mu) and _is_uniform(nu):
        return _w1_assignment(mu, nu)
    if method == "assignment":
        raise SizeMismatch("assignment path needs uniform equal-size measures")

    c = cost_matrix_l1(mu.support.points, nu.support.points)
    supply, demand, w_shift, slop = _integer_masses(mu.weights, nu.weights)
    c_shift = _dyadic_shift(c)
    basis = _solve_masses(c, supply, demand, c_shift, "flow")
    mass_den = 1 << w_shift
    gap = float(Fraction(slop, mass_den)) * float(c.max(initial=0.0))
    return _result(mu, nu, c, basis, c_shift, mass_den, gap)


def _result(mu, nu, c, basis: _Basis, c_shift: int, mass_den: int, gap: float) -> W1Result:
    """Value, plan and duals of an optimal basis whose masses are
    weights * mass_den; the value is the exact optimum rounded once."""
    value = float(Fraction(basis.total, mass_den << c_shift))
    gamma = np.zeros(c.shape)
    for i, j, f in basis.arcs:
        gamma[i, j] = f / mass_den
    plan = TransportPlan(
        gamma, mu, nu, value, _duals=_float_duals(basis, c_shift), cost_matrix=c
    )
    return W1Result(value=value, plan=plan, dual_gap=gap)


def _exact_mean(values: np.ndarray, n: int) -> float:
    """sum(values) / n evaluated in exact rational arithmetic, rounded once.

    l1 costs tie exactly in real arithmetic surprisingly often (nested
    intervals in 1-d transport); exact evaluation makes the value identical
    across any optimal matching the solver happens to pick, and therefore
    exactly symmetric in the two inputs.
    """
    ints, shift = _dyadic_ints(values)
    return float(Fraction(sum(ints), n << shift))


def w1_equal_size_assignment(x: PointCloud, y: PointCloud) -> W1Result:
    """W1 of the two uniform empirical measures via optimal assignment.

    For equal sizes and uniform weights the transportation LP optimum is
    attained at a permutation. scipy's Hungarian matching (float
    arithmetic) warm-starts the exact network simplex with unit masses,
    which certifies it, or improves it where rounding left it suboptimal,
    and supplies exact duals. The value is the exact optimum rounded once,
    so it is exactly symmetric in the two inputs; the masses are exact, so
    the dual gap is 0.
    """
    if not isinstance(x, PointCloud):
        x = PointCloud(x)
    if not isinstance(y, PointCloud):
        y = PointCloud(y)
    if x.n != y.n:
        raise SizeMismatch(f"equal-size path got sizes {x.n} and {y.n}")
    if x.dim != y.dim:
        raise DimMismatch(f"dims {x.dim} and {y.dim} differ")
    return _w1_assignment(empirical(x), empirical(y))


def _w1_assignment(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> W1Result:
    """The assignment path on two uniform measures of one size and dim;
    the plan refers to mu and nu themselves."""
    c = cost_matrix_l1(mu.support.points, nu.support.points)
    _, cols = linear_sum_assignment(c)
    shift = _dyadic_shift(c)
    basis = _network_simplex(c, _matching_basis(cols.tolist()), shift, "assignment")
    return _result(mu, nu, c, basis, shift, mu.n, 0.0)


def w1_oracle_permutations(x: PointCloud, y: PointCloud) -> float:
    """Factorial brute force: min over all N! matchings of the mean cost."""
    from itertools import permutations

    if x.n != y.n:
        raise SizeMismatch(f"permutation oracle got sizes {x.n} and {y.n}")
    if x.n > 8:
        raise OracleTooLarge(f"{x.n}! permutations is past the oracle limit")
    c = cost_matrix_l1(x.points, y.points)
    idx = np.arange(x.n)
    best = math.inf
    for perm in permutations(range(x.n)):
        total = float(c[idx, list(perm)].sum())
        if total < best:
            best = total
    return best / x.n


def w1_oracle_lcm(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Replicate both uniform supports to lcm(N, M) points and assign.

    Exact for uniform empirical measures. Limited to lcm(N, M) <= 12.
    """
    _check_pair(mu, nu)
    if not (_is_uniform(mu) and _is_uniform(nu)):
        raise InvalidInput("LCM oracle needs uniform weights on both sides")
    n, m = mu.n, nu.n
    lcm = n * m // math.gcd(n, m)
    if lcm > 12:
        raise OracleTooLarge(f"lcm({n}, {m}) = {lcm} exceeds the oracle limit 12")
    xs = np.repeat(mu.support.points, lcm // n, axis=0)
    ys = np.repeat(nu.support.points, lcm // m, axis=0)
    c = cost_matrix_l1(xs, ys)
    rows, cols = linear_sum_assignment(c)
    return _exact_mean(c[rows, cols], lcm)


def product_measure(
    mu1: EmpiricalMeasure, mu2: EmpiricalMeasure, max_support: int = 64
) -> EmpiricalMeasure:
    """mu1 (x) mu2 on R^{d1 + d2}; support size is the product of sizes."""
    n = mu1.n * mu2.n
    if n > max_support:
        raise SupportTooLarge(f"product support {n} exceeds the limit {max_support}")
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
