"""Closed-form contraction and Lipschitz constants, with full provenance.

Component coefficients on a compact convex domain E:

    tau(Pi) = d                                  (barycenter projection)
    tau(Psi_G) = 2 (lip_left + lip_right) diam_l1(E) / eps(G)
    tau(L) = Lipschitz constant of the lookup map

and the composed attention map contracts W1 by at most their product.
The Gaussian-potential bound on the unbounded domain trades diam(E) and
eps(G) for a sqrt(ln min(N, M) + 1/2e) support-size term.

Every report records its ingredients with their provenance and the
assumptions its status follows from, and can be re-evaluated exactly.
"""
from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePotential, DimMismatch, InvalidInput, RequiresCompactDomain
from .kernels import AttentionConfig, Lookup
from .measures import DomainBox
from .potentials import (
    GAUSSIAN_LIP,
    Provenance,
    RegularityStats,
    query_lipschitz,
    regularity_stats,
)

@dataclass(frozen=True)
class Ingredient:
    value: float
    provenance: Provenance

    def to_dict(self) -> dict:
        return {"value": self.value, "provenance": self.provenance.to_dict()}


@dataclass(frozen=True, eq=False)
class BoundReport:
    """A theorem constant, its ingredients, and the assumptions behind it.

    The status follows from them: "inapplicable" when an assumption
    failed, else "estimated" when an ingredient was sampled (a sampled
    sup or inf only estimates the true one), else "ok", which promises a
    true upper bound. Diagnostics are reported values that the constant
    does not use. Equality is identity; compare reports by `to_dict()`.
    """

    theorem: str
    value: float
    ingredients: dict
    assumptions_checked: tuple
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.theorem not in _TABLE:
            raise InvalidInput(f"unknown theorem tag {self.theorem!r}")
        if not (self.value >= 0):
            raise InvalidInput("bound value must be nonnegative")

    @property
    def status(self) -> str:
        if not all(ok for _, ok in self.assumptions_checked):
            return "inapplicable"
        if any(i.provenance.kind == "sampled" for i in self.ingredients.values()):
            return "estimated"
        return "ok"

    def to_dict(self) -> dict:
        d = {
            "theorem": self.theorem,
            "value": self.value,
            "status": self.status,
            "ingredients": {k: v.to_dict() for k, v in self.ingredients.items()},
            "assumptions_checked": [list(a) for a in self.assumptions_checked],
        }
        if self.diagnostics:
            d["diagnostics"] = {k: v.to_dict() for k, v in self.diagnostics.items()}
        return d


_ANALYTIC = Provenance("analytic")


def tau_pi(d: int) -> float:
    """Contraction coefficient of the barycenter projection: the dimension."""
    d = int(d)
    if d < 1:
        raise InvalidInput("dimension must be >= 1")
    return float(d)


def tau_lookup(lookup: Lookup) -> float:
    """tau(L) for deterministic lookups: the map's Lipschitz constant."""
    return float(lookup.lip())


def _require_compact(box: DomainBox, stats: RegularityStats, what: str) -> None:
    """The guards of every formula dividing diam_l1(E) by eps(G)."""
    if not box.is_bounded:
        raise RequiresCompactDomain(f"{what} needs a bounded E")
    if not (stats.eps_g > 0):
        raise DegeneratePotential(f"eps(G) = {stats.eps_g!r} must be positive")


def tau_softmatch_bounded(stats: RegularityStats, box: DomainBox) -> float:
    """2 (lip_left + lip_right) diam_l1(E) / eps(G) on a compact box."""
    _require_compact(box, stats, "tau(Psi_G) in this form")
    return 2.0 * (stats.lip_left + stats.lip_right) * box.diameter_l1() / stats.eps_g


def _compact_report(
    theorem: str, cfg: AttentionConfig, box: DomainBox, stats, q=None
) -> BoundReport:
    """The report of a theorem on a compact convex domain. Each reads
    tau_pi, tau_lookup, diam_l1, eps_g and lip_left; the composite bound
    adds tau_softmatch and lip_right, cross-attention the per-query lip_q."""
    stats = stats or regularity_stats(cfg.potential, box)
    _require_compact(box, stats, theorem)
    prov = stats.provenance
    composite = _TABLE[theorem].formula is _composite
    ingredients = {"tau_pi": Ingredient(tau_pi(cfg.dim), _ANALYTIC)}
    if composite:
        ingredients["tau_softmatch"] = Ingredient(
            tau_softmatch_bounded(stats, box), prov["lip_left"]
        )
    ingredients |= {
        "tau_lookup": Ingredient(tau_lookup(cfg.lookup), _ANALYTIC),
        "diam_l1": Ingredient(box.diameter_l1(), _ANALYTIC),
        "eps_g": Ingredient(stats.eps_g, prov["eps_g"]),
        "lip_left": Ingredient(stats.lip_left, prov["lip_left"]),
    }
    if composite:
        ingredients["lip_right"] = Ingredient(stats.lip_right, prov["lip_right"])
    if theorem == "CrossAttention":
        ingredients["lip_q"] = Ingredient(query_lipschitz(cfg.potential, q, box), _ANALYTIC)
    seminorms = [v.value for k, v in ingredients.items() if k.startswith("lip_")]
    assumptions = (
        ("E compact", box.is_bounded),
        ("E convex", True),
        ("eps(G) > 0", stats.eps_g > 0),
        ("seminorms finite", all(math.isfinite(s) for s in seminorms)),
    )
    return BoundReport(theorem, _value(theorem, ingredients), ingredients, assumptions)


def bound_bounded_contraction(
    cfg: AttentionConfig, box: DomainBox, stats: RegularityStats | None = None
) -> BoundReport:
    """tau(Pi) tau(Psi_G) tau(L): the composite W1 contraction constant of
    self-attention on a compact convex domain."""
    return _compact_report("BoundedContraction", cfg, box, stats)


def bound_component_taus(
    cfg: AttentionConfig, box: DomainBox, stats: RegularityStats | None = None
) -> BoundReport:
    """The three component coefficients, reported individually; the value is
    their product (the composite bound)."""
    return _compact_report("ComponentTaus", cfg, box, stats)


def bound_pointwise_query(
    cfg: AttentionConfig, box: DomainBox, stats: RegularityStats | None = None
) -> BoundReport:
    """l2-to-l2 Lipschitz constant of q -> Attention(q, K, V) for fixed keys:
    d^{3/2} ||ell||_Lip 2 lip_left diam_l1(E) / eps(G)."""
    return _compact_report("BoundedPointwiseCorollary", cfg, box, stats)


def bound_cross_attention(
    cfg: AttentionConfig, box: DomainBox, q: np.ndarray,
    stats: RegularityStats | None = None,
) -> BoundReport:
    """Per-query cross-attention constant: the l2 distance between
    Attention(q, X, X) and Attention(q, Y, Y) is at most this times
    W1(m(X), m(Y)); q must have shape (cfg.dim,)."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (cfg.dim,):
        raise DimMismatch(f"query of shape {q.shape} for a potential of dim {cfg.dim}")
    return _compact_report("CrossAttention", cfg, box, stats, q)


def ratio_lemma_bound(n: int) -> float:
    """sqrt(ln n + 1/(2e)): the cap on sum z_i e^{-z_i^2} / (1 + sum e^{-z_i^2})."""
    n = int(n)
    if n < 1:
        raise InvalidInput("n must be >= 1")
    return math.sqrt(math.log(n) + 1.0 / (2.0 * math.e))


# the float just above 1/(2 sqrt e), given exp's error below one ulp
_HALF_RSQRT_E_UP = math.nextafter(0.5 * math.exp(-0.5), math.inf)
# w e^w is certified at or above y once its float value clears y by this
# relative margin, which covers up to 16 ulps of error in exp and the
# rounding of the product and of the target
_EXP_MARGIN = 2.0**-47


def ratio_lemma_sup(n):
    """The supremum m_n of f(z) = sum z_i e^{-z_i^2} / (1 + sum e^{-z_i^2})
    over R^n, rounded upward; vectorised over n (an int gives a float).

        m_n = x - 1/(2x),  x^2 = W(n / (2 sqrt e)) + 1/2,

    with W Lambert's function. Proof: replacing z_i by |z_i| only raises
    f, so its sup over R^n is its sup over z >= 0. There
    df/dz_i = e^{-z_i^2} (1 - 2 z_i^2 + 2 z_i f) / (1 + sum_j e^{-z_j^2}),
    which is positive at z_i = 0, so no maximiser has a zero coordinate.
    At an interior critical point every z_i is the one positive root of
    2 z^2 - 2 f z - 1 = 0, so all coordinates are equal, and then
    f = z - 1/(2z) with n e^{-z^2} = 2 z^2 - 1, that is u e^u = n / (2 sqrt e)
    for u = z^2 - 1/2. f tends to 0 at infinity, so the maximum is attained
    and equals m_n.

    In floats: y = n / (2 sqrt e) is rounded up, six Halley steps from
    log1p(y) >= W(y) settle w near W(y), and w is then widened in steps of
    1, 2, 4, ... ulps until fl(w e^w) clears y by `_EXP_MARGIN`, so that
    w >= W(y) holds in exact arithmetic. x and m_n increase with w, and
    each step from w to m_n is correctly rounded and then moved one ulp
    outward. The result is at most a few units of 1e-15 above the true m_n
    (tested against 200-bit mpmath for n <= 10^6), and 0.45-0.84 of the
    cap `ratio_lemma_bound(n)`. n must lie in 1..2^53, where it is exact
    as a float.
    """
    bad = InvalidInput("n must be in 1..2^53")
    try:
        ns = np.asarray(n, dtype=np.int64)
    except OverflowError:
        raise bad from None
    if np.any(ns < 1) or np.any(ns > 2**53):
        raise bad
    y = np.nextafter(ns * _HALF_RSQRT_E_UP, np.inf)
    w = np.log1p(y)
    for _ in range(6):
        t = w - y * np.exp(-w)
        w = w - t / (w + 1.0 - (w + 2.0) * t / (2.0 * w + 2.0))
    target, ulps = y * (1.0 + _EXP_MARGIN), 1.0
    while (short := w * np.exp(w) < target).any():
        w = np.where(short, w + ulps * np.spacing(w), w)
        ulps *= 2.0
    x = np.nextafter(np.sqrt(np.nextafter(w + 0.5, np.inf)), np.inf)
    m = np.nextafter(x - np.nextafter(0.5 / x, -np.inf), np.inf)
    return float(m) if m.ndim == 0 else m


def loose_gradient_constant(d: int) -> float:
    """The verbatim constant sqrt(d) + 2 used by the unbounded bound."""
    return math.sqrt(int(d)) + 2.0


# tight_gradient_constant's grid: a = 0, 0.01, ..., 3
_GRADIENT_GRID = tuple(0.01 * i for i in range(301))
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _gradient_profile(a: float, k: int) -> float:
    """g(a) = h(a, min(a, b*(a))) for d = k + 1: the largest gradient value
    over the vectors whose largest coordinate is a (see
    `tight_gradient_constant`)."""
    c = 2.0 + a
    b = min(a, 1.0 / (c + math.sqrt(c * c + 2.0 * k)))
    return 2.0 * (c + k * b) * a * math.exp(-a * a - k * b * b)


def tight_gradient_constant(d: int) -> float:
    """The maximum C_d of f(u) = 2 (2 + ||u||_1) ||u||_inf exp(-||u||_2^2)
    over R^d, which sqrt(d) + 2 upper-bounds loosely; a diagnostic for
    reports, never used in a bound.

    Reduction to one variable: f(|u|) = f(u), so take u >= 0 with its
    largest coordinate a = ||u||_inf and k = d - 1 others in [0, a]. At a
    fixed sum of the others their sum of squares is least when they are
    all equal, to some b <= a, so C_d is the maximum of

        h(a, b) = 2 (2 + a + k b) a exp(-a^2 - k b^2),   0 <= b <= a.

    dh/db has the sign of 1 - 2b (2 + a + k b), which falls as b grows
    and vanishes at b*(a) = 1 / ((2 + a) + sqrt((2 + a)^2 + 2k)). So the
    best b at a fixed a is min(a, b*(a)), and C_d is the maximum over
    a >= 0 of g(a) = h(a, min(a, b*(a))).

    g has one maximum. a - b*(a) increases, so b*(a) >= a exactly on some
    [0, a_c], a_c <= 1/4. There g(a) = 2a (2 + d a) exp(-d a^2) and
    (log g)' = 1/a + d / (2 + d a) - 2 d a; beyond it, by the envelope
    theorem, (log g)' = 1/a - 2a + 2 b*(a). Both fall as a grows and they
    agree at a_c, so log g is concave on a > 0. Its derivative is positive
    at a = 1/sqrt(2) and negative at a = 0.81, so the maximiser lies
    between them for every d.

    The tail past the grid: for a >= a0 = 1/sqrt(2), dropping b <= a gives
    g(a) <= 2a exp(-a^2) Phi(a) with Phi(a) = max over b >= 0 of
    (2 + a + k b) exp(-k b^2), with equality at a0 as b*(a0) < a0, and
    Phi(a) <= Phi(a0) (2 + a) / (2 + a0). As a (2 + a) exp(-a^2) falls on
    a >= 1, every a >= 3 has g(a) <= g(a0) * 15 e^-9 / (a0 (2 + a0) e^-1/2)
    < 0.0016 C_d, whatever d.

    g is evaluated on the grid a = 0, 0.01, ..., 3, and golden-section
    steps then narrow the two grid steps around its best point, which hold
    the maximiser. The result, the largest value seen, is a lower estimate
    of C_d; tested within 1e-12 relative of a 200-bit mpmath maximum for
    d up to 1024. Time and memory do not grow with d.
    """
    d = int(d)
    if d < 1:
        raise InvalidInput("dimension must be >= 1")
    k = d - 1
    values = [_gradient_profile(a, k) for a in _GRADIENT_GRID]
    i = values.index(best := max(values))
    lo, hi = _GRADIENT_GRID[max(i - 1, 0)], _GRADIENT_GRID[min(i + 1, len(values) - 1)]
    for _ in range(60):
        x1, x2 = hi - _INV_GOLDEN * (hi - lo), lo + _INV_GOLDEN * (hi - lo)
        f1, f2 = _gradient_profile(x1, k), _gradient_profile(x2, k)
        best = max(best, f1, f2)
        lo, hi = (x1, hi) if f1 < f2 else (lo, x2)
    return best


def bound_unbounded_gaussian(
    lookup: Lookup, d: int, n: int, m: int, include_tight_c: bool = False
) -> BoundReport:
    """Gaussian-potential contraction bound on the unbounded domain:

        2 tau(Pi) tau(L) [ sup G + sqrt(d) + 2
                           + sqrt(d) sqrt(ln min(N, M) + 1/2e) ||G||_Lip ]

    with tau(Pi) = d and sup G = 1. The sqrt(d) + 2 term is the stated
    loose gradient constant; a numerically maximized alternative can be
    attached as a diagnostic (never in the value).

    The constant holds for Gaussian attention of dimension d. This function
    sees only the lookup, so the caller answers for the potential; the CLI
    refuses any other potential for this theorem.
    """
    d, n, m = int(d), int(n), int(m)
    if d < 1 or n < 1 or m < 1:
        raise InvalidInput("need d, N, M >= 1")
    gauss_prov = Provenance(
        "analytic",
        note="l2 gradient bound sqrt(2/e); valid in l1 since ||.||_2 <= ||.||_1",
    )
    ingredients = {
        "tau_pi": Ingredient(float(d), _ANALYTIC),
        "tau_lookup": Ingredient(tau_lookup(lookup), _ANALYTIC),
        "sup_g": Ingredient(1.0, _ANALYTIC),
        "lip_g": Ingredient(GAUSSIAN_LIP, gauss_prov),
        "support_term": Ingredient(ratio_lemma_bound(min(n, m)), _ANALYTIC),
        "gradient_constant_loose": Ingredient(
            loose_gradient_constant(d),
            Provenance("analytic", note="verbatim loose constant sqrt(d) + 2"),
        ),
    }
    diagnostics = {}
    if include_tight_c:
        diagnostics["gradient_constant_numeric"] = Ingredient(
            tight_gradient_constant(d),
            Provenance(
                "sampled",
                note="numeric maximization, diagnostic only, not used in the value",
            ),
        )
    assumptions = (("N, M >= 1", True),)
    return BoundReport(
        "UnboundedGaussian", _value("UnboundedGaussian", ingredients), ingredients,
        assumptions, diagnostics=diagnostics,
    )


def bound_unbounded_equal_n(lookup: Lookup, d: int, n: int) -> BoundReport:
    """The equal-length corollary; structurally identical to the theorem
    value at N = M (exact identity, tested)."""
    report = bound_unbounded_gaussian(lookup, d, n, n)
    return dataclasses.replace(report, theorem="UnboundedEqualN")


@dataclass(frozen=True)
class _Theorem:
    """A theorem: its `softmatch bound` name, report builder, formula on the
    ingredient values and the builder's arguments by name (the compact
    family takes a box), and the `probes` function testing it (named, as
    probes imports bounds) with the `softmatch probe` names that run it,
    each with its component kind (None: the whole map)."""

    name: str
    build: Callable[..., BoundReport]
    formula: Callable[[dict], float]
    family: tuple
    probe: str | None = None
    probe_names: tuple = ()

    def report(self, **inputs) -> BoundReport:
        """The report on the inputs the family names; others are ignored."""
        return self.build(*(inputs[k] for k in self.family))


def _composite(v: dict) -> float:
    return v["tau_pi"] * v["tau_softmatch"] * v["tau_lookup"]


def _unbounded(v: dict) -> float:
    bracket = v["sup_g"] + v["gradient_constant_loose"]
    bracket += math.sqrt(v["tau_pi"]) * v["support_term"] * v["lip_g"]
    return 2.0 * v["tau_pi"] * v["tau_lookup"] * bracket


# every theorem by the tag its reports carry: THEOREMS, every report's value
# and the --theorem choices and dispatch of `softmatch bound` and `probe`
_TABLE = {
    "BoundedContraction": _Theorem(
        "bounded", bound_bounded_contraction, _composite, ("cfg", "box"),
        "probe_contraction", (("bounded", None),),
    ),
    "BoundedPointwiseCorollary": _Theorem(
        "pointwise", bound_pointwise_query,
        lambda v: v["tau_pi"] ** 1.5 * v["tau_lookup"] * 2.0 * v["lip_left"]
        * v["diam_l1"] / v["eps_g"],
        ("cfg", "box"),
    ),
    "UnboundedGaussian": _Theorem(
        "unbounded-gaussian", bound_unbounded_gaussian, _unbounded,
        ("lookup", "d", "n", "m", "include_tight_c"),
        "probe_contraction", (("unbounded-gaussian", None),),
    ),
    "UnboundedEqualN": _Theorem(
        "unbounded-equal-n", bound_unbounded_equal_n, _unbounded, ("lookup", "d", "n")
    ),
    "CrossAttention": _Theorem(
        "cross-attention", bound_cross_attention,
        lambda v: v["tau_pi"] * v["tau_lookup"] * 2.0 * v["lip_q"]
        * v["diam_l1"] / v["eps_g"],
        ("cfg", "box", "q"),
    ),
    "ComponentTaus": _Theorem(
        "component-taus", bound_component_taus, _composite, ("cfg", "box"),
        "probe_component", (
            ("component-projection", "projection"), ("component-lookup", "lookup"),
            ("component-softmatch-x", "softmatch_in_x"),
            ("component-softmatch-measure", "softmatch_in_measure"),
        ),
    ),
}
THEOREMS = tuple(_TABLE)


def _value(theorem: str, ingredients: dict) -> float:
    """The theorem's formula on the ingredient values, for builders and `reevaluate`."""
    return _TABLE[theorem].formula({k: v.value for k, v in ingredients.items()})


def reevaluate(report: BoundReport) -> float:
    """Recompute a report's value from its own ingredients map, exactly.

    Self-consistency contract: this matches report.value bit for bit, as
    both come from `_value`.
    """
    return _value(report.theorem, report.ingredients)
