"""Randomized empirical validation of the contraction estimates.

A probe samples pairs of empirical measures, pushes both through a map
(full self-attention, or one of its components), and records the observed
W1 ratio against the matching closed-form bound. Sampled maxima are lower
estimates of the true contraction coefficient; the falsifiable claim is
that no sampled ratio ever exceeds its bound.

Also here: direct numerical checks of the three auxiliary lemmas (the
ratio cap sqrt(ln n + 1/2e), tensorized subadditivity of W1, and the
locality of the Lipschitz seminorm).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import ratio_lemma_bound
from .errors import InvalidInput
from .kernels import (
    AttentionConfig,
    Lookup,
    apply_lookup,
    attention_pushforward,
    softmatch_measure,
)
from .measures import DomainBox, EmpiricalMeasure, PointCloud, barycenter, empirical
from .potentials import Potential, regularity_stats
from .streams import stream
from .transport import w1, w1_product
from . import bounds as bounds_mod

DEGENERATE_W1 = 1e-12
VIOLATION_SLACK = 1e-7

_QUANTILES = (0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)

PERTURBATIONS = ("resample", "jitter", "drop_point", "duplicate_point")

COMPONENT_KINDS = (
    "softmatch_in_x",
    "softmatch_in_measure",
    "projection",
    "lookup",
)


@dataclass(frozen=True)
class ProbeConfig:
    """How to sample measure pairs.

    domain bounded: clouds are drawn uniformly inside the box (jitter is
    clipped back in, so the bounded-domain theorems stay applicable).
    domain unbounded: clouds are drawn in the cube of the given sampling
    radius and never clipped.
    """

    seed: int = 0
    trials: int = 100
    d: int = 2
    n_range: tuple = (2, 8)
    domain: DomainBox = field(default_factory=DomainBox.unbounded)
    sampling_radius: float = 5.0
    perturbation: str = "resample"
    jitter_sigma: float = 0.1

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidInput("trials must be >= 1")
        lo, hi = self.n_range
        if not (1 <= lo <= hi):
            raise InvalidInput(f"bad n_range {self.n_range!r}")
        if self.perturbation not in PERTURBATIONS:
            raise InvalidInput(f"unknown perturbation {self.perturbation!r}")
        if self.domain.is_bounded and self.domain.dim != self.d:
            raise InvalidInput(
                f"domain dim {self.domain.dim} does not match probe d={self.d}"
            )

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "d": self.d,
            "n_range": list(self.n_range),
            "domain": self.domain.to_dict(),
            "sampling_radius": self.sampling_radius,
            "perturbation": self.perturbation,
            "jitter_sigma": self.jitter_sigma,
        }


@dataclass(frozen=True)
class ProbeResult:
    """Sampled ratio statistics against a bound.

    violations counts ratios above bound + 1e-7 * max(1, bound); ratios
    with a degenerate denominator (W1 < 1e-12) are skipped and counted
    separately. max_ratio is a lower estimate of the true coefficient.
    """

    max_ratio: float
    argmax_instance: dict | None
    bound: float | None
    violations: int
    histogram: dict
    skipped: int
    trials: int
    ratios: tuple = ()

    def to_dict(self) -> dict:
        return {
            "max_ratio": self.max_ratio,
            "bound": self.bound,
            "violations": self.violations,
            "skipped": self.skipped,
            "trials": self.trials,
            "histogram": self.histogram,
            "argmax_instance": self.argmax_instance,
        }


def violation_threshold(bound: float) -> float:
    return bound + VIOLATION_SLACK * max(1.0, abs(bound))


def _sample_cloud(rng: np.random.Generator, n: int, probe: ProbeConfig) -> np.ndarray:
    if probe.domain.is_bounded:
        lo, hi = probe.domain.lower, probe.domain.upper
        return rng.uniform(lo, hi, size=(n, probe.d))
    r = probe.sampling_radius
    return rng.uniform(-r, r, size=(n, probe.d))


def _sample_pair(rng: np.random.Generator, probe: ProbeConfig):
    lo, hi = probe.n_range
    mode = probe.perturbation
    if mode == "resample":
        n = int(rng.integers(lo, hi + 1))
        m = int(rng.integers(lo, hi + 1))
        return empirical(_sample_cloud(rng, n, probe)), empirical(
            _sample_cloud(rng, m, probe)
        )
    if mode == "drop_point" and hi < 2:
        raise InvalidInput("drop_point needs clouds of at least 2 points")
    n = int(rng.integers(max(lo, 2) if mode == "drop_point" else lo, hi + 1))
    base = _sample_cloud(rng, n, probe)
    if mode == "jitter":
        other = base + probe.jitter_sigma * rng.standard_normal(base.shape)
        other = probe.domain.clip(other)
    elif mode == "drop_point":
        keep = np.delete(np.arange(n), int(rng.integers(n)))
        other = base[keep]
    else:  # duplicate_point
        other = np.vstack([base, base[int(rng.integers(n))]])
    return empirical(base), empirical(other)


def _aggregate(
    ratios: list, instances: list, bound: float | None, skipped: int, trials: int
) -> ProbeResult:
    if ratios:
        arr = np.array(ratios)
        hist = {
            f"q{q:g}": float(np.quantile(arr, q)) for q in _QUANTILES
        }
        top = int(np.argmax(arr))
        max_ratio = float(arr[top])
        argmax = instances[top]
    else:
        hist = {}
        max_ratio = 0.0
        argmax = None
    violations = 0
    if bound is not None and ratios:
        violations = int(np.sum(np.array(ratios) > violation_threshold(bound)))
    return ProbeResult(
        max_ratio=max_ratio,
        argmax_instance=argmax,
        bound=bound,
        violations=violations,
        histogram=hist,
        skipped=skipped,
        trials=trials,
        ratios=tuple(ratios),
    )


def probe_contraction(
    cfg: AttentionConfig, probe: ProbeConfig, bound: float | None = None
) -> ProbeResult:
    """Sample measure pairs, push both through full self-attention (the
    output cloud carries the input's weights), and compare W1 ratios to
    the supplied bound."""
    ratios, instances = [], []
    skipped = 0
    for t in range(probe.trials):
        rng = stream(probe.seed, t)
        mu, nu = _sample_pair(rng, probe)
        d_in = w1(mu, nu).value
        if d_in < DEGENERATE_W1:
            skipped += 1
            continue
        out_mu = attention_pushforward(cfg, mu)
        out_nu = attention_pushforward(cfg, nu)
        d_out = w1(out_mu, out_nu).value
        ratios.append(d_out / d_in)
        instances.append(
            {"trial": t, "ratio": d_out / d_in, "mu": mu.to_dict(), "nu": nu.to_dict()}
        )
    return _aggregate(ratios, instances, bound, skipped, probe.trials)


def probe_component(
    kind: str,
    probe: ProbeConfig,
    potential: Potential | None = None,
    lookup: Lookup | None = None,
) -> ProbeResult:
    """Sampled contraction ratios of one pipeline component, against the
    component's closed-form bound.

    softmatch_in_x:        x -> Psi_{G(x, .)}(mu), ratio over query moves;
    softmatch_in_measure:  mu -> Psi_{G(x, .)}(mu), ratio over measure moves;
    projection:            mu -> delta at barycenter, bound d;
    lookup:                mu -> pushforward, bound the lookup constant.
    """
    if kind not in COMPONENT_KINDS:
        raise InvalidInput(f"unknown component kind {kind!r}")

    if kind == "projection":
        bound = bounds_mod.tau_pi(probe.d)
    elif kind == "lookup":
        if lookup is None:
            raise InvalidInput("lookup probe needs a lookup")
        bound = bounds_mod.tau_lookup(lookup)
    else:
        if potential is None:
            raise InvalidInput(f"{kind} probe needs a potential")
        if not probe.domain.is_bounded:
            raise InvalidInput(f"{kind} probe needs a bounded domain")
        stats = regularity_stats(potential, probe.domain)
        diam = probe.domain.diameter_l1()
        if kind == "softmatch_in_x":
            bound = 2.0 * stats.lip_left * diam / stats.eps_g
        else:
            bound = 2.0 * stats.lip_right * diam / stats.eps_g

    ratios, instances = [], []
    skipped = 0
    for t in range(probe.trials):
        rng = stream(probe.seed, t)
        if kind == "softmatch_in_x":
            n = int(rng.integers(probe.n_range[0], probe.n_range[1] + 1))
            mu = empirical(_sample_cloud(rng, n, probe))
            x = _sample_cloud(rng, 1, probe)[0]
            y = _sample_cloud(rng, 1, probe)[0]
            d_in = float(np.abs(x - y).sum())
            if d_in < DEGENERATE_W1:
                skipped += 1
                continue
            d_out = w1(
                softmatch_measure(potential, x, mu),
                softmatch_measure(potential, y, mu),
            ).value
            inst = {"trial": t, "x": x.tolist(), "y": y.tolist(), "mu": mu.to_dict()}
        else:
            mu, nu = _sample_pair(rng, probe)
            d_in = w1(mu, nu).value
            if d_in < DEGENERATE_W1:
                skipped += 1
                continue
            if kind == "softmatch_in_measure":
                x = _sample_cloud(rng, 1, probe)[0]
                d_out = w1(
                    softmatch_measure(potential, x, mu),
                    softmatch_measure(potential, x, nu),
                ).value
                inst = {"trial": t, "x": x.tolist(), "mu": mu.to_dict(), "nu": nu.to_dict()}
            elif kind == "projection":
                d_out = float(np.abs(barycenter(mu) - barycenter(nu)).sum())
                inst = {"trial": t, "mu": mu.to_dict(), "nu": nu.to_dict()}
            else:  # lookup
                d_out = w1(apply_lookup(lookup, mu), apply_lookup(lookup, nu)).value
                inst = {"trial": t, "mu": mu.to_dict(), "nu": nu.to_dict()}
        r = d_out / d_in
        inst["ratio"] = r
        ratios.append(r)
        instances.append(inst)
    return _aggregate(ratios, instances, bound, skipped, probe.trials)


# ---------------------------------------------------------------------------
# Lemma checks
# ---------------------------------------------------------------------------

# rows of the ratio-lemma check (one per n) processed together
_RATIO_BUCKET = 64


def _ratio_reduction(ns: np.ndarray, grid: int) -> np.ndarray:
    """max_x g_n(x), g_n(x) = n x e^{-x^2} / (1 + n e^{-x^2}), for every n:
    a grid argmax, then 90 golden-section steps between its neighbours,
    vectorised across n (each n keeps its own branch at every step)."""
    x_hi = np.array([math.sqrt(math.log(max(n, 2)) + 2.0) + 1.0 for n in ns.tolist()])
    lo = np.empty(len(ns))
    hi = np.empty(len(ns))
    for s in range(0, len(ns), _RATIO_BUCKET):
        rows = slice(s, s + _RATIO_BUCKET)
        n = ns[rows, None]
        xs = np.linspace(0.0, x_hi[rows], grid, axis=1)
        e = np.exp(-xs * xs)
        j = np.argmax(n * xs * e / (1.0 + n * e), axis=1)
        k = np.arange(len(j))
        lo[rows] = xs[k, np.maximum(j - 1, 0)]
        hi[rows] = xs[k, np.minimum(j + 1, grid - 1)]

    nf = ns.astype(np.float64)

    def g(x):
        ex = np.exp(-x * x)
        return nf * x * ex / (1.0 + nf * ex)

    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = g(c), g(d)
    for _ in range(90):
        left = fc >= fd  # keep [a, d], else keep [c, b]
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        x = np.where(left, b - phi * (b - a), a + phi * (b - a))
        fx = g(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    return np.maximum(np.maximum(g((a + b) / 2.0), fc), fd)


def _ratio_ascent(n_max: int, restarts: int, seed: int, ascent_iters: int) -> np.ndarray:
    """Best f_n(z) = sum z_i e^{-z_i^2} / (1 + sum e^{-z_i^2}) found by
    projected gradient ascent from uniform starts, for every n <= n_max.

    Row n - 1 holds z for n; a restart's starts are one (n_max, n_max)
    uniform draw in row order, with the entries past column n - 1 masked
    to 0. Buckets of rows lo..hi-1 run on the (hi - lo, hi) slice, so the
    masked upper triangle beyond column hi - 1 is never computed. Masked
    entries have e = 0, hence zero gradient, and stay at z = 0.
    """
    rng = stream(seed, 0)
    ascent = np.zeros(n_max)
    step = 0.25
    for _ in range(restarts):
        for lo in range(0, n_max, _RATIO_BUCKET):
            hi = min(lo + _RATIO_BUCKET, n_max)
            mask = np.arange(hi)[None, :] <= np.arange(lo, hi)[:, None]
            z = rng.uniform(0.0, 2.5, size=(hi - lo, n_max))[:, :hi] * mask
            e, t, u = np.empty_like(z), np.empty_like(z), np.empty_like(z)
            s0, s1, den = np.empty(hi - lo), np.empty(hi - lo), np.empty(hi - lo)
            for _ in range(ascent_iters):
                np.multiply(z, z, out=e)
                np.negative(e, out=e)
                np.exp(e, out=e)
                e *= mask
                e.sum(axis=1, out=s0)
                np.multiply(z, e, out=t).sum(axis=1, out=s1)
                np.add(s0, 1.0, out=den)
                np.divide(s1, den, out=s1)  # f
                # grad = e (1 - 2 z z + 2 z f) / (1 + s0)
                np.multiply(z, 2.0, out=u)
                np.multiply(u, z, out=t)
                np.subtract(1.0, t, out=t)
                u *= s1[:, None]
                t += u
                t *= e
                t /= den[:, None]
                t *= step
                z += t
                np.maximum(z, 0.0, out=z)
            e = np.exp(-z * z) * mask
            vals = (z * e).sum(axis=1) / (1.0 + e.sum(axis=1))
            np.maximum(ascent[lo:hi], vals, out=ascent[lo:hi])
    return ascent


def check_ratio_lemma(
    n_max: int, grid: int = 600, restarts: int = 3, seed: int = 0,
    ascent_iters: int = 250,
) -> dict:
    """Maximize the softmax-moment ratio two ways and compare to the bound.

    For each n: a 1-d grid plus golden-section refinement of the
    equal-coordinates reduction g(x) = n x e^{-x^2} / (1 + n e^{-x^2}),
    and an independent multi-start projected gradient ascent on the full
    n-dimensional function. Both maxima must stay at or below
    sqrt(ln n + 1/2e), and the ascent must never beat the reduction.
    """
    n_max = int(n_max)
    if n_max < 1:
        raise InvalidInput("n_max must be >= 1")

    ns = np.arange(1, n_max + 1)
    reduction = _ratio_reduction(ns, grid)
    ascent = _ratio_ascent(n_max, restarts, seed, ascent_iters)
    bound = np.array([ratio_lemma_bound(int(n)) for n in ns])
    return {
        "n_max": n_max,
        "max_violation_reduction": float((reduction - bound).max()),
        "max_violation_ascent": float((ascent - bound).max()),
        "max_ascent_excess": float((ascent - reduction).max()),
        "all_within_bound": bool(
            np.all(reduction <= bound + 1e-9) and np.all(ascent <= bound + 1e-9)
        ),
        "ascent_consistent": bool(np.all(ascent <= reduction + 1e-6)),
        "worst_n_reduction": int(ns[int(np.argmax(reduction - bound))]),
    }


def check_product_lemma(
    trials: int, size_range: tuple = (1, 4), d: int = 2, seed: int = 0
) -> dict:
    """Random small instances of W1 tensor subadditivity:
    W1(mu1 x mu2, nu1 x nu2) <= W1(mu1, nu1) + W1(mu2, nu2)."""
    if trials < 1:
        raise InvalidInput("trials must be >= 1")
    lo, hi = size_range
    excess = []
    slack = []
    for t in range(int(trials)):
        rng = stream(seed, t)

        def rand_measure():
            n = int(rng.integers(lo, hi + 1))
            pts = rng.uniform(-2.0, 2.0, size=(n, d))
            w = rng.random(n) + 0.05
            return EmpiricalMeasure(PointCloud(pts), w / w.sum())

        w_prod, w_a, w_b = w1_product(
            rand_measure(), rand_measure(), rand_measure(), rand_measure()
        )
        excess.append(w_prod - (w_a + w_b))
        slack.append((w_a + w_b) - w_prod)
    excess = np.array(excess)
    slack = np.array(slack)
    return {
        "trials": int(trials),
        "max_violation": float(excess.max()),
        "subadditive": bool(np.all(excess <= 1e-9)),
        "tightness_min": float(slack.min()),
        "tightness_median": float(np.median(slack)),
        "tightness_max": float(slack.max()),
    }


def _lip_estimates(f, rng, d: int, n_samples: int):
    """(restricted, unrestricted) sampled Lipschitz estimates of f.

    Random pairs plus coordinate-aligned finite differences; restricted
    pairs keep ||x - y||_1 <= 1.
    """
    half = n_samples // 2
    radius = 3.0
    xs = rng.uniform(-radius, radius, size=(half, d))

    # random l1-ball directions for the restricted estimator
    raw = rng.standard_normal((half, d))
    dirs = raw / np.abs(raw).sum(axis=1, keepdims=True)
    scales = rng.uniform(0.05, 1.0, size=(half, 1))
    ys_near = xs + dirs * scales
    ys_far = rng.uniform(-radius, radius, size=(half, d))

    def ratio(a, b):
        num = np.abs(f(a) - f(b))
        den = np.abs(a - b).sum(axis=1)
        ok = den > 1e-12
        return float((num[ok] / den[ok]).max(initial=0.0))

    restricted = ratio(xs, ys_near)
    unrestricted = max(restricted, ratio(xs, ys_far))

    # coordinate-aligned differences at a few grid points (the local
    # finite-difference refinement)
    base = xs[:64]
    for axis in range(d):
        for h in (1e-4, 0.5, 1.0):
            step = np.zeros(d)
            step[axis] = h
            r = ratio(base + step, base)
            restricted = max(restricted, r)
            unrestricted = max(unrestricted, r)
        for h in (2.0, 4.0):
            step = np.zeros(d)
            step[axis] = h
            unrestricted = max(unrestricted, ratio(base + step, base))
    return restricted, unrestricted


def check_local_lip_lemma(
    trials: int = 12, d: int = 3, n_samples: int = 100_000, seed: int = 0
) -> dict:
    """Restricting seminorm estimation to pairs with ||x - y||_1 <= 1 loses
    nothing: both estimators recover known seminorms of piecewise-linear
    test functions within 1e-2 relative."""
    rel_tol = 1e-2
    worst = 0.0
    cases = []
    for t in range(int(trials)):
        rng = stream(seed, t)
        family = ("cone", "affine", "constant")[t % 3]
        if family == "cone":
            x0 = rng.uniform(-1.0, 1.0, size=d)
            s = float(rng.uniform(0.5, 2.0))
            known = s

            def f(p, x0=x0, s=s):
                return s * np.abs(p - x0).sum(axis=1)

        elif family == "affine":
            g = rng.uniform(-2.0, 2.0, size=d)
            b = float(rng.uniform(-1.0, 1.0))
            known = float(np.abs(g).max())

            def f(p, g=g, b=b):
                return p @ g + b

        else:
            known = 0.0

            def f(p):
                return np.zeros(p.shape[0])

        restricted, unrestricted = _lip_estimates(f, rng, d, n_samples)
        scale = max(1.0, known)
        err = max(abs(restricted - known), abs(unrestricted - known)) / scale
        worst = max(worst, err)
        cases.append(
            {
                "family": family,
                "known": known,
                "restricted": restricted,
                "unrestricted": unrestricted,
            }
        )
    return {
        "trials": int(trials),
        "max_relative_error": worst,
        "all_consistent": bool(worst <= rel_tol),
        "cases": cases,
    }
