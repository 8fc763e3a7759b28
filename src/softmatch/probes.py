"""Randomized empirical validation of the contraction estimates.

A probe samples pairs of empirical measures, pushes both through a map
(full self-attention, or one of its components), and records the observed
W1 ratio against the matching closed-form bound. Sampled maxima are lower
estimates of the true contraction coefficient; the falsifiable claim is
that no sampled ratio ever exceeds its bound.

Every probe runs the one trial loop `_run_trials`: trial t draws from
stream(seed, t) alone, a degenerate input distance skips the trial, and
the best instance is kept as the loop goes. The loop runs over blocks of
trials, all of a block's draws first, so that a block's input W1s are
one block solve (`transport._solve_block`), `probe_contraction` maps a
block's clouds with one `layer_map` call per support size, the softmatch
components reweight them with one `kernels._softmatch_weights_rows`
call per support size, and the output W1s are one more block solve. A
block solve builds its pairs' cost matrices in a shared padded pass and
gives each pair the bits of a `w1` call on it alone. Every constant a
component is compared against comes from `bounds`, through the guards it
applies there (a compact domain, eps(G) > 0).

Also here: direct numerical checks of the three auxiliary lemmas: the
ratio cap sqrt(ln n + 1/2e), against which the ratio's proven supremum
(`bounds.ratio_lemma_sup`) and a gradient ascent that must never beat it
are compared; tensorized subadditivity of W1; and the locality of the
Lipschitz seminorm.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import ratio_lemma_bound, ratio_lemma_sup
from .errors import InvalidInput
from .kernels import Layer, Lookup, _softmatch_weights_rows, apply_lookup, layer_map
from .measures import DomainBox, EmpiricalMeasure, PointCloud, _check_sums, _l1_norms, _measure, barycenter
from .potentials import Potential, regularity_stats
from .streams import stream
from .transport import _solve_block, _w1_block, w1_product
from . import bounds as bounds_mod

DEGENERATE_W1 = 1e-12
VIOLATION_SLACK = 1e-7

_QUANTILES = (0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)

log = logging.getLogger("softmatch")

PERTURBATIONS = ("resample", "jitter", "drop_point", "duplicate_point")

COMPONENT_KINDS = (
    "softmatch_in_x",
    "softmatch_in_measure",
    "projection",
    "lookup",
)


@dataclass(frozen=True, eq=False)
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
        if self.d < 1:
            raise InvalidInput(f"probe dimension must be >= 1, got {self.d!r}")
        lo, hi = self.n_range
        if not (1 <= lo <= hi):
            raise InvalidInput(f"bad n_range {self.n_range!r}")
        if self.perturbation not in PERTURBATIONS:
            raise InvalidInput(f"unknown perturbation {self.perturbation!r}")
        # the unbounded clouds are drawn from [-r, r), whose width 2r must be finite
        r = self.sampling_radius
        if not (r > 0 and math.isfinite(2 * r)):
            raise InvalidInput(f"sampling radius must be positive with 2r finite, got {r!r}")
        if not (0 <= self.jitter_sigma < math.inf):
            raise InvalidInput(f"jitter sigma must be finite and >= 0, got {self.jitter_sigma!r}")
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


@dataclass(frozen=True, eq=False)
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
        # rng.uniform(lo, hi, size) bit for bit, from the same draws: numpy
        # forms low + (high - low) * u, and per-axis array bounds cost it
        # three times this expression; `DomainBox` keeps hi - lo finite
        lo, hi = probe.domain.lower, probe.domain.upper
        return lo + (hi - lo) * rng.random((n, probe.d))
    r = probe.sampling_radius
    return rng.uniform(-r, r, size=(n, probe.d))


def _uniform(points: np.ndarray) -> EmpiricalMeasure:
    """m(X) of a cloud the probe drew: finite by construction, so it is
    built unchecked (`measures._measure`)."""
    return _measure(points, np.full(len(points), 1.0 / len(points)))


def _sample_pair(rng: np.random.Generator, probe: ProbeConfig):
    lo, hi = probe.n_range
    mode = probe.perturbation
    if mode == "resample":
        n = int(rng.integers(lo, hi + 1))
        m = int(rng.integers(lo, hi + 1))
        return _uniform(_sample_cloud(rng, n, probe)), _uniform(_sample_cloud(rng, m, probe))
    if mode == "drop_point" and hi < 2:
        raise InvalidInput("drop_point needs clouds of at least 2 points")
    n = int(rng.integers(max(lo, 2) if mode == "drop_point" else lo, hi + 1))
    base = _sample_cloud(rng, n, probe)
    if mode == "jitter":
        # the one draw that can overflow: inf is clipped into a box, and
        # refused on the unbounded domain as `PointCloud` refuses it
        with np.errstate(over="ignore"):
            other = base + probe.jitter_sigma * rng.standard_normal(base.shape)
        other = probe.domain.clip(other)
        if not np.isfinite(other).all():
            raise InvalidInput("point coordinates must be finite (no NaN/Inf)")
    elif mode == "drop_point":
        keep = np.delete(np.arange(n), int(rng.integers(n)))
        other = base[keep]
    else:  # duplicate_point
        other = np.vstack([base, base[int(rng.integers(n))]])
    return _uniform(base), _uniform(other)


def _order_stats(values, qs=None):
    """np.quantile(values, qs) (linear method) as a list of floats, or
    np.median(values) when qs is None, bit for bit, for a non-empty
    sequence of floats and qs in [0, 1].

    Both numpy functions import `numpy.ma` at their first call (about
    1.3 MB resident): np.quantile through `np.unique`, np.median through
    its NaN check. This partitions a copy at the indices numpy partitions
    at: a sort orders the ties of 0.0 and -0.0 otherwise, and a zero
    result takes its sign from that order. A quantile is numpy's two-sided
    lerp at the virtual index v = (n - 1) q, where v >= n - 1 takes the
    last element on both sides with gamma v + 1. The median is numpy's
    mean of the middle one or two elements, summed from 0.0 (so -0.0
    gives 0.0) and divided by their count; the lerp at q = 0.5 differs
    from it in the last bit. A NaN makes every result the NaN the
    partition puts last.
    """
    a = np.array(values, dtype=float)
    n = a.size
    if qs is None:
        h = n // 2
        mid = [h - 1, h] if n % 2 == 0 else [h]
        a.partition(mid + [-1])
        if a[-1] != a[-1]:
            return float(a[-1])
        total = 0.0
        for k in mid:
            total += float(a[k])
        return total / len(mid)
    spots = []
    for q in qs:
        v = (n - 1) * q
        lo = -1 if v >= n - 1 else math.floor(v)
        spots.append((v, lo, -1 if lo == -1 else lo + 1))
    a.partition(sorted({0, -1}.union(*(spot[1:] for spot in spots))))
    if a[-1] != a[-1]:
        return [float(a[-1])] * len(spots)
    out = []
    for v, lo, hi in spots:
        x, y, g = float(a[lo]), float(a[hi]), v - lo
        diff = y - x
        out.append(y - diff * (1 - g) if g >= 0.5 else x + diff * g)
    return out


# trials drawn, mapped and solved together; only one block's inputs and
# outputs are alive at a time, so memory does not grow with `trials`
_TRIAL_BLOCK = 64


def _run_trials(
    probe: ProbeConfig, bound: float | None, draw, push, ratio_first: bool = False
) -> ProbeResult:
    """The one trial loop, over blocks of _TRIAL_BLOCK trials in four
    phases: draw(rng) gives each trial's input distance, or the pair of
    measures whose W1 it is, and its named inputs; the block's input W1s
    are solved in one block (`transport._solve_block`); push(kept) gives
    the output distances of the block's kept trials in order; and the
    ratios are then taken in trial order. A draw that raises, or an input
    W1, does so after the trials before it are pushed, and an input W1's
    error replaces a later draw's, as in a trial-by-trial loop. The argmax
    instance is the first trial of the largest ratio: "trial", the inputs
    (measures by to_dict(), points as lists) and "ratio", second when
    ratio_first."""
    ratios, skipped, best = [], 0, None
    for start in range(0, probe.trials, _TRIAL_BLOCK):
        kept = []
        try:
            drawn = []
            try:
                for t in range(start, min(start + _TRIAL_BLOCK, probe.trials)):
                    drawn.append((t, *draw(stream(probe.seed, t))))
            finally:
                solved, error = _solve_block([d for _, d, _ in drawn if isinstance(d, tuple)])
                solved = iter(solved)
                for t, d_in, inputs in drawn:
                    if isinstance(d_in, tuple):
                        res = next(solved, None)
                        if res is None:  # this trial's input W1 raised
                            break
                        d_in = res.value
                    if d_in < DEGENERATE_W1:
                        skipped += 1
                    else:
                        kept.append((t, d_in, inputs))
                if error is not None:
                    raise error
        finally:
            # after a draw error too: an error of the earlier trials' push
            # replaces it, as in a trial-by-trial loop
            d_out = push([inputs for _, _, inputs in kept]) if kept else []
        for (t, d_in, inputs), d in zip(kept, d_out):
            r = d / d_in
            if best is None or r > best[1]:
                best = (t, r, inputs)
            ratios.append(r)
    arr = np.array(ratios)
    hist, max_ratio, argmax, violations = {}, 0.0, None, 0
    if ratios:
        hist = {f"q{q:g}": x for q, x in zip(_QUANTILES, _order_stats(arr, _QUANTILES))}
        t, r, inputs = best
        max_ratio = float(r)
        argmax = {"trial": t, "ratio": r} if ratio_first else {"trial": t}
        for k, v in inputs.items():
            argmax[k] = v.tolist() if isinstance(v, np.ndarray) else v.to_dict()
        argmax["ratio"] = r  # a key already present keeps its place
        if bound is not None:
            violations = int(np.sum(arr > violation_threshold(bound)))
    return ProbeResult(
        max_ratio=max_ratio,
        argmax_instance=argmax,
        bound=bound,
        violations=violations,
        histogram=hist,
        skipped=skipped,
        trials=probe.trials,
        ratios=tuple(ratios),
    )


def _map_by_size(layer: Layer, clouds: list) -> list:
    """layer_map of every (n, d) cloud, in order, with one call per
    distinct n. `layer_map` gives each cloud the bits of a call on it
    alone."""
    by_size = {}
    for i, c in enumerate(clouds):
        by_size.setdefault(len(c), []).append(i)
    out = [None] * len(clouds)
    for idx in by_size.values():
        for i, mapped in zip(idx, layer_map(layer, np.stack([clouds[i] for i in idx]))):
            out[i] = mapped
    return out


def _softmatch_by_size(potential: Potential, items: list) -> list:
    """softmatch_measure(potential, q, mu) for each (query point q,
    measure mu) in items, in order, with one `_softmatch_weights_rows`
    call per support size and count of positive weights, which gives each
    measure the bits of a call on it alone. The reweighting gives finite,
    nonnegative weights, so of `EmpiricalMeasure`'s checks only the exact
    weight sums run, once per call."""
    by_size = {}
    for i, (_, mu) in enumerate(items):
        by_size.setdefault((mu.n, np.count_nonzero(mu.weights)), []).append(i)
    out = [None] * len(items)
    for idx in by_size.values():
        group = [items[i][1] for i in idx]
        weights = _softmatch_weights_rows(
            potential,
            np.stack([np.asarray(items[i][0], dtype=np.float64).reshape(-1) for i in idx]),
            np.stack([mu.support.points for mu in group]),
            np.stack([mu.weights for mu in group]),
        )
        _check_sums(weights.tolist())
        for i, mu, w in zip(idx, group, weights):
            out[i] = _measure(mu.support.points, w)
    return out


def probe_contraction(
    cfg: Layer, probe: ProbeConfig, bound: float | None = None
) -> ProbeResult:
    """Sample measure pairs, push both through the set-to-set map of a
    single-head, multi-head or transformer layer (the output cloud
    carries the input's weights), and compare W1 ratios to the supplied
    bound. Sampled clouds are empirical, with the uniform weights
    `layer_map` attends over, so a block's clouds of one size are mapped
    in one call with the bits of a call per cloud, and the block's output
    W1s are solved in one `transport._w1_block` call. `layer_map` refuses
    non-finite output, so the output measures are built unchecked."""

    def draw(rng):
        mu, nu = _sample_pair(rng, probe)
        return (mu, nu), {"mu": mu, "nu": nu}

    def push(kept):
        ins = [m for inputs in kept for m in (inputs["mu"], inputs["nu"])]
        mapped = _map_by_size(cfg, [m.support.points for m in ins])
        outs = [_measure(pts, m.weights) for m, pts in zip(ins, mapped)]
        return [r.value for r in _w1_block(list(zip(outs[::2], outs[1::2])))]

    return _run_trials(probe, bound, draw, push, ratio_first=True)


def probe_component(
    kind: str,
    probe: ProbeConfig,
    potential: Potential | None = None,
    lookup: Lookup | None = None,
) -> ProbeResult:
    """Sampled contraction ratios of one pipeline component, against the
    component's closed-form bound.

    softmatch_in_x:        x -> Psi_{G(x, .)}(mu), ratio over query moves,
                           bound 2 lip_left diam_l1(E) / eps(G);
    softmatch_in_measure:  mu -> Psi_{G(x, .)}(mu), ratio over measure moves,
                           bound 2 lip_right diam_l1(E) / eps(G);
    projection:            mu -> delta at barycenter, bound d;
    lookup:                mu -> pushforward, bound the lookup constant.

    A block's softmatch outputs take one `_softmatch_weights_rows` call
    per support size, and its output W1s one `transport._w1_block` call.
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
        # tau(Psi_G), through its guards, with the fixed argument's seminorm 0
        fixed = "lip_right" if kind == "softmatch_in_x" else "lip_left"
        stats = replace(regularity_stats(potential, probe.domain), **{fixed: 0.0})
        bound = bounds_mod.tau_softmatch_bounded(stats, probe.domain)

    def draw(rng):
        if kind == "softmatch_in_x":
            n = int(rng.integers(probe.n_range[0], probe.n_range[1] + 1))
            mu = _uniform(_sample_cloud(rng, n, probe))
            x = _sample_cloud(rng, 1, probe)[0]
            y = _sample_cloud(rng, 1, probe)[0]
            return float(_l1_norms(x, y)), {"x": x, "y": y, "mu": mu}
        mu, nu = _sample_pair(rng, probe)
        if kind == "softmatch_in_measure":
            return (mu, nu), {"x": _sample_cloud(rng, 1, probe)[0], "mu": mu, "nu": nu}
        return (mu, nu), {"mu": mu, "nu": nu}

    def push(kept):
        if kind == "projection":
            return [float(_l1_norms(barycenter(t["mu"]), barycenter(t["nu"]))) for t in kept]
        if kind == "lookup":
            outs = [apply_lookup(lookup, t[k]) for t in kept for k in ("mu", "nu")]
        else:
            # the (query, measure) of each side: x and y on mu, or x on mu and nu
            sides = (("x", "mu"), ("y", "mu") if kind == "softmatch_in_x" else ("x", "nu"))
            outs = _softmatch_by_size(potential, [(t[q], t[m]) for t in kept for q, m in sides])
        return [r.value for r in _w1_block(list(zip(outs[::2], outs[1::2])))]

    return _run_trials(probe, bound, draw, push)


# ---------------------------------------------------------------------------
# Lemma checks
# ---------------------------------------------------------------------------

# rows of the ratio-lemma check (one per n) processed together
_RATIO_BUCKET = 64
# most entries in one stacked restart group of a bucket: the group and its
# three work arrays, 512 KB each, fit a 2 MB L2 cache; stacking all three
# restarts of the 1000-row check was about 15% slower than one at a time
_RATIO_STACK = 65536


def _ascend(z: np.ndarray, lo: int, tri: np.ndarray, ascent_iters: int) -> np.ndarray:
    """Run the projected gradient ascent on the stacked starts z (restarts,
    rows lo..hi-1, hi columns) in place, and return f at the end point of
    every row. Columns below lo are live in every row; tri masks the last
    hi - lo columns to the lower triangle."""
    e, t, u = np.empty_like(z), np.empty_like(z), np.empty_like(z)
    s0, s1, den = (np.empty(z.shape[:2]) for _ in range(3))
    for step in range(ascent_iters + 1):
        np.multiply(z, z, out=t)
        np.negative(t, out=e)
        np.exp(e, out=e)
        e[..., lo:] *= tri
        e.sum(axis=2, out=s0)
        np.multiply(z, e, out=u).sum(axis=2, out=s1)
        np.add(s0, 1.0, out=den)
        np.divide(s1, den, out=s1)  # f
        if step == ascent_iters:
            return s1
        # z += 0.25 e (1 - 2 z z + 2 z f) / (1 + s0)
        s1 *= 2.0
        den *= 4.0
        np.multiply(z, s1[..., None], out=u)
        t *= -2.0
        t += 1.0
        t += u
        t *= e
        t /= den[..., None]
        z += t
        np.maximum(z, 0.0, out=z)


def _ratio_group(lo: int, hi: int) -> int:
    """Restarts stacked into one array in the bucket of rows lo..hi-1."""
    return max(1, _RATIO_STACK // ((hi - lo) * hi))


def _ratio_work_entries(n_max: int, restarts: int) -> int:
    """Entries of the largest array check_ratio_lemma holds: a stacked
    restart group of a bucket."""
    work = 0
    for lo in range(0, n_max, _RATIO_BUCKET):
        hi = min(lo + _RATIO_BUCKET, n_max)
        work = max(work, min(_ratio_group(lo, hi), restarts) * (hi - lo) * hi)
    return work


# skips shorter than this are drawn: `Philox.advance` plus the draw of the
# remainder took 3.3 us, a draw of 384 doubles 3.35 us and of 256 doubles
# 2.6 us (medians of 30 interleaved reps, numpy 2.4.6, 2-vCPU host)
_ADVANCE_FROM = 384


def _skip(rng: np.random.Generator, pos: int, to: int) -> None:
    """Move rng from pos doubles into its stream to position to >= pos.
    Philox is counter based, four doubles per counter step, and advance
    empties its buffer, so the draws from there are those of one long
    draw. A skip of fewer than _ADVANCE_FROM doubles is drawn instead,
    which is cheaper and also covers the skips of fewer than four doubles
    that may end in the buffered step. Witness: drawing every skip took
    check_ratio_lemma(1000, restarts=1, ascent_iters=50) 25% longer."""
    if to - pos < _ADVANCE_FROM:
        rng.random(to - pos)
    else:
        rng.bit_generator.advance(to // 4 - -(-pos // 4))
        rng.random(to % 4)


def _draw_starts(seed: int, n_max: int, r: int, lo: int, tri: np.ndarray, out: np.ndarray):
    """Restart r's starts for rows lo..hi-1 into out (hi - lo, hi): row k
    holds the first hi doubles at offset (r * n_max + lo + k) * n_max of
    stream(seed, 0), times 2.5 (uniform(0, 2.5) has these bits), and the
    n_max - hi doubles after them are skipped, never drawn."""
    rows, hi = out.shape
    rng, pos = stream(seed, 0), 0
    for k in range(rows):
        row = (r * n_max + lo + k) * n_max
        _skip(rng, pos, row)
        rng.random(out=out[k])
        pos = row + hi
    out *= 2.5
    out[:, lo:] *= tri


def _ratio_ascent(n_max: int, restarts: int, seed: int, ascent_iters: int) -> np.ndarray:
    """Best f_n(z) = sum z_i e^{-z_i^2} / (1 + sum e^{-z_i^2}) found by
    projected gradient ascent from uniform starts, for every n <= n_max.

    Row n - 1 holds z for n; a restart's starts are one (n_max, n_max)
    uniform draw of stream(seed, 0) in row order, restart after restart,
    with the entries past column n - 1 masked to 0. Buckets of rows
    lo..hi-1 run on the (hi - lo, hi) slice, so the masked upper triangle
    beyond column hi - 1 is never drawn or computed; only the last hi - lo
    columns hold masked entries, so the mask is a (hi - lo, hi - lo)
    triangle. Masked entries have e = 0, hence zero gradient, and stay at
    z = 0.

    Each bucket stacks its restarts into (group, hi - lo, hi) arrays of at
    most _RATIO_STACK entries (one restart if a single one is larger) and
    runs one iteration loop per group. A group's starts are drawn just
    before it runs, each row at its own offset in the stream
    (`_draw_starts`), so only one group and its three work arrays are
    alive at a time: O(restarts * 64 * n_max) entries at most. Rows
    never interact and each still sums over the same hi columns, so every
    value is the one a loop over restarts would give, bit for bit; each
    row's maximum over restarts is exact in any order.

    A step of 0.25 along the gradient e (1 - 2 z^2 + 2 z f) / (1 + s0)
    takes 15 passes over the group's array (the mask pass covers only its
    last hi - lo columns). t = z z is computed once, for e = exp(-t) and
    for 1 - 2 z^2 = 1 + (-2) t; 2 z f is formed as z (2 f); and the
    division is by 4 (1 + s0) instead of by 1 + s0 followed by a
    multiplication by 0.25. Each rewrite only moves a power-of-two factor,
    which commutes with rounding unless a value is subnormal. z is either
    0 or far above the subnormal range (on the benchmark's configs and
    criterion 07, nonzero z stays within [7e-4, 2.5] and e >= 1.9e-3), so
    every step is bit for bit the one the textbook order gives.
    """
    ascent = np.full(n_max, -np.inf)
    for lo in range(0, n_max, _RATIO_BUCKET):
        hi = min(lo + _RATIO_BUCKET, n_max)
        cols = np.arange(lo, hi)
        tri = (cols[None, :] <= cols[:, None]).astype(np.float64)
        group = _ratio_group(lo, hi)
        for r0 in range(0, restarts, group):
            z = np.empty((min(group, restarts - r0), hi - lo, hi))
            for k, zk in enumerate(z):
                _draw_starts(seed, n_max, r0 + k, lo, tri, zk)
            best = _ascend(z, lo, tri, ascent_iters).max(axis=0)
            np.maximum(ascent[lo:hi], best, out=ascent[lo:hi])
    return ascent


def check_ratio_lemma(
    n_max: int, *, restarts: int = 3, seed: int = 0, ascent_iters: int = 250
) -> dict:
    """Compare the softmax-moment ratio's proven supremum and an
    independent search for it to the paper's cap, for each n <= n_max.

    The "reduction" is m_n = `ratio_lemma_sup(n)`, the supremum of
    f(z) = sum z_i e^{-z_i^2} / (1 + sum e^{-z_i^2}) over R^n, attained
    with all coordinates equal and rounded upward. The ascent is a
    multi-start projected gradient ascent on the full n-dimensional f,
    which knows nothing of the proof. Both must stay at or below
    sqrt(ln n + 1/2e), and the ascent can beat m_n only by rounding
    (1e-12), so a larger excess is a bug in one of the two. The ascent
    needs at least one restart and one step.
    """
    n_max, restarts, ascent_iters = map(int, (n_max, restarts, ascent_iters))
    if n_max < 1:
        raise InvalidInput("n_max must be >= 1")
    if restarts < 1:
        raise InvalidInput("restarts must be >= 1")
    if ascent_iters < 1:
        raise InvalidInput("ascent_iters must be >= 1")

    ns = np.arange(1, n_max + 1)
    reduction = ratio_lemma_sup(ns)
    ascent = _ratio_ascent(n_max, restarts, seed, ascent_iters)
    bound = np.array([ratio_lemma_bound(int(n)) for n in ns])
    log.debug(
        "check_ratio_lemma: n_max=%d restarts=%d ascent_iters=%d buckets=%d rows=%d"
        " work_entries=%d",
        n_max, restarts, ascent_iters, -(-n_max // _RATIO_BUCKET), restarts * n_max,
        _ratio_work_entries(n_max, restarts),
    )
    return {
        "n_max": n_max,
        "max_violation_reduction": float((reduction - bound).max()),
        "max_violation_ascent": float((ascent - bound).max()),
        "max_ascent_excess": float((ascent - reduction).max()),
        "all_within_bound": bool(
            np.all(reduction <= bound + 1e-9) and np.all(ascent <= bound + 1e-9)
        ),
        "ascent_consistent": bool(np.all(ascent <= reduction + 1e-12)),
        "worst_n_reduction": int(ns[int(np.argmax(reduction - bound))]),
    }


def check_product_lemma(
    trials: int, size_range: tuple = (1, 4), d: int = 2, seed: int = 0
) -> dict:
    """Random small instances of W1 tensor subadditivity:
    W1(mu1 x mu2, nu1 x nu2) <= W1(mu1, nu1) + W1(mu2, nu2)."""
    trials, d = int(trials), int(d)
    lo, hi = (int(k) for k in size_range)
    if trials < 1:
        raise InvalidInput("trials must be >= 1")
    if not 1 <= lo <= hi:
        raise InvalidInput(f"bad size_range {tuple(size_range)!r}")
    if d < 1:
        raise InvalidInput("d must be >= 1")
    excess = []
    slack = []
    for t in range(trials):
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
    log.debug("check_product_lemma: trials=%d size_range=%d..%d d=%d", trials, lo, hi, d)
    return {
        "trials": trials,
        "max_violation": float(excess.max()),
        "subadditive": bool(np.all(excess <= 1e-9)),
        "tightness_min": float(slack.min()),
        "tightness_median": _order_stats(slack),
        "tightness_max": float(slack.max()),
    }


# rows of the local-Lipschitz sample taken at a time
_LIP_BLOCK = 8192


def _lip_estimates(f, rng, d: int, n_samples: int):
    """(restricted, unrestricted) sampled Lipschitz estimates of f.

    Random pairs plus coordinate-aligned finite differences; restricted
    pairs keep ||x - y||_1 <= 1. The draws are base points, normals,
    scales, then far points. The normals become the near points in place,
    and the far points are drawn once the near ratio is taken. The near
    points, f at the base points and every ratio are formed over blocks
    of _LIP_BLOCK rows, so the base points, f at them, one (n_samples // 2,
    d) array of near or far points and one block's temporaries are alive
    at a time. The scales are drawn block by block, which gives the same
    values as one draw, and f, `_l1_norms` and the maximum act row by row,
    so the blocks change no bit. Every distance, in the ratios and in the
    cone test functions, is `_l1_norms`.
    """
    half = n_samples // 2
    radius = 3.0
    xs = rng.uniform(-radius, radius, size=(half, d))

    def ratio(a, fa, b):
        best = 0.0
        for i in range(0, len(a), _LIP_BLOCK):
            rows = slice(i, i + _LIP_BLOCK)
            num = f(b[rows])
            np.abs(np.subtract(fa[rows], num, out=num), out=num)
            den = _l1_norms(a[rows], b[rows])
            ok = den > 1e-12
            best = float(np.divide(num, den, out=num, where=ok).max(where=ok, initial=best))
            del num, den, ok  # before the next block's are formed
        return best

    # random l1-ball directions for the restricted estimator
    near = rng.standard_normal((half, d))
    fx = np.empty(half)
    for i in range(0, half, _LIP_BLOCK):
        rows = slice(i, i + _LIP_BLOCK)
        y = near[rows]
        y /= _l1_norms(y)[:, None]
        y *= rng.uniform(0.05, 1.0, size=(len(y), 1))
        np.add(xs[rows], y, out=y)
        fx[rows] = f(xs[rows])

    restricted = ratio(xs, fx, near)
    del near, y  # y views the last block of near
    unrestricted = max(restricted, ratio(xs, fx, rng.uniform(-radius, radius, size=(half, d))))

    # coordinate-aligned differences at a few grid points (the local
    # finite-difference refinement)
    base = xs[:64]
    fbase = f(base)
    for axis in range(d):
        for h in (1e-4, 0.5, 1.0):
            step = np.zeros(d)
            step[axis] = h
            r = ratio(base, fbase, base + step)
            restricted = max(restricted, r)
            unrestricted = max(unrestricted, r)
        for h in (2.0, 4.0):
            step = np.zeros(d)
            step[axis] = h
            unrestricted = max(unrestricted, ratio(base, fbase, base + step))
    return restricted, unrestricted


def check_local_lip_lemma(
    trials: int = 12, d: int = 3, n_samples: int = 100_000, seed: int = 0
) -> dict:
    """Restricting seminorm estimation to pairs with ||x - y||_1 <= 1 loses
    nothing: both estimators recover known seminorms of piecewise-linear
    test functions within 1e-2 relative. Half of the samples are base
    points, so n_samples must be at least 2."""
    trials, d, n_samples = int(trials), int(d), int(n_samples)
    if trials < 1:
        raise InvalidInput("trials must be >= 1")
    if d < 1:
        raise InvalidInput("d must be >= 1")
    if n_samples < 2:
        raise InvalidInput("n_samples must be >= 2")
    rel_tol = 1e-2
    worst = 0.0
    cases = []
    for t in range(trials):
        rng = stream(seed, t)
        family = ("cone", "affine", "constant")[t % 3]
        if family == "cone":
            x0 = rng.uniform(-1.0, 1.0, size=d)
            s = float(rng.uniform(0.5, 2.0))
            known = s

            def f(p, x0=x0, s=s):
                out = _l1_norms(p, x0)
                out *= s
                return out

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
    log.debug(
        "check_local_lip_lemma: trials=%d d=%d n_samples=%d work_entries=%d",
        trials, d, n_samples, (n_samples // 2) * d,
    )
    return {
        "trials": trials,
        "max_relative_error": worst,
        "all_consistent": bool(worst <= rel_tol),
        "cases": cases,
    }
