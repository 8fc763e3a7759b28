"""Particle dynamics of stacked attention layers, deep-equilibrium fixed
points H = f(H + X), and inversion of residual attention blocks.

Iterating self-attention runs a deterministic interacting particle system:
layer h moves every particle through the attention kernel driven by the
current joint configuration, and each step is measured by the exact W1
between the empirical measures of consecutive states (so clouds are held
to the LP path's 512 points). The convergence norm everywhere is the sup
over particles of the per-particle l1 norm, matching the W1-on-Diracs view
of a cloud.

Fixed points use plain Picard iteration (no damping or acceleration): the
existence argument is the Banach theorem, so the iteration itself is the
certificate of interest.
"""
from __future__ import annotations

import itertools
import logging
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, InvalidInput
# TransformerLayerSpec is re-exported: callers build layers as
# dynamics.TransformerLayerSpec.
from .kernels import Layer, TransformerLayerSpec, layer_map
from .measures import PointCloud, _l1_norms, empirical
from .streams import stream
from .transport import w1

log = logging.getLogger("softmatch")


def cloud_distance(a: PointCloud | np.ndarray, b: PointCloud | np.ndarray) -> float:
    """sup over particles of the per-particle l1 distance; inf when a
    finite distance overflows, which `_diverged` reads as divergence."""
    with np.errstate(over="ignore"):
        return _sup_distance(a, b)


def _sup_distance(a: PointCloud | np.ndarray, b: PointCloud | np.ndarray) -> float:
    """`cloud_distance` under the caller's numpy error state: the solver
    loops already ignore overflow, so each of their steps enters no
    errstate of its own, which costs about half as much as the distance."""
    pa = a.points if isinstance(a, PointCloud) else np.asarray(a)
    pb = b.points if isinstance(b, PointCloud) else np.asarray(b)
    if pa.shape != pb.shape or pa.ndim != 2:
        raise DimMismatch(f"cloud shapes {pa.shape} and {pb.shape} are not one (N, d)")
    return float(_l1_norms(pa, pb).max())


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States of the particle system, one per layer application.

    per_step_w1[h] is the W1 distance between the empirical measures of
    consecutive states.
    """

    states: tuple
    per_step_w1: tuple
    layer_configs: tuple

    @property
    def depth(self) -> int:
        return len(self.states) - 1

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "per_step_w1": list(self.per_step_w1),
            "final_state": self.states[-1].points.tolist(),
        }


def run_particles(layers, x0: PointCloud, steps: int | None = None) -> Trajectory:
    """Iterate a layer (or a list of per-step layers) from x0.

    A single layer is weight-tied and applied `steps` times; a list runs
    once per entry. steps = 0 returns the trajectory [x0]; a trajectory
    holds fewer than sys.maxsize states. Each step's W1 is exact, so a
    cloud of more than 512 points raises SupportTooLarge.
    """
    if isinstance(layers, Layer):
        if steps is None:
            raise InvalidInput("weight-tied run needs an explicit step count")
        if steps < 0:
            raise InvalidInput("steps must be >= 0")
        if steps >= sys.maxsize:
            raise InvalidInput(f"steps must be below {sys.maxsize}, got {steps!r}")
        seq = itertools.repeat(layers, steps)
    else:
        seq = list(layers)
        if steps is not None and steps != len(seq):
            raise InvalidInput(
                f"steps {steps} disagrees with {len(seq)} provided layers"
            )
    states = [x0]
    per_step = []
    applied = []
    for layer in seq:
        nxt = PointCloud(layer_map(layer, states[-1].points[None])[0])
        per_step.append(w1(empirical(states[-1]), empirical(nxt)).value)
        states.append(nxt)
        applied.append(layer)
    return Trajectory(tuple(states), tuple(per_step), tuple(applied))


# ---------------------------------------------------------------------------
# Deep-equilibrium fixed points
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DeqResult:
    h_star: PointCloud
    iterations: int
    residual: float
    contraction_estimate: float
    converged: bool

    def to_dict(self) -> dict:
        """The fields as JSON values: an infinite float reads None."""
        return {
            "iterations": self.iterations,
            "residual": _json_float(self.residual),
            "contraction_estimate": _json_float(self.contraction_estimate),
            "converged": self.converged,
            "h_star": self.h_star.points.tolist(),
        }


def _json_float(x: float | None) -> float | None:
    """x, or None where JSON has no number for it (inf or NaN)."""
    return x if x is not None and math.isfinite(x) else None


def _diverged(points: np.ndarray) -> bool:
    """Past any useful range: the iterations report this, never raise."""
    return not np.all(np.isfinite(points)) or np.abs(points).max() > 1e100


# an iterate past the float range is inf, which `_diverged` reports
@np.errstate(over="ignore")
def deq_solve(
    layer: Layer,
    x: PointCloud,
    h0: PointCloud,
    tol: float = 1e-10,
    max_iter: int = 500,
) -> DeqResult:
    """Picard iteration for H = layer(H + X).

    Runs until the sup-l1 step falls below tol or max_iter is exhausted;
    non-convergence is reported in the result, never raised. The
    contraction estimate is the largest observed step ratio. To inject a
    transformed input s(X), pass s(X) as x. The iterates are plain arrays
    mapped by `layer_map`; one DEBUG event reports the solve.
    """
    if not (0 < tol < math.inf):
        raise InvalidInput(f"tol must be positive and finite, got {tol!r}")
    if max_iter < 1:
        raise InvalidInput(f"max_iter must be >= 1, got {max_iter!r}")
    if x.points.shape != h0.points.shape:
        raise DimMismatch(
            f"input shape {x.points.shape} vs state shape {h0.points.shape}"
        )
    h = h0.points
    prev_step = None
    contraction = 0.0
    step = float("inf")
    iterations = 0
    for iterations in range(1, max_iter + 1):
        arg = h + x.points
        if _diverged(arg):
            step = float("inf")
            break
        nxt = layer_map(layer, arg[None])[0]
        step = _sup_distance(nxt, h)
        if prev_step is not None and prev_step > 0:
            contraction = max(contraction, step / prev_step)
        prev_step = step
        h = nxt
        if step < tol:
            break
    log.debug(
        "deq_solve: n=%d d=%d iterations=%d residual=%.3e converged=%s",
        *h.shape, iterations, step, step < tol,
    )
    return DeqResult(
        h_star=PointCloud(h),
        iterations=iterations,
        residual=step,
        contraction_estimate=contraction,
        converged=step < tol,
    )


# ---------------------------------------------------------------------------
# Residual-block inversion
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class InversionResult:
    """x with F(x) = x + g(x) close to the target, plus diagnostics."""

    points: PointCloud
    iterations: int
    residual: float
    converged: bool
    lip_estimate: float | None

    def to_dict(self) -> dict:
        """The fields as JSON values: an infinite float reads None."""
        return {
            "iterations": self.iterations,
            "residual": _json_float(self.residual),
            "converged": self.converged,
            "lip_estimate": _json_float(self.lip_estimate),
            "points": self.points.points.tolist(),
        }


def _gate_pair(reference: np.ndarray, seed: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Trial t's pair of clouds around the reference; the mode is t % 3."""
    scale = 0.5
    shape = reference.shape
    rng = stream(seed, t)
    a = reference + scale * rng.standard_normal(shape)
    mode = t % 3
    if mode == 0:
        b = reference + scale * rng.standard_normal(shape)
    elif mode == 1:
        b = a + scale * rng.standard_normal(shape[1])[None, :]
    else:
        b = a.copy()
        b[int(rng.integers(shape[0]))] += scale * rng.standard_normal(shape[1])
    return a, b


def sampled_set_lipschitz(
    layer: Layer,
    reference: PointCloud,
    trials: int = 16,
    seed: int = 0,
) -> float:
    """Sampled Lipschitz estimate of the set-to-set map in sup-l1 norm.

    A lower estimate only; the inversion gate warns rather than blocks on
    it because it certifies nothing. Pairs mix three perturbation shapes:
    independent clouds, a common translation of every particle (the worst
    direction for averaging maps), and a single-particle move, each drawn
    with standard deviation 0.5. Pairs closer than 1e-12 are skipped.

    All pairs are drawn first, each from its own stream(seed, t); the
    a-clouds are mapped in one `layer_map` call and the b-clouds in
    another. `layer_map` gives every cloud the bits of a call on it
    alone, so the estimate equals the trial-by-trial one bit for bit. One
    DEBUG event reports the trials, the layer-map calls (`batches`) and
    the estimate.
    """
    if trials < 1:
        raise InvalidInput(f"trials must be >= 1, got {trials!r}")
    pts = reference.points
    pairs = [_gate_pair(pts, seed, t) for t in range(trials)]
    with np.errstate(over="ignore"):  # as in `cloud_distance`
        dens = [_sup_distance(a, b) for a, b in pairs]
    kept = [(a, b, den) for (a, b), den in zip(pairs, dens) if den >= 1e-12]
    best, batches = 0.0, 0
    if kept:
        a_clouds, b_clouds, dens = zip(*kept)
        ga = layer_map(layer, np.stack(a_clouds))
        gb = layer_map(layer, np.stack(b_clouds))
        batches = 2
        best = float((_l1_norms(ga, gb).max(axis=1) / np.array(dens)).max())
    log.debug(
        "sampled_set_lipschitz: n=%d d=%d trials=%d batches=%d estimate=%.6g",
        *pts.shape, trials, batches, best,
    )
    return best


def invert_residual(
    layer: Layer,
    y: PointCloud,
    tol: float = 1e-10,
    max_iter: int = 500,
    lip_check: bool = True,
    seed: int = 0,
) -> InversionResult:
    """Invert F(X) = X + g(X), g the set-to-set attention map, by the
    fixed-point iteration x <- y - g(x); the whole cloud is inverted
    jointly. Non-convergence yields a diagnostic result, not an exception.
    The iterates are plain arrays mapped by `layer_map`; one DEBUG event
    reports the inversion.
    """
    if not (0 < tol < math.inf):
        raise InvalidInput(f"tol must be positive and finite, got {tol!r}")
    if max_iter < 1:
        raise InvalidInput(f"max_iter must be >= 1, got {max_iter!r}")
    lip = None
    if lip_check:
        lip = sampled_set_lipschitz(layer, y, seed=seed)
        if lip >= 1.0:
            warnings.warn(
                f"sampled Lipschitz estimate {lip:.3f} >= 1; the inversion "
                "iteration may not converge",
                RuntimeWarning,
                stacklevel=2,
            )
    xk = y.points
    iterations = 0
    with np.errstate(over="ignore"):  # as in `deq_solve`
        for iterations in range(1, max_iter + 1):
            if _diverged(xk):
                break
            nxt = y.points - layer_map(layer, xk[None])[0]
            step = _sup_distance(nxt, xk)
            xk = nxt
            if step < tol:
                break
    if _diverged(xk):
        result = InversionResult(
            points=y, iterations=iterations, residual=float("inf"),
            converged=False, lip_estimate=lip,
        )
    else:
        gx = layer_map(layer, xk[None])[0]
        residual = cloud_distance(xk + gx, y.points)
        result = InversionResult(
            points=PointCloud(xk),
            iterations=iterations,
            residual=residual,
            converged=residual <= tol,
            lip_estimate=lip,
        )
    log.debug(
        "invert_residual: n=%d d=%d iterations=%d residual=%.3e converged=%s",
        *y.points.shape, result.iterations, result.residual, result.converged,
    )
    return result
