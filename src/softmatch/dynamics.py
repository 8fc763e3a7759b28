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

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, InvalidInput
from .kernels import (
    AttentionConfig,
    FfnConfig,
    MultiHeadConfig,
    multi_head,
    self_attention,
    transformer_layer,
)
from .measures import PointCloud, empirical
from .streams import stream
from .transport import w1


@dataclass(frozen=True)
class TransformerLayerSpec:
    """A full layer: multi-head attention followed by a pointwise FFN."""

    mh: MultiHeadConfig
    ffn: FfnConfig


Layer = AttentionConfig | MultiHeadConfig | TransformerLayerSpec


def apply_layer(layer: Layer, cloud: PointCloud) -> PointCloud:
    if isinstance(layer, AttentionConfig):
        return self_attention(layer, cloud)
    if isinstance(layer, MultiHeadConfig):
        return multi_head(layer, cloud)
    if isinstance(layer, TransformerLayerSpec):
        return transformer_layer(layer.mh, layer.ffn, cloud)
    raise InvalidInput(f"not a layer: {layer!r}")


def cloud_distance(a: PointCloud | np.ndarray, b: PointCloud | np.ndarray) -> float:
    """sup over particles of the per-particle l1 distance."""
    pa = a.points if isinstance(a, PointCloud) else np.asarray(a)
    pb = b.points if isinstance(b, PointCloud) else np.asarray(b)
    if pa.shape != pb.shape:
        raise DimMismatch(f"cloud shapes {pa.shape} and {pb.shape} differ")
    return float(np.abs(pa - pb).sum(axis=1).max())


@dataclass(frozen=True)
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


def run_particles(layers, x0: PointCloud, steps: int | None = None) -> Trajectory:
    """Iterate a layer (or a list of per-step layers) from x0.

    A single layer is weight-tied and applied `steps` times; a list runs
    once per entry. steps = 0 returns the trajectory [x0]. Each step's W1
    is exact, so a cloud of more than 512 points raises SupportTooLarge.
    """
    if isinstance(layers, (AttentionConfig, MultiHeadConfig, TransformerLayerSpec)):
        if steps is None:
            raise InvalidInput("weight-tied run needs an explicit step count")
        if steps < 0:
            raise InvalidInput("steps must be >= 0")
        seq = [layers] * steps
    else:
        seq = list(layers)
        if steps is not None and steps != len(seq):
            raise InvalidInput(
                f"steps {steps} disagrees with {len(seq)} provided layers"
            )
    states = [x0]
    per_step = []
    for layer in seq:
        nxt = apply_layer(layer, states[-1])
        per_step.append(w1(empirical(states[-1]), empirical(nxt)).value)
        states.append(nxt)
    return Trajectory(tuple(states), tuple(per_step), tuple(seq))


# ---------------------------------------------------------------------------
# Deep-equilibrium fixed points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeqResult:
    h_star: PointCloud
    iterations: int
    residual: float
    contraction_estimate: float
    converged: bool

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "residual": self.residual,
            "contraction_estimate": self.contraction_estimate,
            "converged": self.converged,
            "h_star": self.h_star.points.tolist(),
        }


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
    transformed input s(X), pass s(X) as x.
    """
    if tol <= 0:
        raise InvalidInput("tol must be positive")
    if max_iter < 1:
        raise InvalidInput(f"max_iter must be >= 1, got {max_iter!r}")
    if x.points.shape != h0.points.shape:
        raise DimMismatch(
            f"input shape {x.points.shape} vs state shape {h0.points.shape}"
        )
    h = h0
    prev_step = None
    contraction = 0.0
    step = float("inf")
    iterations = 0
    for iterations in range(1, max_iter + 1):
        arg = h.points + x.points
        if not np.all(np.isfinite(arg)) or np.abs(arg).max() > 1e100:
            # diverged past any useful range: report, do not raise
            step = float("inf")
            break
        nxt = apply_layer(layer, PointCloud(arg))
        step = cloud_distance(nxt, h)
        if prev_step is not None and prev_step > 0:
            contraction = max(contraction, step / prev_step)
        prev_step = step
        h = nxt
        if step < tol:
            break
    return DeqResult(
        h_star=h,
        iterations=iterations,
        residual=step,
        contraction_estimate=contraction,
        converged=step < tol,
    )


# ---------------------------------------------------------------------------
# Residual-block inversion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InversionResult:
    """x with F(x) = x + g(x) close to the target, plus diagnostics."""

    points: PointCloud
    iterations: int
    residual: float
    converged: bool
    lip_estimate: float | None

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": self.converged,
            "lip_estimate": self.lip_estimate,
            "points": self.points.points.tolist(),
        }


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
    with standard deviation 0.5.
    """
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
        ga = apply_layer(layer, PointCloud(a)).points
        gb = apply_layer(layer, PointCloud(b)).points
        best = max(best, cloud_distance(ga, gb) / den)
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
    """
    if tol <= 0:
        raise InvalidInput("tol must be positive")
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
    for iterations in range(1, max_iter + 1):
        if not np.all(np.isfinite(xk)) or np.abs(xk).max() > 1e100:
            return InversionResult(
                points=y, iterations=iterations, residual=float("inf"),
                converged=False, lip_estimate=lip,
            )
        gx = apply_layer(layer, PointCloud(xk)).points
        nxt = y.points - gx
        step = float(np.abs(nxt - xk).sum(axis=1).max())
        xk = nxt
        if step < tol:
            break
    if not np.all(np.isfinite(xk)) or np.abs(xk).max() > 1e100:
        return InversionResult(
            points=y, iterations=iterations, residual=float("inf"),
            converged=False, lip_estimate=lip,
        )
    gx = apply_layer(layer, PointCloud(xk)).points
    residual = float(np.abs(xk + gx - y.points).sum(axis=1).max())
    return InversionResult(
        points=PointCloud(xk),
        iterations=iterations,
        residual=residual,
        converged=residual <= tol,
        lip_estimate=lip,
    )
