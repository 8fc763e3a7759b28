"""Randomized kernel-vs-matrix equivalence suite.

Draws random instances across every potential and lookup kind, runs the
measure pipeline and the independent matrix-form oracle on each, and
reports the worst absolute deviation. A sabotage mode perturbs one weight
on the pipeline side only, as a negative control that the comparison can
actually fail.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidInput
from .kernels import (
    AttentionConfig,
    FfnConfig,
    FunctionLookup,
    Head,
    IdentityLookup,
    LinearLookup,
    MultiHeadConfig,
    multi_head,
    reference_multi_head,
    reference_self_attention,
    reference_transformer_layer,
    self_attention,
    transformer_layer,
)
from .measures import PointCloud
from .potentials import CustomPotential, DotProduct, Gaussian, ScaledDotProduct
from .streams import stream

EQUIV_TOL = 1e-10

POTENTIAL_KINDS = ("gaussian", "dot_product", "scaled_dot_product", "custom")
LOOKUP_KINDS = ("identity", "linear", "function")


def random_potential(rng: np.random.Generator, d: int, kind: str | None = None):
    kind = kind or POTENTIAL_KINDS[int(rng.integers(len(POTENTIAL_KINDS)))]
    if kind == "gaussian":
        return Gaussian(d)
    if kind == "dot_product":
        return DotProduct(scale=float(rng.uniform(0.2, 1.2)) / np.sqrt(d), dim=d)
    if kind == "scaled_dot_product":
        dp = int(rng.integers(1, d + 2))
        wq = rng.normal(scale=0.7 / np.sqrt(d), size=(dp, d))
        wk = rng.normal(scale=0.7 / np.sqrt(d), size=(dp, d))
        return ScaledDotProduct(w_q=wq, w_k=wk, scale=1.0 / np.sqrt(dp))
    return CustomPotential(fn=lambda x, y: -np.abs(x - y).sum(axis=-1), dim=d)


def random_lookup(rng: np.random.Generator, d: int, kind: str | None = None):
    kind = kind or LOOKUP_KINDS[int(rng.integers(len(LOOKUP_KINDS)))]
    if kind == "identity":
        return IdentityLookup(d)
    if kind == "linear":
        dv = int(rng.integers(1, d + 2))
        return LinearLookup(rng.normal(scale=0.6, size=(dv, d)))
    return FunctionLookup(fn=np.tanh, in_dim=d, out_dim=d, lip_ell=1.0)


def random_attention_config(rng, d, potential_kind=None, lookup_kind=None):
    return AttentionConfig(
        potential=random_potential(rng, d, potential_kind),
        lookup=random_lookup(rng, d, lookup_kind),
    )


def random_multi_head_config(rng, d, n_heads: int) -> MultiHeadConfig:
    heads = []
    for _ in range(n_heads):
        cfg = random_attention_config(rng, d)
        w_o = rng.normal(scale=0.5, size=(cfg.out_dim, d))
        heads.append(Head(attention=cfg, w_o=w_o))
    return MultiHeadConfig(heads)


def random_ffn(rng, d) -> FfnConfig:
    hidden = int(rng.integers(1, d + 3))
    layers = [
        (rng.normal(scale=0.5, size=(hidden, d)), rng.normal(scale=0.2, size=hidden)),
        (rng.normal(scale=0.5, size=(d, hidden)), rng.normal(scale=0.2, size=d)),
    ]
    act = ("relu", "tanh", "identity")[int(rng.integers(3))]
    return FfnConfig(layers, act)


def _sabotage_multi(cfg: MultiHeadConfig, delta: float = 1e-3) -> MultiHeadConfig:
    heads = list(cfg.heads)
    w = heads[0].w_o.copy()
    w[0, 0] += delta
    heads[0] = Head(attention=heads[0].attention, w_o=w)
    return MultiHeadConfig(heads)


def run_equivalence(
    trials: int = 100,
    d_choices: tuple = (1, 2, 4, 8),
    n_max: int = 16,
    seed: int = 0,
    heads_choices: tuple = (1, 2, 4),
    multi_every: int = 3,
    transformer_every: int = 5,
    sabotage: bool = False,
) -> dict:
    """Run the suite; the report carries the worst instance for replay.
    n_max**2 * max(d_choices), the size of a pairwise array, is at most 2**24."""
    if not d_choices or min(d_choices) < 1:
        raise InvalidInput(f"d_choices must be dimensions >= 1, got {d_choices!r}")
    if n_max < 1:
        raise InvalidInput(f"n_max must be >= 1, got {n_max!r}")
    if n_max**2 * max(d_choices) > 2**24:
        raise InvalidInput(f"n_max**2 * max(d) must be at most 2**24: {n_max!r}, {d_choices!r}")
    if trials < 1:
        raise InvalidInput(f"trials must be >= 1, got {trials!r}")
    worst = {"deviation": -1.0}
    max_dev = 0.0
    for t in range(trials):
        rng = stream(seed, t)
        d = int(d_choices[int(rng.integers(len(d_choices)))])
        n = int(rng.integers(1, n_max + 1))
        cloud = PointCloud(rng.normal(size=(n, d)))
        flavor = "single"
        if multi_every and t % multi_every == multi_every - 1:
            flavor = "multi"
        if transformer_every and t % transformer_every == transformer_every - 1:
            flavor = "transformer"
        if sabotage:
            # the fault is injected into a W_O entry, so force a flavor
            # that carries one
            flavor = "multi"

        if flavor == "single":
            cfg = random_attention_config(rng, d)
            got = self_attention(cfg, cloud).points
            want = reference_self_attention(cfg, cloud)
            kinds = (cfg.potential.kind, cfg.lookup.__class__.__name__)
        else:
            h = int(heads_choices[int(rng.integers(len(heads_choices)))])
            mh = random_multi_head_config(rng, d, h)
            run_mh = _sabotage_multi(mh) if sabotage else mh
            if flavor == "multi":
                got = multi_head(run_mh, cloud).points
                want = reference_multi_head(mh, cloud)
            else:
                ffn = random_ffn(rng, d)
                got = transformer_layer(run_mh, ffn, cloud).points
                want = reference_transformer_layer(mh, ffn, cloud)
            kinds = tuple(
                (head.attention.potential.kind, head.attention.lookup.__class__.__name__)
                for head in mh.heads
            )
        dev = float(np.abs(got - want).max())
        max_dev = max(max_dev, dev)
        if dev > worst["deviation"]:
            worst = {
                "deviation": dev,
                "trial": t,
                "d": d,
                "n": n,
                "flavor": flavor,
                "kinds": kinds,
            }
    return {
        "trials": trials,
        "max_abs_deviation": max_dev,
        "tolerance": EQUIV_TOL,
        "pass": max_dev <= EQUIV_TOL,
        "sabotage": sabotage,
        "worst_instance": worst,
    }
