"""The four benchmark workloads.

Each workload models one user task and loads a different layer of
`softmatch`. A workload has two parts:

- `build(seed)`: the set-up a user pays before the first call, namely the
  layer configs and closed-form bounds. The setup_s metric times this part
  in a fresh interpreter.
- `round_calls(state, r)`: the inputs of round r and the calls to make on
  them. Inputs depend only on (seed, r, position in the round). A round's
  sizes are fixed, so every round does the same mix of work.

The library receives only generated inputs and configs. Randomness inside
the library is fixed by the seeds passed in its configs, such as
`ProbeConfig.seed`. Library functions are always looked up through their
module (`transport.w1`, not a name bound at import time), so the traced run
can wrap them.

Each call carries an independent correctness check. The benchmark runs the
check after the timed phase, on the returned value. It also carries a
`sabotage` function for the negative control, which perturbs the returned
value so that the check must fail.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from softmatch import bounds, dynamics, equiv, kernels, measures, potentials, probes, transport

W1_RTOL = 1e-9          # W1 against the HiGHS LP: |v - lp| <= 1e-9 (1 + v)
EQUIV_TOL = 1e-10       # kernel pipeline against the matrix oracle
ROUND_TRIP_TOL = 1e-7   # inversion round trip, sup-l1


@dataclass
class Call:
    """One timed call to a top-level public function of the library."""

    kind: str                           # label, e.g. "w1.flow"
    units: int                          # work units credited to throughput
    run: Callable[[], Any]              # the call itself
    check: Callable[[Any], str | None]  # failure reason, or None when correct
    sabotage: Callable[[Any], Any]      # negative control: spoil the output
    size: tuple = ()                    # (n, m, d) style label for reports


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _subseed(seed: int, *key: int) -> int:
    """A library-facing seed derived from (seed, key)."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def _weighted(rng: np.random.Generator, n: int, d: int) -> measures.EmpiricalMeasure:
    w = rng.random(n) + 0.05
    return measures.EmpiricalMeasure(
        measures.PointCloud(rng.uniform(-1.0, 1.0, (n, d))), w / w.sum()
    )


# ---------------------------------------------------------------------------
# Independent checks
# ---------------------------------------------------------------------------

def lp_w1(mu: measures.EmpiricalMeasure, nu: measures.EmpiricalMeasure) -> float:
    """W1 with l1 costs as a float LP solved by HiGHS, independent of the
    library's solvers (it shares only the cost definition). scipy is
    imported here, not at module level, so that the checker stays out of
    the set-up time."""
    import scipy.sparse as sparse
    from scipy.optimize import linprog

    x, y = mu.support.points, nu.support.points
    c = np.abs(x[:, None, :] - y[None, :, :]).sum(axis=2)
    n, m = c.shape
    idx = np.arange(n * m)
    rows = np.concatenate([idx // m, n + idx % m])
    a_eq = sparse.csr_matrix(
        (np.ones(2 * n * m), (rows, np.concatenate([idx, idx]))), shape=(n + m, n * m)
    )
    b_eq = np.concatenate([mu.weights, nu.weights])
    # HiGHS' default feasibility tolerances (1e-7) can leave the optimum of
    # near-identical clouds ~1e-9 too high; 1e-10 resolves it
    res = linprog(
        c.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun)


def check_w1(res, mu, nu) -> str | None:
    """Value against the LP, the dual-gap contract and certificate feasibility."""
    v = res.value
    tol = W1_RTOL * (1.0 + abs(v))
    lp = lp_w1(mu, nu)
    if not abs(v - lp) <= tol:
        return f"W1 {v!r} vs LP {lp!r}"
    if not 0.0 <= res.dual_gap <= tol:
        return f"dual gap {res.dual_gap!r} outside [0, {tol!r}]"
    cert = res.plan.certificate()
    c_max = float(transport.cost_matrix_l1(mu.support.points, nu.support.points).max())
    if not cert["max_feasibility_violation"] <= W1_RTOL * (1.0 + c_max):
        return f"dual infeasible by {cert['max_feasibility_violation']!r}"
    if not abs(cert["dual_objective"] - v) <= tol + res.dual_gap:
        return f"dual objective {cert['dual_objective']!r} vs value {v!r}"
    return None


def _spoil_w1(res):
    return dataclasses.replace(res, value=res.value * (1.0 + 1e-6) + 1e-6)


def _probe_check(res) -> str | None:
    return None if res.violations == 0 else f"{res.violations} bound violations"


def _spoil_probe(res):
    return dataclasses.replace(res, violations=res.violations + 1)


def _spoil_flag(key: str):
    return lambda rep: {**rep, key: False}


# ---------------------------------------------------------------------------
# probe: the acceptance-shaped validation sweep
# ---------------------------------------------------------------------------

class Probe:
    """probe_contraction on a bounded box and on the unbounded Gaussian
    domain with all four perturbations, probe_component for all four kinds,
    and run_equivalence for the single, multi-head and transformer flavours;
    d in {1, 2, 4}, n <= 16."""

    name = "probe"
    unit = "pairs"
    round_s = 1.3
    trials = 12
    dims = (1, 2, 4)

    def build(self, seed: int) -> dict:
        rng = _rng(seed, 0)
        contraction = []
        for d in self.dims:
            box = measures.DomainBox.cube(1.0, d)
            for k, mode in enumerate(probes.PERTURBATIONS):
                pot = potentials.DotProduct(1.0, d) if k % 2 else potentials.Gaussian(d)
                if k % 2:
                    w = rng.normal(size=(d, d))
                    lookup = kernels.LinearLookup(0.9 * w / np.abs(w).sum(axis=1).max())
                else:
                    lookup = kernels.IdentityLookup(d)
                cfg = kernels.AttentionConfig(pot, lookup)
                bound = bounds.bound_bounded_contraction(cfg, box).value
                contraction.append((d, mode, box, cfg, bound))
                # unbounded Gaussian domain: the constant at the smallest
                # support size any trial can draw, as `softmatch probe` uses
                gcfg = kernels.AttentionConfig(potentials.Gaussian(d), lookup)
                ubound = bounds.bound_unbounded_gaussian(lookup, d, 2, 2).value
                contraction.append(
                    (d, mode, measures.DomainBox.unbounded(d), gcfg, ubound)
                )
        components = []
        for d in self.dims:
            pot = potentials.Gaussian(d) if d % 2 == 0 else potentials.DotProduct(1.0, d)
            for kind in probes.COMPONENT_KINDS:
                lookup = kernels.LinearLookup(2.0 * np.eye(d)) if kind == "lookup" else None
                components.append((d, kind, pot, lookup))
        return {"seed": seed, "contraction": contraction, "components": components}

    def round_calls(self, state: dict, r: int) -> list[Call]:
        seed, t = state["seed"], self.trials
        calls = []
        for i, (d, mode, box, cfg, bound) in enumerate(state["contraction"]):
            pc = probes.ProbeConfig(
                seed=_subseed(seed, r, i), trials=t, d=d, n_range=(2, 16),
                domain=box, perturbation=mode, jitter_sigma=0.05,
            )
            calls.append(Call(
                "probe_contraction", t,
                lambda cfg=cfg, pc=pc, bound=bound: probes.probe_contraction(cfg, pc, bound=bound),
                _probe_check, _spoil_probe, (16, 16, d),
            ))
        for i, (d, kind, pot, lookup) in enumerate(state["components"]):
            pc = probes.ProbeConfig(
                seed=_subseed(seed, r, 100 + i), trials=t, d=d, n_range=(1, 16),
                domain=measures.DomainBox.cube(1.0, d),
            )
            calls.append(Call(
                "probe_component", t,
                lambda kind=kind, pc=pc, pot=pot, lookup=lookup: probes.probe_component(
                    kind, pc, potential=pot, lookup=lookup
                ),
                _probe_check, _spoil_probe, (16, 16, d),
            ))
        for i, (multi, transformer) in enumerate(((0, 0), (1, 0), (0, 1))):
            s = _subseed(seed, r, 200 + i)
            calls.append(Call(
                "run_equivalence", t,
                lambda s=s, multi=multi, transformer=transformer: equiv.run_equivalence(
                    trials=t, d_choices=self.dims, n_max=16, seed=s,
                    multi_every=multi, transformer_every=transformer,
                ),
                lambda rep: None if rep["pass"] and rep["max_abs_deviation"] <= EQUIV_TOL
                else f"equivalence deviation {rep['max_abs_deviation']!r}",
                lambda rep: {**rep, "max_abs_deviation": 1e-9, "pass": False},
                (16, 16, 4),
            ))
        return calls


# ---------------------------------------------------------------------------
# transport: exact W1 at desk scale
# ---------------------------------------------------------------------------

class Transport:
    """Weighted unequal-size pairs on the flow path, uniform equal-size
    pairs on the assignment path, and run_particles trajectories whose
    per-step W1 certifies near-identical clouds; d in {1, 2, 4}."""

    name = "transport"
    unit = "solves"
    round_s = 2.5
    flow_sizes = ((64, 48, 1), (80, 96, 2), (128, 112, 4))
    assignment_sizes = ((64, 1), (128, 2), (256, 4))
    trajectory_sizes = ((64, 1), (96, 4))
    steps = 3

    def build(self, seed: int) -> dict:
        layers = {}
        for _, d in self.trajectory_sizes:
            layers[d] = kernels.AttentionConfig(
                potentials.Gaussian(d), kernels.LinearLookup(0.5 * np.eye(d))
            )
        return {"seed": seed, "layers": layers}

    def round_calls(self, state: dict, r: int) -> list[Call]:
        seed = state["seed"]
        calls = []
        for i, (n, m, d) in enumerate(self.flow_sizes):
            rng = _rng(seed, r, i)
            mu, nu = _weighted(rng, n, d), _weighted(rng, m, d)
            calls.append(Call(
                "w1.flow", 1,
                lambda mu=mu, nu=nu: transport.w1(mu, nu),
                lambda res, mu=mu, nu=nu: check_w1(res, mu, nu),
                _spoil_w1, (n, m, d),
            ))
        for i, (n, d) in enumerate(self.assignment_sizes):
            rng = _rng(seed, r, 10 + i)
            mu = measures.empirical(rng.uniform(-1.0, 1.0, (n, d)))
            nu = measures.empirical(rng.uniform(-1.0, 1.0, (n, d)))
            calls.append(Call(
                "w1.assignment", 1,
                lambda mu=mu, nu=nu: transport.w1(mu, nu),
                lambda res, mu=mu, nu=nu: check_w1(res, mu, nu),
                _spoil_w1, (n, n, d),
            ))
        for i, (n, d) in enumerate(self.trajectory_sizes):
            rng = _rng(seed, r, 20 + i)
            x0 = measures.PointCloud(rng.uniform(-1.0, 1.0, (n, d)))
            layer = state["layers"][d]
            calls.append(Call(
                "run_particles", 1,
                lambda layer=layer, x0=x0: dynamics.run_particles(layer, x0, steps=self.steps),
                lambda traj, layer=layer: _check_trajectory(traj, layer),
                lambda traj: dataclasses.replace(
                    traj, per_step_w1=(traj.per_step_w1[0] + 1e-6,) + traj.per_step_w1[1:]
                ),
                (n, n, d),
            ))
        return calls


def _check_trajectory(traj, layer) -> str | None:
    for h, w in enumerate(traj.per_step_w1):
        a, b = traj.states[h], traj.states[h + 1]
        want = kernels.reference_self_attention(layer, a)
        dev = float(np.abs(b.points - want).max())
        if not dev <= EQUIV_TOL:
            return f"step {h}: state deviates from the matrix oracle by {dev!r}"
        lp = lp_w1(measures.empirical(a), measures.empirical(b))
        if not abs(w - lp) <= W1_RTOL * (1.0 + abs(w)):
            return f"step {h}: W1 {w!r} vs LP {lp!r}"
    return None


# ---------------------------------------------------------------------------
# dynamics: deep-equilibrium solves and residual inversion
# ---------------------------------------------------------------------------

def _contractive_head(d: int, gaussian: bool) -> kernels.AttentionConfig:
    pot = potentials.Gaussian(d) if gaussian else potentials.DotProduct(scale=0.05, dim=d)
    return kernels.AttentionConfig(pot, kernels.LinearLookup(0.3 * np.eye(d)))


def _contractive_multi(d: int, heads: int) -> kernels.MultiHeadConfig:
    return kernels.MultiHeadConfig([
        kernels.Head(_contractive_head(d, gaussian=h % 2 == 1), np.eye(d) / heads)
        for h in range(heads)
    ])


def _contractive_transformer(d: int, heads: int) -> dynamics.TransformerLayerSpec:
    rng = _rng(0, d, heads)
    hidden = 2 * d
    ffn = kernels.FfnConfig(
        [
            (rng.normal(scale=0.3 / d, size=(hidden, d)), rng.normal(scale=0.1, size=hidden)),
            (rng.normal(scale=0.3 / hidden, size=(d, hidden)), rng.normal(scale=0.1, size=d)),
        ],
        "tanh",
    )
    return dynamics.TransformerLayerSpec(_contractive_multi(d, heads), ffn)


def _reference_layer(layer, cloud: measures.PointCloud) -> np.ndarray:
    """The layer in matrix form, used only to make inversion targets."""
    if isinstance(layer, kernels.AttentionConfig):
        return kernels.reference_self_attention(layer, cloud)
    if isinstance(layer, kernels.MultiHeadConfig):
        return kernels.reference_multi_head(layer, cloud)
    return kernels.reference_transformer_layer(layer.mh, layer.ffn, cloud)


class Dynamics:
    """deq_solve and invert_residual (with its sampled Lipschitz gate) on
    contractive single-head dot-product and Gaussian, multi-head and
    transformer-layer configs; N in {16, 64, 256}, d in {2, 4}."""

    name = "dynamics"
    unit = "solves"
    round_s = 4.5
    deq_tol, deq_max_iter = 1e-10, 300
    inv_tol, inv_max_iter = 1e-9, 2000
    # (solver, layer key, N, d)
    schedule = (
        ("deq", "dot", 16, 2),
        ("deq", "gauss", 64, 4),
        ("deq", "multi", 64, 2),
        ("deq", "transformer", 16, 4),
        ("deq", "gauss", 256, 4),
        ("invert", "dot", 16, 2),
        ("invert", "gauss", 64, 4),
        ("invert", "multi", 16, 4),
        ("invert", "transformer", 16, 2),
    )

    def build(self, seed: int) -> dict:
        layers = {}
        for _, key, _, d in self.schedule:
            if key == "dot":
                layers[key, d] = _contractive_head(d, gaussian=False)
            elif key == "gauss":
                layers[key, d] = _contractive_head(d, gaussian=True)
            elif key == "multi":
                layers[key, d] = _contractive_multi(d, heads=2)
            else:
                layers[key, d] = _contractive_transformer(d, heads=2)
        return {"seed": seed, "layers": layers}

    def round_calls(self, state: dict, r: int) -> list[Call]:
        seed = state["seed"]
        calls = []
        for i, (solver, key, n, d) in enumerate(self.schedule):
            rng = _rng(seed, r, i)
            layer = state["layers"][key, d]
            x = measures.PointCloud(rng.uniform(-0.5, 0.5, (n, d)))
            if solver == "deq":
                h0 = measures.PointCloud(rng.uniform(-0.5, 0.5, (n, d)))
                calls.append(Call(
                    "deq_solve", 1,
                    lambda layer=layer, x=x, h0=h0: dynamics.deq_solve(
                        layer, x, h0, tol=self.deq_tol, max_iter=self.deq_max_iter
                    ),
                    self._check_deq,
                    lambda res: dataclasses.replace(res, residual=res.residual + 1e-6),
                    (n, n, d),
                ))
            else:
                y = measures.PointCloud(x.points + _reference_layer(layer, x))
                s = _subseed(seed, r, i)
                calls.append(Call(
                    "invert_residual", 1,
                    lambda layer=layer, y=y, s=s: dynamics.invert_residual(
                        layer, y, tol=self.inv_tol, max_iter=self.inv_max_iter, seed=s
                    ),
                    lambda res, x=x: self._check_invert(res, x),
                    lambda res: dataclasses.replace(
                        res, points=measures.PointCloud(res.points.points + 1e-6)
                    ),
                    (n, n, d),
                ))
        return calls

    def _check_deq(self, res) -> str | None:
        if not (res.converged and res.residual <= self.deq_tol):
            return f"DEQ not converged: residual {res.residual!r}"
        return None

    def _check_invert(self, res, x) -> str | None:
        if not (res.converged and res.residual <= self.inv_tol):
            return f"inversion not converged: residual {res.residual!r}"
        if not (res.lip_estimate is not None and res.lip_estimate < 1.0):
            return f"Lipschitz gate estimate {res.lip_estimate!r} is not below 1"
        rt = float(np.abs(res.points.points - x.points).sum(axis=1).max())
        if not rt <= ROUND_TRIP_TOL:
            return f"round trip {rt!r} exceeds {ROUND_TRIP_TOL}"
        return None


# ---------------------------------------------------------------------------
# lemmas: the auxiliary lemma checks
# ---------------------------------------------------------------------------

class Lemmas:
    """check_ratio_lemma up to n_max = 1000 (the padded ascent), plus
    check_product_lemma and check_local_lip_lemma."""

    name = "lemmas"
    unit = "checks"
    round_s = 3.3
    # (lemma, keyword arguments other than seed)
    schedule = (
        ("ratio", {"n_max": 1000, "restarts": 1, "ascent_iters": 50}),
        ("ratio", {"n_max": 400, "restarts": 2, "ascent_iters": 100}),
        ("ratio", {"n_max": 100, "restarts": 3}),
        ("ratio", {"n_max": 30, "restarts": 3}),
        ("product", {"trials": 40, "size_range": (1, 8), "d": 1}),
        ("product", {"trials": 40, "size_range": (1, 4), "d": 2}),
        ("product", {"trials": 20, "size_range": (1, 4), "d": 4}),
        ("local_lip", {"trials": 12, "d": 3, "n_samples": 100_000}),
        ("local_lip", {"trials": 6, "d": 2, "n_samples": 50_000}),
    )

    def build(self, seed: int) -> dict:
        return {"seed": seed}

    def round_calls(self, state: dict, r: int) -> list[Call]:
        seed = state["seed"]
        calls = []
        for i, (lemma, kw) in enumerate(self.schedule):
            s = _subseed(seed, r, i)
            if lemma == "ratio":
                flags = ("all_within_bound", "ascent_consistent")
                size = (kw["n_max"], 0, 1)
            elif lemma == "product":
                flags = ("subadditive",)
                size = (kw["size_range"][1] ** 2, kw["size_range"][1] ** 2, kw["d"])
            else:
                flags = ("all_consistent",)
                size = (kw["n_samples"], 0, kw["d"])
            fn_name = f"check_{lemma}_lemma"
            calls.append(Call(
                fn_name, 1,
                lambda fn_name=fn_name, kw=kw, s=s: getattr(probes, fn_name)(**kw, seed=s),
                lambda rep, flags=flags: next(
                    (f"{f} is false" for f in flags if rep[f] is not True), None
                ),
                _spoil_flag(flags[0]), size,
            ))
        return calls


WORKLOADS = {w.name: w for w in (Probe(), Transport(), Dynamics(), Lemmas())}
