"""Acceptance suite: the ten exit criteria, one test per criterion.

Every criterion prints a PASS/FAIL line (visible with `pytest -s`, and
`pytest -v` shows one line per criterion either way). Tolerances are fixed
here, not configurable. All randomness is seeded; reruns are bit-identical.
"""

import math
import time
from itertools import product

import numpy as np
from flow_oracle import w1_oracle_lcm, w1_oracle_permutations

from softmatch.bounds import (
    bound_bounded_contraction,
    bound_cross_attention,
    bound_unbounded_equal_n,
    bound_unbounded_gaussian,
)
from softmatch.dynamics import (
    cloud_distance,
    deq_solve,
    invert_residual,
    sampled_set_lipschitz,
)
from softmatch.equiv import run_equivalence
from softmatch.kernels import (
    AttentionConfig,
    IdentityLookup,
    LinearLookup,
    attention_kernel,
    attention_pushforward,
    self_attention,
)
from softmatch.measures import DomainBox, PointCloud, empirical
from softmatch.potentials import DotProduct, Gaussian
from softmatch.probes import ProbeConfig, probe_component, probe_contraction
from softmatch.streams import stream
from softmatch.transport import w1
from test_transport import matrix_minimum_w1


def verdict(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def bounded_lookup(rng, d):
    """A linear lookup whose matrix maps the unit box into itself."""
    w = rng.normal(size=(d, d))
    row_norm = np.abs(w).sum(axis=1).max()
    return LinearLookup(0.9 * w / row_norm)


def test_criterion_01_kernel_matrix_equivalence():
    t0 = time.perf_counter()
    rep = run_equivalence(
        trials=1000, d_choices=(1, 2, 4, 8), n_max=16, seed=101,
        multi_every=0, transformer_every=0,
    )
    elapsed = time.perf_counter() - t0
    ok = rep["pass"] and elapsed < 10.0
    verdict(
        1, "kernel/matrix equivalence", ok,
        f"max dev {rep['max_abs_deviation']:.2e} (tol 1e-10), {elapsed:.1f}s",
    )


def test_criterion_02_multi_head_equivalence():
    rep = run_equivalence(
        trials=200, d_choices=(1, 2, 4, 8), n_max=16, seed=202,
        heads_choices=(1, 2, 4), multi_every=1, transformer_every=0,
    )
    verdict(
        2, "multi-head equivalence", rep["pass"],
        f"max dev {rep['max_abs_deviation']:.2e} (tol 1e-10)",
    )


def test_criterion_03_w1_exactness():
    t0 = time.perf_counter()
    worst_equal = 0.0
    for t in range(500):
        rng = stream(303, t)
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 4))
        x = PointCloud(rng.uniform(-3, 3, (n, d)))
        y = PointCloud(rng.uniform(-3, 3, (n, d)))
        brute = w1_oracle_permutations(x, y)
        mu, nu = empirical(x), empirical(y)
        flow = matrix_minimum_w1(mu, nu)
        fast = w1(mu, nu).value
        worst_equal = max(worst_equal, abs(flow - brute), abs(fast - brute))

    lcm_pairs = [
        (n, m)
        for n, m in product(range(1, 13), repeat=2)
        if n != m and (n * m) // math.gcd(n, m) <= 12
    ]
    worst_lcm = 0.0
    for t in range(500):
        rng = stream(304, t)
        n, m = lcm_pairs[t % len(lcm_pairs)]
        d = int(rng.integers(1, 4))
        mu = empirical(PointCloud(rng.uniform(-3, 3, (n, d))))
        nu = empirical(PointCloud(rng.uniform(-3, 3, (m, d))))
        worst_lcm = max(
            worst_lcm,
            abs(w1(mu, nu).value - w1_oracle_lcm(mu, nu)),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_equal <= 1e-12 and worst_lcm <= 1e-9 and elapsed < 30.0
    verdict(
        3, "W1 exactness", ok,
        f"equal-size dev {worst_equal:.2e} (tol 1e-12), "
        f"lcm dev {worst_lcm:.2e} (tol 1e-9), {elapsed:.1f}s",
    )


def test_criterion_04_bounded_contraction_theorem():
    total_trials = 0
    violations = 0
    worst_margin = math.inf
    modes = ("resample", "jitter", "drop_point", "duplicate_point")
    for d, pot_kind in product((1, 2, 4), ("dot", "gauss")):
        box = DomainBox.cube(1.0, d)
        potential = DotProduct(1.0, d) if pot_kind == "dot" else Gaussian(d)
        for k, mode in enumerate(modes):
            rng = stream(404, d, k)
            lookup = IdentityLookup(d) if k % 2 == 0 else bounded_lookup(rng, d)
            cfg = AttentionConfig(potential, lookup)
            bound = bound_bounded_contraction(cfg, box).value
            probe = ProbeConfig(
                seed=405 + 10 * d + k, trials=84, d=d, n_range=(2, 8),
                domain=box, perturbation=mode, jitter_sigma=0.05,
            )
            res = probe_contraction(cfg, probe, bound=bound)
            total_trials += probe.trials
            violations += res.violations
            worst_margin = min(worst_margin, bound - res.max_ratio)

    comp_violations = 0
    for kind in ("projection", "lookup", "softmatch_in_x", "softmatch_in_measure"):
        for d, potential in ((1, DotProduct(1.0, 1)), (2, Gaussian(2))):
            probe = ProbeConfig(
                seed=406, trials=150, d=d, n_range=(1, 6),
                domain=DomainBox.cube(1.0, d),
            )
            res = probe_component(
                kind, probe,
                potential=potential,
                lookup=LinearLookup(2.0 * np.eye(d)) if kind == "lookup" else None,
            )
            comp_violations += res.violations

    ok = total_trials >= 2000 and violations == 0 and comp_violations == 0
    verdict(
        4, "bounded contraction theorem", ok,
        f"{total_trials} pairs, {violations} violations, "
        f"components {comp_violations}, min margin {worst_margin:.2f}",
    )


def test_criterion_05_unbounded_gaussian_theorem():
    trials = 2000
    radius = 5.0
    violations = 0
    worst_margin = math.inf
    unequal = 0
    for t in range(trials):
        rng = stream(505, t)
        d = (1, 2, 4)[t % 3]
        lookup = IdentityLookup(d) if t % 2 == 0 else bounded_lookup(rng, d)
        cfg = AttentionConfig(Gaussian(d), lookup)
        n = int(rng.integers(2, 17))
        base = rng.uniform(-radius, radius, (n, d))
        mode = t % 4
        if mode == 0:
            m = int(rng.integers(2, 17))
            other = rng.uniform(-radius, radius, (m, d))
        elif mode == 1:
            other = base + 0.05 * rng.standard_normal(base.shape)
        elif mode == 2 and n > 2:
            other = np.delete(base, int(rng.integers(n)), axis=0)
        else:
            other = np.vstack([base, base[int(rng.integers(n))]])
        m = other.shape[0]
        unequal += int(n != m)
        mu, nu = empirical(PointCloud(base)), empirical(PointCloud(other))
        d_in = w1(mu, nu).value
        if d_in < 1e-12:
            continue
        d_out = w1(
            attention_pushforward(cfg, mu), attention_pushforward(cfg, nu)
        ).value
        ratio = d_out / d_in
        bound = bound_unbounded_gaussian(lookup, d, n, m).value
        if ratio > bound + 1e-7 * max(1.0, bound):
            violations += 1
        worst_margin = min(worst_margin, bound - ratio)

    identity_exact = all(
        bound_unbounded_equal_n(IdentityLookup(d), d, n).value
        == bound_unbounded_gaussian(IdentityLookup(d), d, n, n).value
        for d in (1, 2, 4)
        for n in range(1, 17)
    )
    ok = violations == 0 and unequal > 0 and identity_exact
    verdict(
        5, "unbounded Gaussian theorem", ok,
        f"{trials} pairs ({unequal} unequal-size), {violations} violations, "
        f"min margin {worst_margin:.2f}, corollary identity {identity_exact}",
    )


def test_criterion_06_cross_attention():
    # Gaussian potentials: their per-query seminorm is a positive constant,
    # so the cross-attention cap never degenerates (dot products with
    # near-zero queries have a vanishing cap but a non-vanishing deviation;
    # see test_bounds for that sharp edge)
    trials = 1000
    violations = 0
    worst = -math.inf
    for t in range(trials):
        rng = stream(606, t)
        d = (1, 2, 4)[t % 3]
        box = DomainBox.cube(1.0, d)
        potential = Gaussian(d)
        lookup = IdentityLookup(d) if t % 4 < 2 else bounded_lookup(rng, d)
        cfg = AttentionConfig(potential, lookup)
        q = rng.uniform(-1, 1, d)
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        x = PointCloud(rng.uniform(-1, 1, (n, d)))
        y = PointCloud(rng.uniform(-1, 1, (m, d)))
        out_x = attention_kernel(cfg, q, empirical(x))
        out_y = attention_kernel(cfg, q, empirical(y))
        dev = float(np.linalg.norm(out_x - out_y, 2))
        cap = bound_cross_attention(cfg, box, q).value * w1(
            empirical(x), empirical(y)
        ).value + 1e-7
        worst = max(worst, dev - cap)
        if dev > cap:
            violations += 1
    verdict(
        6, "cross-attention proposition", violations == 0,
        f"{trials} triples, {violations} violations, worst slack {worst:.2e}",
    )


def test_criterion_07_ratio_lemma(ratio_check):
    # check_ratio_lemma(1000, seed=707), run once in a session (conftest.py)
    rep, _ = ratio_check(1000, seed=707)
    ok = (
        rep["max_violation_reduction"] <= 1e-9
        and rep["max_violation_ascent"] <= 1e-9
        and rep["max_ascent_excess"] <= 1e-12
    )
    verdict(
        7, "ratio lemma", ok,
        f"n <= 1000, bound excess {rep['max_violation_reduction']:.2e} (tol 1e-9), "
        f"ascent excess over the supremum {rep['max_ascent_excess']:.2e} (tol 1e-12)",
    )


def test_criterion_08_product_measure_lemma():
    from softmatch.probes import check_product_lemma

    rep = check_product_lemma(500, seed=808)
    verdict(
        8, "product-measure lemma", rep["max_violation"] <= 1e-9,
        f"500 instances, max violation {rep['max_violation']:.2e} (tol 1e-9)",
    )


def test_criterion_09_deep_equilibrium():
    d = 2
    box = DomainBox.cube(1.0, d)
    cfg = AttentionConfig(
        DotProduct(scale=0.05, dim=d), LinearLookup(0.3 * np.eye(d))
    )
    certified = bound_bounded_contraction(cfg, box).value
    ok = certified < 0.9
    agree_worst = 0.0
    contraction_worst = 0.0
    distinct_min = math.inf
    for t in range(10):
        rng = stream(909, t)
        n = int(rng.integers(3, 8))
        x = PointCloud(rng.uniform(-0.5, 0.5, (n, d)))
        h0a = PointCloud(rng.uniform(-0.5, 0.5, (n, d)))
        h0b = PointCloud(rng.uniform(-0.5, 0.5, (n, d)))
        ra = deq_solve(cfg, x, h0a, tol=1e-12, max_iter=300)
        rb = deq_solve(cfg, x, h0b, tol=1e-12, max_iter=300)
        ok = ok and ra.converged and rb.converged
        agree_worst = max(agree_worst, cloud_distance(ra.h_star, rb.h_star))
        contraction_worst = max(
            contraction_worst, ra.contraction_estimate, rb.contraction_estimate
        )
        x2 = PointCloud(rng.uniform(-0.5, 0.5, (n, d)))
        rc = deq_solve(cfg, x2, h0a, tol=1e-12, max_iter=300)
        distinct_min = min(distinct_min, cloud_distance(ra.h_star, rc.h_star))
    ok = (
        ok
        and agree_worst <= 1e-8
        and contraction_worst <= certified + 0.05
        and distinct_min > 1e-6
    )
    verdict(
        9, "deep equilibrium", ok,
        f"certified {certified:.3f} (< 0.9), init agreement {agree_worst:.2e} "
        f"(tol 1e-8), contraction {contraction_worst:.3f} (cap "
        f"{certified + 0.05:.3f}), input sensitivity {distinct_min:.2e}",
    )


def test_criterion_10_invertibility():
    d = 2
    cfg = AttentionConfig(
        DotProduct(scale=0.05, dim=d), LinearLookup(0.8 * np.eye(d))
    )
    worst_rt = 0.0
    lip_max = 0.0
    ok = True
    for t in range(100):
        rng = stream(1010, t)
        n = int(rng.integers(2, 8))
        x = PointCloud(rng.uniform(-0.5, 0.5, (n, d)))
        lip = sampled_set_lipschitz(cfg, x, trials=12, seed=t)
        lip_max = max(lip_max, lip)
        y = PointCloud(x.points + self_attention(cfg, x).points)
        res = invert_residual(cfg, y, tol=1e-9, max_iter=2000, lip_check=False)
        ok = ok and res.converged
        worst_rt = max(worst_rt, cloud_distance(res.points, x))
    ok = ok and lip_max <= 0.9 and worst_rt <= 1e-7
    verdict(
        10, "residual invertibility", ok,
        f"100 clouds, sampled Lip <= {lip_max:.3f} (cap 0.9), "
        f"worst round trip {worst_rt:.2e} (tol 1e-7)",
    )
