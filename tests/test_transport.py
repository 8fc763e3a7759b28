"""Exact W1: solver examples, oracle agreement, certificates, metric axioms."""

import dataclasses
import gc
import hashlib
import importlib.machinery
import json
import logging
import math
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from flow_oracle import OracleTooLarge, _min_cost_flow, w1_oracle_lcm, w1_oracle_permutations
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment, linprog

from softmatch import transport
from softmatch.errors import DimMismatch, InvalidInput, SupportTooLarge
from softmatch.measures import EmpiricalMeasure, PointCloud, empirical
from softmatch.transport import (
    TransportPlan,
    _dyadic_ints,
    _dyadic_shift,
    _float_duals,
    _integer_masses,
    _assignment_basis,
    _line_basis,
    _masses_solve,
    _reduced_costs,
    _simplex,
    _smallest,
    _tie_signs,
    cost_matrix_l1,
    product_measure,
    w1,
    w1_product,
)


def random_measure(rng, n, d, uniform=False, span=2.0):
    pts = rng.uniform(-span, span, size=(n, d))
    if uniform:
        return empirical(PointCloud(pts))
    w = rng.random(n) + 0.02
    return EmpiricalMeasure(PointCloud(pts), w / w.sum())


def linprog_w1(mu, nu):
    """Independent LP oracle via scipy HiGHS."""
    c = cost_matrix_l1(mu.support.points, nu.support.points)
    n, m = c.shape
    a_eq = []
    for i in range(n):
        row = np.zeros((n, m))
        row[i, :] = 1.0
        a_eq.append(row.reshape(-1))
    for j in range(m):
        row = np.zeros((n, m))
        row[:, j] = 1.0
        a_eq.append(row.reshape(-1))
    res = linprog(
        c.reshape(-1),
        A_eq=np.array(a_eq)[:-1],
        b_eq=np.concatenate([mu.weights, nu.weights])[:-1],
        method="highs",
    )
    assert res.status == 0
    return float(res.fun)


def matrix_minimum_w1(mu, nu):
    """W1 from the matrix-minimum start on the weights' masses, whatever
    the input: the start `w1` takes for every pair but uniform equal-size
    ones, and the only way to reach it on those."""
    c = cost_matrix_l1(mu.support.points, nu.support.points)
    a, b, den = _integer_masses(mu, nu)
    shift = _dyadic_shift(c)
    basis = _masses_solve(c, a, b, shift, "flow")
    return float(Fraction(basis.total, den << shift))


class TestW1Examples:
    def test_dirac_pair_is_l1_distance(self):
        res = w1(empirical([[1.0, 2.0]]), empirical([[3.0, 5.0]]))
        assert res.value == 5.0

    def test_two_point_shift(self):
        res = w1(empirical([[0.0], [1.0]]), empirical([[0.5], [1.5]]))
        assert res.value == pytest.approx(0.5, abs=1e-12)

    def test_split_mass(self):
        mu = empirical([[0.0]])
        nu = EmpiricalMeasure(PointCloud([[-1.0], [1.0]]), [0.5, 0.5])
        res = w1(mu, nu)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(res.plan.gamma, [[0.5, 0.5]], atol=1e-12)

    def test_same_measure_is_zero(self):
        rng = np.random.default_rng(0)
        mu = random_measure(rng, 6, 3)
        assert w1(mu, mu).value == 0.0

    def test_errors(self):
        with pytest.raises(DimMismatch):
            w1(empirical([[0.0]]), empirical([[0.0, 1.0]]))
        big = empirical(np.zeros((513, 1)) + np.arange(513)[:, None])
        with pytest.raises(SupportTooLarge):
            w1(big, big)


class TestCostMatrix:
    @pytest.mark.parametrize("d", (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17))
    def test_bitwise_equal_to_the_broadcast_sum(self, d):
        # per-coordinate scales from 1e-6 to 1e6 make the order of the
        # additions show in the last bits
        rng = np.random.default_rng(d)
        for n, m in ((1, 1), (1, 7), (9, 1), (13, 11), (40, 33)):
            scale = 10.0 ** rng.uniform(-6, 6, d)
            x = rng.uniform(-1, 1, (n, d)) * scale
            y = rng.uniform(-1, 1, (m, d)) * scale
            want = np.abs(x[:, None, :] - y[None, :, :]).sum(axis=2)
            c = cost_matrix_l1(x, y)
            assert c.shape == (n, m) and c.dtype == np.float64
            assert c.tobytes() == want.tobytes()

    def test_zero_dim_clouds(self):
        x, y = PointCloud(np.zeros((3, 0))), PointCloud(np.zeros((2, 0)))
        assert cost_matrix_l1(x.points, y.points).tobytes() == np.zeros((3, 2)).tobytes()
        for other in (y, x):
            assert w1(empirical(x), empirical(other)).value == 0.0

    @pytest.mark.parametrize("kind", ("generic", "near", "grid", "contracted", "shrunk"))
    def test_bitwise_equal_on_ties_and_contracted_pairs(self, kind):
        # quarter-grid points tie exactly, and contracted clouds keep the
        # decisive differences in the last bits of nearly equal costs
        rng = np.random.default_rng(60 + len(kind))
        for d in range(1, 7):
            for n in (1, 5, 24, 61):
                x, y = _start_instance(kind, rng, n, d)
                y = y[: max(1, n - d)]
                want = np.abs(x[:, None, :] - y[None, :, :]).sum(axis=2)
                assert cost_matrix_l1(x, y).tobytes() == want.tobytes()

    def test_one_reused_buffer_below_d_8(self):
        # the cost matrix and one reused buffer: 16 bytes per arc (24 with
        # a fresh difference and |.| per coordinate)
        rng = np.random.default_rng(3)
        x, y = rng.uniform(-1, 1, (256, 4)), rng.uniform(-1, 1, (256, 4))
        tracemalloc.start()
        try:
            cost_matrix_l1(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 256 * 256

    def test_non_finite_costs_raise(self):
        with np.errstate(over="ignore"), pytest.raises(InvalidInput):
            cost_matrix_l1(np.array([[1e308, 0.0]]), np.array([[-1e308, 0.0]]))

    @pytest.mark.parametrize("big", (1e308, 1.7e308))
    @pytest.mark.parametrize("weighted", (False, True))
    def test_line_path_refuses_overflowing_costs(self, big, weighted):
        # the line path builds no cost matrix: a range check refuses the
        # pairs that cost_matrix_l1 would. W1 of the two-point pair is
        # finite although |x_0 - y_0| overflows; the one-point pair's W1
        # overflows, where the exact value's int division would raise
        # OverflowError
        x, y = np.array([[big], [0.0]]), np.array([[-big], [1.0]])
        w = [0.25, 0.75] if weighted else [0.5, 0.5]
        with pytest.raises(InvalidInput, match="non-finite transport costs"):
            w1(EmpiricalMeasure(PointCloud(x), w), EmpiricalMeasure(PointCloud(y), w))
        with pytest.raises(InvalidInput, match="non-finite transport costs"):
            w1(empirical(y[:1]), empirical(x[:1]))

    @pytest.mark.parametrize("weighted", (False, True))
    def test_costs_too_large_to_price_are_refused(self, weighted):
        # finite costs of 1e308, whose float reduced costs overflowed in
        # the simplex's pricing (and in the Bellman-Ford of the assignment
        # start) with numpy warnings
        x = np.array([[0.0, 1e308], [0.0, 0.0]])
        w = [0.25, 0.75] if weighted else [0.5, 0.5]
        mu = EmpiricalMeasure(PointCloud(x), w)
        with pytest.raises(InvalidInput, match="too large to price over 4 nodes"):
            w1(mu, mu)


class TestAssignmentPath:
    def test_identical_sets_any_order(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(6, 2))
        x = PointCloud(pts)
        y = PointCloud(pts[rng.permutation(6)])
        assert w1(empirical(x), empirical(y)).value == 0.0

    def test_two_point_example(self):
        x = PointCloud([[0.0], [10.0]])
        y = PointCloud([[1.0], [9.0]])
        assert w1(empirical(x), empirical(y)).value == pytest.approx(1.0, abs=1e-15)

    def test_matches_factorial_oracle_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            d = int(rng.integers(1, 4))
            x = PointCloud(rng.uniform(-3, 3, (n, d)))
            y = PointCloud(rng.uniform(-3, 3, (n, d)))
            got = w1(empirical(x), empirical(y)).value
            want = w1_oracle_permutations(x, y)
            assert got == pytest.approx(want, abs=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = PointCloud(rng.normal(size=(5, 2)))
            y = PointCloud(rng.normal(size=(5, 2)))
            mu, nu = empirical(x), empirical(y)
            assert w1(mu, nu).value == w1(nu, mu).value


class TestFlowAgainstOracles:
    def test_flow_equals_assignment_when_both_apply(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(1, 10))
            d = int(rng.integers(1, 4))
            mu = random_measure(rng, n, d, uniform=True)
            nu = random_measure(rng, n, d, uniform=True)
            a = matrix_minimum_w1(mu, nu)
            b = w1(mu, nu).value
            assert a == pytest.approx(b, abs=1e-9)

    def test_flow_equals_linprog_weighted(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            mu = random_measure(rng, int(rng.integers(1, 8)), 2)
            nu = random_measure(rng, int(rng.integers(1, 8)), 2)
            got = w1(mu, nu).value
            assert got == pytest.approx(linprog_w1(mu, nu), abs=1e-9)

    def test_lcm_oracle(self):
        mu = empirical([[0.0]])
        nu = empirical([[-1.0], [1.0]])
        assert w1_oracle_lcm(mu, nu) == pytest.approx(1.0, abs=1e-12)

        rng = np.random.default_rng(6)
        for _ in range(40):
            mu = random_measure(rng, 2, 2, uniform=True)
            nu = random_measure(rng, 3, 2, uniform=True)
            assert w1(mu, nu).value == pytest.approx(
                w1_oracle_lcm(mu, nu), abs=1e-9
            )

    def test_lcm_equals_assignment_when_equal(self):
        rng = np.random.default_rng(7)
        mu = random_measure(rng, 4, 2, uniform=True)
        nu = random_measure(rng, 4, 2, uniform=True)
        assert w1_oracle_lcm(mu, nu) == pytest.approx(w1(mu, nu).value, abs=1e-12)

    def test_lcm_limit(self):
        rng = np.random.default_rng(8)
        with pytest.raises(OracleTooLarge):
            w1_oracle_lcm(
                random_measure(rng, 5, 1, uniform=True),
                random_measure(rng, 7, 1, uniform=True),
            )
        with pytest.raises(InvalidInput):
            w1_oracle_lcm(
                EmpiricalMeasure(PointCloud([[0.0], [1.0]]), [0.3, 0.7]),
                random_measure(rng, 2, 1, uniform=True),
            )

    def test_permutation_oracle_limit(self):
        x = PointCloud(np.arange(9.0).reshape(-1, 1))
        with pytest.raises(OracleTooLarge):
            w1_oracle_permutations(x, x)


class TestCertificates:
    def test_flow_duals_feasible_and_tight(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            mu = random_measure(rng, int(rng.integers(1, 7)), 2)
            nu = random_measure(rng, int(rng.integers(1, 7)), 2)
            res = w1(mu, nu)
            cert = res.plan.certificate()
            assert cert["max_feasibility_violation"] <= 1e-9
            assert cert["max_support_slack"] <= 1e-9
            assert abs(cert["dual_objective"] - res.value) <= 1e-9 * (1 + res.value)
            assert res.dual_gap <= 1e-9 * (1.0 + res.value)

    def test_assignment_duals_from_plan(self):
        rng = np.random.default_rng(10)
        x = PointCloud(rng.normal(size=(6, 2)))
        y = PointCloud(rng.normal(size=(6, 2)))
        res = w1(empirical(x), empirical(y))
        u, v = res.plan.dual_potentials()
        c = cost_matrix_l1(x.points, y.points)
        assert float((u[:, None] + v[None, :] - c).max()) <= 1e-9
        support = res.plan.gamma > 0
        np.testing.assert_allclose(
            (u[:, None] + v[None, :])[support], c[support], atol=1e-9
        )

    @pytest.mark.parametrize(
        "x, y",
        (
            ([[1.7e308], [0.0]], [[0.0], [1.7e308], [1.0]]),
            ([[-1.7e308], [0.0], [1.0]], [[0.0], [-1.7e308]]),
        ),
    )
    def test_line_certificate_near_the_float_range_does_not_warn(self, x, y):
        # u + v - c overflows to -inf on some entries, which never sets the
        # largest violation; pyproject turns a RuntimeWarning into an error
        cert = w1(empirical(x), empirical(y)).plan.certificate()
        assert cert["max_feasibility_violation"] <= 0.0
        # tight to an ulp of the largest cost
        assert cert["max_support_slack"] <= np.spacing(1.7e308)

    def test_plan_invariants(self):
        rng = np.random.default_rng(11)
        mu = random_measure(rng, 5, 2)
        nu = random_measure(rng, 7, 2)
        plan = w1(mu, nu).plan
        np.testing.assert_allclose(plan.gamma.sum(axis=1), mu.weights, atol=1e-9)
        np.testing.assert_allclose(plan.gamma.sum(axis=0), nu.weights, atol=1e-9)
        c = cost_matrix_l1(mu.support.points, nu.support.points)
        assert abs(float((plan.gamma * c).sum()) - plan.cost) <= 1e-9


class TestMetricAxioms:
    @pytest.mark.parametrize("d", (1, 2))
    def test_uniform_unequal_sizes_permutation_invariant(self, d):
        # the weights 1/n and 1/m sum to 1 only within rounding; each side
        # is normalized by its exact sum, which no order changes
        rng = np.random.default_rng(26)
        for _ in range(60):
            n, m = (int(k) for k in rng.integers(2, 13, size=2))
            x, y = rng.uniform(-2, 2, (n, d)), rng.uniform(-2, 2, (m, d))
            want = w1(empirical(x), empirical(y)).value
            assert w1(empirical(x[rng.permutation(n)]), empirical(y)).value == want
            assert w1(empirical(x), empirical(y[rng.permutation(m)])).value == want

    def test_symmetry_exact_flow(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            mu = random_measure(rng, int(rng.integers(1, 7)), 2)
            nu = random_measure(rng, int(rng.integers(1, 7)), 2)
            assert w1(mu, nu).value == w1(nu, mu).value

    def test_triangle_inequality(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            mu = random_measure(rng, int(rng.integers(1, 6)), 2)
            nu = random_measure(rng, int(rng.integers(1, 6)), 2)
            rho = random_measure(rng, int(rng.integers(1, 6)), 2)
            ab = w1(mu, nu).value
            bc = w1(nu, rho).value
            ac = w1(mu, rho).value
            assert ac <= ab + bc + 1e-9

    def test_translation_invariance_exact_on_grid_data(self):
        # grid-aligned coordinates keep x + t exactly representable, so the
        # cost matrix and hence the optimum are unchanged bit for bit
        rng = np.random.default_rng(14)
        for _ in range(10):
            pts_a = rng.integers(-64, 64, size=(5, 2)) / 64.0
            pts_b = rng.integers(-64, 64, size=(4, 2)) / 64.0
            t = rng.integers(-8, 8, size=2).astype(float)
            mu, nu = empirical(PointCloud(pts_a)), empirical(PointCloud(pts_b))
            mu_t = empirical(PointCloud(pts_a + t))
            nu_t = empirical(PointCloud(pts_b + t))
            assert w1(mu, nu).value == w1(mu_t, nu_t).value

    def test_kantorovich_dual_spot_check(self):
        # random 1-Lipschitz cone maxima: |mu(f) - nu(f)| <= W1
        rng = np.random.default_rng(15)
        for _ in range(20):
            mu = random_measure(rng, 5, 2)
            nu = random_measure(rng, 6, 2)
            val = w1(mu, nu).value
            for _ in range(10):
                anchors = rng.uniform(-2, 2, size=(3, 2))
                offsets = rng.uniform(-1, 1, size=3)

                def f(pts):
                    return (
                        offsets[None, :] - np.abs(pts[:, None, :] - anchors).sum(axis=2)
                    ).max(axis=1)

                gap = abs(
                    float(mu.weights @ f(mu.support.points))
                    - float(nu.weights @ f(nu.support.points))
                )
                assert gap <= val + 1e-9


class TestProduct:
    def test_identical_second_factor(self):
        rng = np.random.default_rng(16)
        mu1 = random_measure(rng, 3, 1)
        nu1 = random_measure(rng, 4, 1)
        mu2 = random_measure(rng, 3, 2)
        w_prod, w_a, w_b = w1_product(mu1, nu1, mu2, mu2)
        assert w_b == 0.0
        assert w_prod == pytest.approx(w_a, abs=1e-9)

    def test_all_diracs_additive(self):
        w_prod, w_a, w_b = w1_product(
            empirical([[0.0]]), empirical([[2.0]]),
            empirical([[1.0, 1.0]]), empirical([[0.0, 3.0]]),
        )
        assert w_a == 2.0 and w_b == 3.0
        assert w_prod == pytest.approx(5.0, abs=1e-12)

    def test_random_subadditive(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            args = [random_measure(rng, int(rng.integers(1, 3)), 2) for _ in range(4)]
            w_prod, w_a, w_b = w1_product(args[0], args[1], args[2], args[3])
            assert w_prod <= w_a + w_b + 1e-9

    def test_support_guard(self):
        rng = np.random.default_rng(18)
        with pytest.raises(SupportTooLarge):
            product_measure(
                random_measure(rng, 9, 1), random_measure(rng, 9, 1)
            )


# ---------------------------------------------------------------------------
# The network simplex against exact oracles
# ---------------------------------------------------------------------------

def exact_lp(mu, nu, unit):
    """The integer LP a solve works on: (c, cost rows, shift, a, b, den).

    unit=True is the assignment path's LP (unit masses, mass denominator
    n); otherwise the masses are the solver's, checked to be the weights
    normalized exactly, w_i / sum(w) in rationals."""
    c = cost_matrix_l1(mu.support.points, nu.support.points)
    n, m = c.shape
    ints, shift = _dyadic_ints(c)
    cost = [ints[i * m : (i + 1) * m] for i in range(n)]
    if unit:
        return c, cost, shift, [1] * n, [1] * m, n
    a, b, den = _integer_masses(mu, nu)
    assert [Fraction(k, den) for k in a] == normalized(mu)
    assert [Fraction(k, den) for k in b] == normalized(nu)
    return c, cost, shift, a, b, den


def oracle_total(cost, a, b):
    flow, _ = _min_cost_flow(cost, a, b)
    return sum(f * c for rf, rc in zip(flow, cost) for f, c in zip(rf, rc))


def assert_exact_basis(basis, cost, a, b, total):
    """Primal, dual and complementary slackness in exact integers."""
    rows, cols = [0] * len(a), [0] * len(b)
    for i, j, f in basis.arcs:
        assert f >= 0
        rows[i] += f
        cols[j] += f
        assert cost[i][j] == basis.u[i] + basis.v[j]
    assert rows == a and cols == b
    for i, row in enumerate(cost):
        for j, cij in enumerate(row):
            assert cij - basis.u[i] - basis.v[j] >= 0
    assert basis.total == total
    assert total == sum(map(int.__mul__, a, basis.u)) + sum(map(int.__mul__, b, basis.v))


def assert_strongly_feasible(arcs, n, m):
    """The arcs span all n + m nodes as a tree, and rooted at sink m - 1
    every zero-flow arc has its source as the child: the invariant that
    keeps degenerate pivots from cycling."""
    assert len(arcs) == n + m - 1
    adj = {}
    for i, j, f in arcs:
        adj.setdefault(i, []).append((n + j, f))
        adj.setdefault(n + j, []).append((i, f))
    parent, stack = {n + m - 1: None}, [n + m - 1]
    while stack:
        x = stack.pop()
        for y, f in adj.get(x, ()):
            if y not in parent:
                parent[y] = x
                stack.append(y)
                assert f > 0 or y < n
    assert len(parent) == n + m


def assert_float_duals_exactly_feasible(res, c):
    """u_i + v_j <= c_ij for the reported float duals, without rounding
    slack: all three are read as exact integers over one power of two."""
    u, v = res.plan.dual_potentials()
    n, m = c.shape
    ints, _ = _dyadic_ints(np.concatenate([c.reshape(-1), u, v]))
    ui, vi = ints[n * m : n * m + n], ints[n * m + n :]
    for i in range(n):
        for j in range(m):
            assert ints[i * m + j] - ui[i] - vi[j] >= 0


def _weights(rng, n, zeros=False):
    w = rng.random(n) + 0.02
    if zeros:
        w[rng.random(n) < 0.3] = 0.0
        w[int(rng.integers(n))] += 0.5
    return w / w.sum()


def _parity_instance(kind, rng):
    d = int(rng.choice([1, 2, 4]))
    n, m = (int(k) for k in rng.integers(1, 17, size=2))
    if kind == "weighted":
        zeros = bool(rng.integers(2))
        return (
            EmpiricalMeasure(PointCloud(rng.uniform(-2, 2, (n, d))), _weights(rng, n, zeros)),
            EmpiricalMeasure(PointCloud(rng.uniform(-2, 2, (m, d))), _weights(rng, m, zeros)),
        )
    if kind == "grid":
        # grid-aligned points: l1 costs tie exactly, many optimal plans
        if rng.integers(2):
            m = n
        return (
            empirical(rng.integers(-4, 5, (n, d)) / 4.0),
            empirical(rng.integers(-4, 5, (m, d)) / 4.0),
        )
    if kind == "product":
        # degenerate products: repeated coordinates, dyadic weights
        def factor(k):
            w = rng.integers(1, 4, k).astype(float)
            return EmpiricalMeasure(PointCloud(rng.integers(-2, 3, (k, 1)) / 2.0), w / w.sum())

        a, b = (int(k) for k in rng.integers(1, 5, size=2))
        return product_measure(factor(a), factor(b)), product_measure(factor(b), factor(a))
    if kind == "near":
        # near-identical clouds: half the points moved by ~1e-3
        x = rng.uniform(-1, 1, (n, d))
        y = x + rng.normal(0, 1e-3, x.shape) * (rng.random((n, 1)) < 0.5)
        if rng.integers(2):
            return empirical(x), empirical(y)
        w = _weights(rng, n)
        return EmpiricalMeasure(PointCloud(x), w), EmpiricalMeasure(PointCloud(y), w)
    # d = 1: nested intervals, exact real ties broken by rounding
    if rng.integers(2):
        m = n
    return empirical(rng.uniform(-1, 1, (n, 1))), empirical(rng.uniform(-1, 1, (m, 1)))


class TestEngineParity:
    """The network simplex against the successive-shortest-path solver it
    replaced: 2,100 seeded instances, values bit for bit, and the primal,
    dual and complementary slackness checked in exact integers."""

    @pytest.mark.parametrize("kind", ("weighted", "grid", "product", "near", "d1"))
    def test_values_bitwise_and_certificates_exact(self, kind):
        rng = np.random.default_rng(["weighted", "grid", "product", "near", "d1"].index(kind))
        for _ in range(420):
            mu, nu = _parity_instance(kind, rng)
            unit = mu.n == nu.n and bool(
                np.all(mu.weights == mu.weights[0]) and np.all(nu.weights == nu.weights[0])
            )
            res = w1(mu, nu)
            c, cost, shift, a, b, den = exact_lp(mu, nu, unit)
            total = oracle_total(cost, a, b)
            assert res.value == float(Fraction(total, den << shift))
            assert_float_duals_exactly_feasible(res, c)
            if unit:
                # the assignment path's start: many zero-flow tree arcs
                _, cols = linear_sum_assignment(c)
                basis = _simplex(c, _assignment_basis(c, cols.tolist()), shift, "assignment")
                assert_exact_basis(basis, cost, a, b, total)
                assert_strongly_feasible(basis.arcs, mu.n, nu.n)
            # the flow path on the weights' masses
            c, cost, shift, a, b, den = exact_lp(mu, nu, False)
            total = oracle_total(cost, a, b)
            basis = _masses_solve(c, a, b, shift, "flow")
            assert_exact_basis(basis, cost, a, b, total)
            if min(a) and min(b):
                # zero-mass points sit out of the simplex
                assert_strongly_feasible(basis.arcs, mu.n, nu.n)

    def test_wide_binades_exact_without_float_scaling(self):
        # coordinates down to 1e-307 next to ones near 1 push the shift past
        # 1000 bits, where c_ij * 2**shift overflows a float: the simplex
        # then reads its exact costs through frexp and rounds potentials by
        # integer division, and stays exact
        rng = np.random.default_rng(8)
        unscaled = 0
        for _ in range(30):
            n, m = (int(k) for k in rng.integers(2, 9, 2))

            def coords(k):
                z = rng.uniform(0, 1, (k, 2))
                tiny = rng.random((k, 2)) < 0.8
                z[tiny] *= 10.0 ** -rng.integers(280, 308, tiny.sum())
                return z

            mu, nu = EmpiricalMeasure(PointCloud(coords(n)), _weights(rng, n)), empirical(coords(m))
            res = w1(mu, nu)
            c, cost, shift, a, b, den = exact_lp(mu, nu, False)
            unscaled += math.frexp(c.max())[1] + shift + (n + m).bit_length() > 1023
            total = oracle_total(cost, a, b)
            assert res.value == float(Fraction(total, den << shift))
            assert_float_duals_exactly_feasible(res, c)
            assert_exact_basis(_masses_solve(c, a, b, shift, "flow"), cost, a, b, total)
        assert unscaled >= 15

    def test_repairs_a_suboptimal_hungarian_matching(self):
        # three steps of a contractive attention layer on a 1-d cloud; on
        # the last pair scipy's float Hungarian matching is exactly
        # suboptimal (by about 4e-18) for the rounded costs, and its value
        # would be 1 ulp high. w1 takes the line path at d = 1, so the
        # simplex is started from that matching's tree directly
        from softmatch.dynamics import run_particles
        from softmatch.kernels import AttentionConfig, LinearLookup
        from softmatch.potentials import Gaussian

        layer = AttentionConfig(Gaussian(1), LinearLookup(0.5 * np.eye(1)))
        x0 = PointCloud(np.random.default_rng(0).uniform(-1, 1, (64, 1)))
        states = run_particles(layer, x0, steps=3).states
        mu, nu = empirical(states[2]), empirical(states[3])
        c, cost, shift, a, b, den = exact_lp(mu, nu, True)
        total = oracle_total(cost, a, b)
        rows, cols = linear_sum_assignment(c)
        assert sum(cost[i][j] for i, j in zip(rows, cols)) > total
        basis = _simplex(c, _assignment_basis(c, cols.tolist()), shift, "assignment")
        assert float(Fraction(basis.total, den << shift)) == float(Fraction(total, den << shift))
        assert sum(f > 0 for _, _, f in basis.arcs) == mu.n
        assert w1(mu, nu).value == float(line_oracle(mu, nu))


def _start_instance(kind, rng, n, d):
    """Point sets of one size: generic, near-identical (1e-9 jitter),
    quarter-grid ties, clouds contracted to 1e-3 around 0.5, or generic
    sources with targets contracted toward their mean by 1e-1 to 1e-6."""
    if kind == "generic":
        return rng.uniform(-1, 1, (n, d)), rng.uniform(-1, 1, (n, d))
    if kind == "near":
        x = rng.uniform(-1, 1, (n, d))
        return x, x + rng.uniform(-1e-9, 1e-9, x.shape)
    if kind == "grid":
        return rng.integers(-4, 5, (n, d)) / 4.0, rng.integers(-4, 5, (n, d)) / 4.0
    if kind == "shrunk":
        y = rng.uniform(-1, 1, (n, d))
        mean = y.mean(axis=0)
        return rng.uniform(-1, 1, (n, d)), mean + 10.0 ** -int(rng.integers(1, 7)) * (y - mean)
    return 0.5 + rng.uniform(-1e-3, 1e-3, (n, d)), 0.5 + rng.uniform(-1e-3, 1e-3, (n, d))


START_KINDS = ("generic", "near", "grid", "contracted", "shrunk")


def _row_major_tree(c, cols):
    """`_assignment_basis` relaxed row-major on a = c[:, cols], with fresh
    arrays each round: the plain layout whose trees the buffered one must
    reproduce exactly."""
    n = len(cols)
    root = n - 1
    r0 = cols.index(root)
    a = c[:, cols]
    base = a.diagonal()
    unit = n * math.ldexp(1.0, -51)
    c_max = float(a.max(initial=0.0))
    d = a[:, r0] - base[r0]
    d[r0] = 0.0
    pred = np.full(n, r0)
    rows = np.arange(n)
    active = rows[rows != r0]
    span = float(np.abs(d).max())
    for _ in range(n - 1):
        via = a[:, active] + (d[active] - base[active])
        arg = via.argmin(axis=1)
        best = via[rows, arg]
        better = best < d - unit * (2.0 * c_max + span)
        better[r0] = False
        improved = np.flatnonzero(better)
        if not improved.size:
            break
        pred[improved] = active[arg[improved]]
        d[improved] = best[improved]
        span = max(span, float(np.abs(d[improved]).max()))
        active = improved
    hop = pred.copy()
    for _ in range(n.bit_length()):
        hop = hop[hop]
    sink = np.where(hop == r0, np.asarray(cols)[pred], root).tolist()
    return [(i, j, 1) for i, j in enumerate(cols)] + [
        (k, sink[k], 0) for k in range(n) if k != r0
    ]
START_SIZES = (1, 2, 3, 5, 8, 13, 24, 48, 96)


class TestAssignmentStart:
    """The shortest-path-tree start: a strongly feasible spanning tree
    rooted at sink n - 1 from any matching, hung along the cost matrix or
    along its reduced matrix, and the simplex from it reaches the
    successive-shortest-path optimum exactly."""

    @pytest.mark.parametrize("kind", START_KINDS)
    def test_tree_and_exact_optimum(self, kind):
        rng = np.random.default_rng(40 + START_KINDS.index(kind))
        for d in (2, 3, 4):
            for n in START_SIZES:
                x, y = _start_instance(kind, rng, n, d)
                mu, nu = empirical(x), empirical(y)
                c, cost, shift, a, b, den = exact_lp(mu, nu, True)
                total = oracle_total(cost, a, b)
                # on c and on the reduced matrix w1 uses: the Hungarian
                # matching, and a random one that is suboptimal whenever
                # the optimum is not degenerate
                for guide in (c, _reduced_costs(c)):
                    for cols in (linear_sum_assignment(guide)[1].tolist(), rng.permutation(n).tolist()):
                        arcs = _assignment_basis(guide, cols)
                        assert sorted((i, j) for i, j, f in arcs if f) == list(enumerate(cols))
                        assert all(f in (0, 1) for _, _, f in arcs)
                        assert_strongly_feasible(arcs, n, n)
                        basis = _simplex(c, arcs, shift, "assignment")
                        assert_exact_basis(basis, cost, a, b, total)
                        assert_strongly_feasible(basis.arcs, n, n)

    @pytest.mark.parametrize("kind", START_KINDS)
    def test_same_tree_as_the_row_major_relaxation(self, kind):
        rng = np.random.default_rng(70 + START_KINDS.index(kind))
        for d in (2, 3, 4):
            for n in START_SIZES:
                c = cost_matrix_l1(*_start_instance(kind, rng, n, d))
                for guide in (c, _reduced_costs(c)):
                    for cols in (linear_sum_assignment(guide)[1].tolist(), rng.permutation(n).tolist()):
                        assert _assignment_basis(guide, cols) == _row_major_tree(guide, cols)

    def test_peak_memory_per_arc(self):
        # the transposed copy, the relaxation buffer, and the byte per arc
        # of each of the two bool passes that find the first minimal row:
        # 18.2 bytes per arc (24.1 with argmin's copy along axis 0)
        n = 256
        rng = np.random.default_rng(5)
        r = _reduced_costs(cost_matrix_l1(rng.uniform(-1, 1, (n, 4)), rng.uniform(-1, 1, (n, 4))))
        cols = linear_sum_assignment(r)[1].tolist()
        tracemalloc.start()
        try:
            _assignment_basis(r, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * n * n

    def test_negative_cycles_hang_from_the_root(self):
        # matching i -> i with every row cheaper under the next row's sink:
        # the predecessors close a negative cycle, so those rows hang from
        # the root sink and the simplex repairs the matching
        n = 6
        c = np.full((n, n), 4.0)
        np.fill_diagonal(c, 2.0)
        c[np.arange(n), (np.arange(n) + 1) % n] = 1.0
        arcs = _assignment_basis(c, list(range(n)))
        assert_strongly_feasible(arcs, n, n)
        assert [j for i, j, f in arcs if not f] == [n - 1] * (n - 1)
        ints, shift = _dyadic_ints(c)
        cost = [ints[i * n : (i + 1) * n] for i in range(n)]
        basis = _simplex(c, arcs, shift, "assignment")
        assert_exact_basis(basis, cost, [1] * n, [1] * n, oracle_total(cost, [1] * n, [1] * n))

    @pytest.mark.parametrize("n, d, seed", ((128, 2, 0), (256, 4, 1)))
    def test_generic_assignments_certify_without_pivots(self, caplog, n, d, seed):
        # the Hungarian matching is optimal, and hung along its
        # shortest-path tree its potentials are dual feasible: the simplex
        # certifies it with no pivot. Hung from the root sink instead, these
        # two took 257 and 658 pivots, all degenerate
        rng = np.random.default_rng(seed)
        mu = empirical(rng.uniform(-1, 1, (n, d)))
        nu = empirical(rng.uniform(-1, 1, (n, d)))
        with caplog.at_level(logging.DEBUG, logger="softmatch"):
            w1(mu, nu)
        events = [r.args for r in caplog.records if r.name == "softmatch"]
        assert [e[:4] for e in events] == [("assignment", n, n, 0)]

    def test_contracted_trajectory_needs_no_repair(self, caplog):
        # a contractive layer shrinks the cloud, so every row of c is
        # nearly constant. On c itself scipy's matching is exactly
        # suboptimal on every step of this trajectory, and the simplex
        # needs 9/18/28 non-degenerate pivots to repair it; on the reduced
        # matrix it is optimal, and any pivot left is degenerate
        from softmatch.dynamics import run_particles
        from softmatch.kernels import AttentionConfig, LinearLookup
        from softmatch.potentials import Gaussian

        layer = AttentionConfig(Gaussian(4), LinearLookup(0.5 * np.eye(4)))
        x0 = PointCloud(np.random.default_rng(0).uniform(-1, 1, (96, 4)))
        with caplog.at_level(logging.DEBUG, logger="softmatch"):
            states = run_particles(layer, x0, steps=3).states
        events = [r.args for r in caplog.records if r.name == "softmatch"]
        assert [e[:3] for e in events] == [("assignment", 96, 96)] * 3
        assert all(e[3] == e[4] for e in events)
        for h in range(3):
            mu, nu = empirical(states[h]), empirical(states[h + 1])
            c, cost, shift, a, b, den = exact_lp(mu, nu, True)
            cols = linear_sum_assignment(_reduced_costs(c))[1]
            # the optimum from the matrix-minimum start, a start the
            # reduced matrix plays no part in
            optimum = _masses_solve(c, a, b, shift, "flow").total
            assert sum(cost[i][j] for i, j in enumerate(cols)) == optimum


KERNEL = "scipy.optimize._lsap"

# run in a fresh `python -I` child: loads scipy's matching kernel through
# the loader, matches every reduced matrix of the corpus file with it, and
# only then imports scipy.optimize; prints one JSON line
LOADER_CHILD = """
import json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from softmatch import transport
lsa = transport._linear_sum_assignment()
kernel = sys.modules["scipy.optimize._lsap"]
alone = sorted(m for m in sys.modules if m.startswith("scipy"))
with np.load(sys.argv[2]) as corpus:
    cols = {k: lsa(corpus[k])[1].tolist() for k in corpus.files}
import scipy.optimize
print(json.dumps({
    "alone": alone,
    "cols": cols,
    "same_function": scipy.optimize.linear_sum_assignment is lsa,
    "same_module": sys.modules["scipy.optimize._lsap"] is kernel,
    "cached": transport._linear_sum_assignment() is lsa,
}))
"""


def _lsap_corpus(rng):
    """Reduced cost matrices, as `_assignment_start` matches them, of uniform
    pairs of 2 to 256 points at d = 2 and 4: generic clouds, draws from a
    pool of a few duplicate points, quarter-grid ties and clouds contracted
    to 1e-3 around 0.5."""
    for kind in ("generic", "pool", "grid", "contracted"):
        for d in (2, 4):
            for n in (2, 3, 5, 8, 16, 32, 64, 128, 256):
                if kind == "pool":
                    pool = rng.integers(-2, 3, (4, d)) / 2.0
                    x, y = pool[rng.integers(0, 4, n)], pool[rng.integers(0, 4, n)]
                else:
                    x, y = _start_instance(kind, rng, n, d)
                yield f"{kind}-d{d}-n{n}", _reduced_costs(cost_matrix_l1(x, y))


@pytest.fixture
def fresh_loader():
    """The loader with its cache cleared before and after the test."""
    transport._linear_sum_assignment.cache_clear()
    yield transport._linear_sum_assignment
    transport._linear_sum_assignment.cache_clear()


class TestKernelLoader:
    """`_assignment_start` takes scipy's Hungarian matching from its compiled
    module alone: the very function `scipy.optimize` exports, loaded once."""

    def test_same_function_after_scipy_optimize(self, fresh_loader, monkeypatch):
        # this module imported scipy.optimize first: the loader reuses its
        # kernel and looks for no file
        def no_lookup(name, path=None, target=None):
            raise AssertionError(f"looked for {name}")

        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", no_lookup)
        assert fresh_loader() is linear_sum_assignment
        assert fresh_loader() is sys.modules[KERNEL].linear_sum_assignment

    def test_loaded_alone_matches_and_is_reused(self, tmp_path):
        corpus = dict(_lsap_corpus(np.random.default_rng(17)))
        np.savez(tmp_path / "corpus.npz", **corpus)
        src = str(Path(transport.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-I", "-c", LOADER_CHILD, src, str(tmp_path / "corpus.npz")],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        child = json.loads(proc.stdout.splitlines()[-1])
        # the kernel is the one scipy module loaded, and a later import of
        # scipy.optimize takes it as it is: one load, one function
        assert child["alone"] == [KERNEL]
        assert child["same_function"] and child["same_module"] and child["cached"]
        assert len(child["cols"]) == 72
        for key, r in corpus.items():
            assert child["cols"][key] == linear_sum_assignment(r)[1].tolist(), key

    def test_public_function_where_the_kernel_is_not_found(self, fresh_loader, monkeypatch):
        rng = np.random.default_rng(18)
        pairs = [
            (empirical(x), empirical(y))
            for kind in ("generic", "grid", "contracted")
            for x, y in (_start_instance(kind, rng, n, 3) for n in (2, 7, 24))
        ]
        values = [w1(mu, nu).value for mu, nu in pairs]
        looked_up = []
        find_spec = importlib.machinery.PathFinder.find_spec

        def no_kernel(name, path=None, target=None):
            if name == KERNEL:
                looked_up.append(name)
                return None
            return find_spec(name, path, target)

        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", no_kernel)
        monkeypatch.delitem(sys.modules, KERNEL)
        fresh_loader.cache_clear()
        assert fresh_loader() is linear_sum_assignment
        assert looked_up == [KERNEL]
        assert [w1(mu, nu).value for mu, nu in pairs] == values
        assert looked_up == [KERNEL]


def _exact_signs(c, u, v, shift):
    """sign(c_ij - u_i - v_j) over all arcs, in exact integers."""
    n, m = c.shape
    ints, _ = _dyadic_ints(c, shift)
    r = [ints[i * m + j] - u[i] - v[j] for i in range(n) for j in range(m)]
    return np.sign(np.array([(x > 0) - (x < 0) for x in r]))


def _tie_classes(c, u, v, shift):
    """_tie_signs on every arc."""
    n, m = c.shape
    i, j = np.divmod(np.arange(n * m), m)
    return _tie_signs(c.reshape(-1), i, j + n, list(u) + list(v), shift)


class TestTieSigns:
    """Double-double tie pricing: every arc it calls zero or positive is
    exactly zero or positive, checked in exact integers."""

    @pytest.mark.parametrize("kind", START_KINDS)
    def test_classes_are_exact(self, kind):
        rng = np.random.default_rng(50 + START_KINDS.index(kind))
        settled = 0
        for d in (2, 3, 4):
            for n in START_SIZES:
                x, y = _start_instance(kind, rng, n, d)
                for weighted in (False, True):
                    if weighted:
                        mu = EmpiricalMeasure(PointCloud(x), _weights(rng, n))
                        nu = EmpiricalMeasure(PointCloud(y), _weights(rng, n))
                    else:
                        mu, nu = empirical(x), empirical(y)
                    c, cost, shift, a, b, den = exact_lp(mu, nu, not weighted)
                    basis = _masses_solve(c, a, b, shift, "flow")
                    # the optimal potentials, and the same moved by a few
                    # grains, which makes exactly negative arcs
                    u = list(basis.u)
                    bumped = [p + int(k) for p, k in zip(u, rng.integers(-2, 3, n))]
                    for uu in (u, bumped):
                        exact = _exact_signs(c, uu, basis.v, shift)
                        zero, positive = _tie_classes(c, uu, basis.v, shift)
                        assert np.all(exact[zero] == 0)
                        assert np.all(exact[positive] > 0)
                        settled += int(zero.sum() + positive.sum())
        assert settled > 0

    def test_wide_binades_defer_to_exact_checks(self):
        # costs of 1e-300 next to costs near 1 need a shift past 1000 bits:
        # potentials near 1 plus or minus 1e-300 split with rounded rests,
        # err2 then exceeds the grain, and the exact zeros on those arcs
        # are left to the integer check
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [1 / 3, 0.1]])
        y = np.array([[1e-300, 0.0], [1.0, 3e-300], [0.25, 1.0], [0.5, 0.5 + 2.0**-30], [0.3, 1 / 7]])
        c, cost, shift, a, b, den = exact_lp(empirical(x), empirical(y), True)
        assert shift > 1000
        basis = _masses_solve(c, a, b, shift, "flow")
        exact = _exact_signs(c, basis.u, basis.v, shift)
        zero, positive = _tie_classes(c, basis.u, basis.v, shift)
        assert np.all(exact[zero] == 0) and np.all(exact[positive] > 0)
        tiny = c.reshape(-1) < 1e-200
        assert tiny.sum() == 2 and np.all(exact[tiny] == 0)
        assert not (zero | positive)[tiny].any()

    def test_wide_binades_classes_are_exact(self):
        # coordinates near 1 or down to 1e-307: the split rests round, and
        # the exact reduced costs, moved by a few grains, differ from the
        # double-double ones by far more than a grain
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 9))

            def coords():
                z = rng.uniform(0, 1, (n, 2))
                tiny = rng.random((n, 2)) < 0.6
                z[tiny] *= 10.0 ** -rng.integers(280, 308, tiny.sum())
                return z

            c, cost, shift, a, b, den = exact_lp(empirical(coords()), empirical(coords()), True)
            basis = _masses_solve(c, a, b, shift, "flow")
            for bump in (0, 2, 2):
                u = [p + int(k) for p, k in zip(basis.u, rng.integers(-bump, bump + 1, n))]
                exact = _exact_signs(c, u, basis.v, shift)
                zero, positive = _tie_classes(c, u, basis.v, shift)
                assert np.all(exact[zero] == 0)
                assert np.all(exact[positive] > 0)


# ---------------------------------------------------------------------------
# The line path against exact rational oracles
# ---------------------------------------------------------------------------

def normalized(mu):
    """The probability masses of mu, Fraction(w_i) / sum Fraction(w)."""
    q = [Fraction(x) for x in mu.weights.tolist()]
    total = sum(q)
    return [x / total for x in q]


def solver_masses(mu, nu):
    """The normalized masses of both measures as integers over their least
    common denominator, and that denominator: exact rationals alone, not
    the solver's own masses."""
    p, q = normalized(mu), normalized(nu)
    den = math.lcm(*(x.denominator for x in p + q))
    return [int(x * den) for x in p], [int(x * den) for x in q], den


def line_oracle(mu, nu):
    """int |F - G| in exact rationals over those masses: the W1 of the
    two measures on the line with the exact costs |x - y|."""
    a, b, den = solver_masses(mu, nu)
    events = sorted(
        [(Fraction(x), Fraction(k, den)) for x, k in zip(mu.support.points[:, 0].tolist(), a)]
        + [(Fraction(y), -Fraction(k, den)) for y, k in zip(nu.support.points[:, 0].tolist(), b)],
        key=lambda e: e[0],
    )
    total = excess = Fraction(0)
    at = events[0][0]
    for t, w in events:
        total += abs(excess) * (t - at)
        excess += w
        at = t
    return total


# positions on a grid (exact ties), anywhere in [-4, 4] (subnormals and
# signed zeros included) and across 72 binades, where |x - y| rounds
_positions = st.one_of(
    st.integers(-8, 8).map(lambda k: k / 4.0),
    st.floats(-4.0, 4.0),
    st.builds(
        lambda sign, e, k: sign * k * 2.0**e,
        st.sampled_from((-1.0, 1.0)), st.integers(-70, 2), st.sampled_from((1.0, 3.0)),
    ),
)


@st.composite
def line_inputs(draw):
    """Points and weights (None for uniform) of two measures on the line,
    drawn from one pool of positions, so points repeat within and across
    the supports; weights are small integers, zeros included."""
    pool = draw(st.lists(_positions, min_size=1, max_size=8))
    n = draw(st.integers(1, 10))
    m = n if draw(st.booleans()) else draw(st.integers(1, 10))

    def side(k):
        pts = np.array(draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k)))[:, None]
        if draw(st.booleans()):
            return pts, None
        w = np.array(draw(st.lists(st.integers(0, 4), min_size=k, max_size=k)), dtype=float)
        w[0] += not w.any()
        return pts, w / w.sum()

    return side(n), side(m)


def line_measure(pts, w, perm=slice(None)):
    """The measure on pts[perm] with weights w[perm]: jointly permuted
    constructions from one weight vector."""
    if w is None:
        return empirical(pts[perm])
    return EmpiricalMeasure(PointCloud(pts[perm]), w[perm])


class TestLinePath:
    """d = 1 merges the sorted supports: the value is the exact W1 with
    |x - y| costs, and the basis is checked in exact integers."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(line_inputs(), st.data())
    def test_value_duals_and_basis_exact(self, inputs, data):
        (xs, wx), (ys, wy) = inputs
        mu, nu = line_measure(xs, wx), line_measure(ys, wy)
        res = w1(mu, nu)
        want = line_oracle(mu, nu)
        assert res.value == float(want)
        c = cost_matrix_l1(mu.support.points, nu.support.points)
        assert_float_duals_exactly_feasible(res, c)
        assert np.count_nonzero(res.plan.gamma) <= mu.n + nu.n - 1

        a, b, den = solver_masses(mu, nu)
        basis = _line_basis(mu, nu, a, b)
        scale = 1 << basis.shift
        cost = []
        for x in mu.support.points[:, 0].tolist():
            row = [abs(Fraction(x) - Fraction(y)) * scale for y in nu.support.points[:, 0].tolist()]
            assert all(q.denominator == 1 for q in row)
            cost.append([int(q) for q in row])
        total = want * den * scale
        assert total.denominator == 1
        assert_exact_basis(basis, cost, a, b, int(total))

        assert w1(nu, mu).value == res.value
        p = data.draw(st.permutations(range(mu.n)))
        q = data.draw(st.permutations(range(nu.n)))
        assert w1(line_measure(xs, wx, p), nu).value == res.value
        assert w1(mu, line_measure(ys, wy, q)).value == res.value

    def test_float_duals_fit_costs_rounded_below_the_exact_ones(self):
        # |x - y| needs more than 53 bits here, and fl rounds it down below
        # what the exact duals of the line basis add up to
        mu = empirical([[-3 * 2.0**-55], [-3 * 2.0**-20]])
        nu = empirical([[1.0], [2.0**-5]])
        c = cost_matrix_l1(mu.support.points, nu.support.points)
        basis = _line_basis(mu, nu, [1, 1], [1, 1])
        u, v = _float_duals(basis.u, basis.v, basis.shift)
        assert (np.array([[Fraction(x) + Fraction(y) for y in v] for x in u]) > c).any()
        res = w1(mu, nu)
        assert_float_duals_exactly_feasible(res, c)
        assert res.value == float(line_oracle(mu, nu))
        assert res.plan.certificate()["max_support_slack"] <= 2.0**-52


def unequal_totals_pair(d):
    """0.7 d_0 + 0.3 d_1e8 against 0.4 d_0 + 0.3 d_0 + 0.3 d_1e8 on R^d:
    the float weights of the two sides sum to different totals."""
    zero, far = [0.0] * d, [1e8] + [0.0] * (d - 1)
    return (
        EmpiricalMeasure(PointCloud([zero, far]), [0.7, 0.3]),
        EmpiricalMeasure(PointCloud([zero, zero, far]), [0.4, 0.3, 0.3]),
    )


class TestExactNormalization:
    """W1 reads each side's weights divided by their exact sum, so the two
    sides carry equal mass and the dual gap is 0 wherever the points lie."""

    @pytest.mark.parametrize("d", (1, 2))
    def test_unequal_weight_totals_give_zero_gap(self, d):
        mu, nu = unequal_totals_pair(d)
        assert sum(map(Fraction, mu.weights.tolist())) != sum(map(Fraction, nu.weights.tolist()))
        for a, b in ((mu, nu), (nu, mu)):
            res = w1(a, b)
            assert res.dual_gap == 0.0
            # every point lies on the first axis, so l1 costs are |x - y|
            assert res.value == float(line_oracle(a, b))

    def test_wide_weighted_pairs_give_zero_gap(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            d = int(rng.choice([1, 2]))
            mu = EmpiricalMeasure(PointCloud(rng.uniform(-1e8, 1e8, (8, d))), _weights(rng, 8))
            nu = EmpiricalMeasure(PointCloud(rng.uniform(-1e8, 1e8, (8, d))), _weights(rng, 8))
            res = w1(mu, nu)
            assert res.dual_gap == 0.0
            if d == 1:
                assert res.value == float(line_oracle(mu, nu))
            else:
                _, cost, shift, a, b, den = exact_lp(mu, nu, False)
                assert res.value == float(Fraction(oracle_total(cost, a, b), den << shift))


class TestNetworkxOracle:
    def test_integer_optimum_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(19)
        for t in range(100):
            n, m = (int(k) for k in rng.integers(1, 25, size=2))
            d = int(rng.choice([1, 2, 4]))
            if t % 2:
                pts_a = rng.integers(-4, 5, (n, d)) / 4.0
                pts_b = rng.integers(-4, 5, (m, d)) / 4.0
            else:
                pts_a, pts_b = rng.uniform(-2, 2, (n, d)), rng.uniform(-2, 2, (m, d))
            mu = EmpiricalMeasure(PointCloud(pts_a), _weights(rng, n, zeros=t % 3 == 0))
            nu = EmpiricalMeasure(PointCloud(pts_b), _weights(rng, m))
            c, cost, shift, a, b, _ = exact_lp(mu, nu, False)
            g = nx.DiGraph()
            for i in range(n):
                g.add_node(("s", i), demand=-a[i])
            for j in range(m):
                g.add_node(("t", j), demand=b[j])
            for i in range(n):
                for j in range(m):
                    g.add_edge(("s", i), ("t", j), weight=cost[i][j])
            want, _ = nx.network_simplex(g)
            assert _masses_solve(c, a, b, shift, "flow").total == want

    @pytest.mark.parametrize("n, m", ((8, 9), (33, 34)))
    def test_costs_and_potentials_past_int64(self, n, m):
        # O(1) coordinates from a shared pool beside offsets of a few
        # 2^-70: costs range over 70 binades, so the scaled costs and the
        # potentials pass int64 and the solve takes the list fallbacks of
        # the casts, for a probe-sized pair as for one of more than 1024 arcs
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(29)
        pool = rng.uniform(-1, 1, 6)

        def support(k):
            return np.column_stack([pool[rng.integers(6, size=k)], rng.integers(-3, 4, k) * 2.0**-70])

        mu = EmpiricalMeasure(PointCloud(support(n)), _weights(rng, n))
        nu = EmpiricalMeasure(PointCloud(support(m)), _weights(rng, m))
        c, cost, shift, a, b, den = exact_lp(mu, nu, False)
        assert c.size > 1024 or (n, m) == (8, 9)
        assert float(c.max()) * 2.0**shift >= 2.0**63
        g = nx.DiGraph()
        for i in range(n):
            g.add_node(("s", i), demand=-a[i])
        for j in range(m):
            g.add_node(("t", j), demand=b[j])
            for i in range(n):
                g.add_edge(("s", i), ("t", j), weight=cost[i][j])
        want, _ = nx.network_simplex(g)
        basis = _masses_solve(c, a, b, shift, "flow")
        assert max(map(abs, basis.u + basis.v)) >= 2**63
        assert_exact_basis(basis, cost, a, b, want)
        assert w1(mu, nu).value == float(Fraction(want, den << shift))


class TestEngineCertificates:
    def test_assignment_duals_exactly_feasible(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            x = PointCloud(rng.normal(size=(n, 3)))
            y = PointCloud(rng.normal(size=(n, 3)))
            res = w1(empirical(x), empirical(y))
            assert_float_duals_exactly_feasible(res, cost_matrix_l1(x.points, y.points))
            assert res.plan.certificate()["max_feasibility_violation"] <= 0.0
            assert res.dual_gap == 0.0

    def test_caller_plan_duals_come_from_the_engine(self):
        rng = np.random.default_rng(21)
        mu = random_measure(rng, 7, 2)
        nu = random_measure(rng, 5, 2)
        solved = w1(mu, nu)
        plan = TransportPlan.from_gamma(solved.plan.gamma, mu, nu, solved.value)
        assert plan._duals is None
        u, v = plan.dual_potentials()
        want_u, want_v = solved.plan.dual_potentials()
        assert np.array_equal(u, want_u) and np.array_equal(v, want_v)
        cert = plan.certificate()
        assert cert["max_feasibility_violation"] <= 0.0
        assert cert["max_support_slack"] <= 1e-12
        assert cert["dual_objective"] == pytest.approx(solved.value, abs=1e-12)

    def test_suboptimal_caller_plan_shows_as_support_slack(self):
        # crossing costs 1 where matching in place costs 0: the two
        # crossing arcs carry a total slack of 2 under any optimal duals
        mu = empirical([[0.0], [1.0]])
        nu = empirical([[0.0], [1.0]])
        plan = TransportPlan.from_gamma(np.array([[0.0, 0.5], [0.5, 0.0]]), mu, nu, 1.0)
        cert = plan.certificate()
        assert cert["max_feasibility_violation"] <= 0.0
        assert cert["max_support_slack"] >= 1.0
        assert cert["dual_objective"] == 0.0 < cert["primal_objective"]

    def test_caller_plan_duals_share_w1s_size_limit(self):
        mu = empirical(np.arange(513.0)[:, None])
        plan = TransportPlan.from_gamma(np.eye(513) / 513, mu, mu, 0.0)
        with pytest.raises(SupportTooLarge):
            plan.dual_potentials()

    def test_zero_mass_points_get_feasible_duals(self):
        mu = EmpiricalMeasure(PointCloud([[0.0], [5.0], [1.0]]), [0.5, 0.0, 0.5])
        nu = EmpiricalMeasure(PointCloud([[0.0], [-3.0], [2.0]]), [0.5, 0.0, 0.5])
        res = w1(mu, nu)
        assert res.value == 0.5
        assert_float_duals_exactly_feasible(res, cost_matrix_l1(mu.support.points, nu.support.points))
        assert res.plan.certificate()["max_support_slack"] == 0.0


class TestSolverHandOff:
    """What a `w1` call builds and hands on: one cost matrix at d >= 2 and
    none at d = 1, no cost matrix to the plan, whose check reads its
    atoms alone, and the caller's measures to the plan."""

    @staticmethod
    def count_cost_matrices(monkeypatch):
        calls = []
        build = transport.cost_matrix_l1

        def counted(x, y):
            calls.append((len(x), len(y)))
            return build(x, y)

        monkeypatch.setattr(transport, "cost_matrix_l1", counted)
        return calls

    @staticmethod
    def pairs(rng, d):
        weighted = random_measure(rng, 6, d), random_measure(rng, 4, d)
        uniform = random_measure(rng, 5, d, uniform=True), random_measure(rng, 5, d, uniform=True)
        return weighted, uniform

    @pytest.mark.parametrize("d", (1, 2, 4))
    def test_w1_builds_the_cost_matrix_once_and_none_on_the_line(self, monkeypatch, d):
        calls = self.count_cost_matrices(monkeypatch)
        for mu, nu in self.pairs(np.random.default_rng(23 + d), d):
            calls.clear()
            w1(mu, nu)
            assert calls == ([] if d == 1 else [(mu.n, nu.n)])

    @pytest.mark.parametrize("d", (1, 2, 4))
    def test_plan_derives_its_duals_once_and_keeps_no_cost_matrix(self, monkeypatch, d):
        # the plan holds its atoms (rows, cols, mass: at most n + m - 1
        # entries each, no N x M array) and, until the first read, the
        # exact integer potentials of its basis (no c); at d = 1 that read
        # builds c for the float duals' fix-up, and the second read is
        # the cache
        calls = self.count_cost_matrices(monkeypatch)
        for mu, nu in self.pairs(np.random.default_rng(25 + d), d):
            calls.clear()
            plan = w1(mu, nu).plan
            built = [] if d == 1 else [(mu.n, nu.n)]
            assert calls == built
            arrays = [x for x in vars(plan).values() if isinstance(x, np.ndarray)]
            assert [id(a) for a in arrays] == [id(plan.rows), id(plan.cols), id(plan.mass)]
            assert all(a.shape == (plan.rows.size,) for a in arrays)
            assert plan.rows.size <= mu.n + nu.n - 1 < mu.n * nu.n
            assert plan.gamma is not plan.gamma
            assert plan._duals is None
            u, v, shift = plan._potentials
            assert (len(u), len(v)) == (mu.n, nu.n)
            assert all(type(x) is int for x in (*u, *v, shift))
            duals = plan.dual_potentials()
            assert calls == [(mu.n, nu.n)]
            assert plan.dual_potentials() is duals
            assert calls == [(mu.n, nu.n)]
            assert plan._potentials is None

    @pytest.mark.parametrize("d", (1, 2, 4))
    def test_certificate_builds_one_cost_matrix_per_call(self, monkeypatch, d):
        # at d = 1 the first call fits the float duals against the cost
        # matrix it builds for itself, not against a second one, and gives
        # the bits of a plan whose duals were read first
        calls = self.count_cost_matrices(monkeypatch)
        for mu, nu in self.pairs(np.random.default_rng(26 + d), d):
            plan, twin = w1(mu, nu).plan, w1(mu, nu).plan
            twin.dual_potentials()
            for _ in range(2):
                calls.clear()
                cert = plan.certificate()
                assert calls == [(mu.n, nu.n)]
                assert cert == twin.certificate()
            calls.clear()
            u, v = plan.dual_potentials()
            assert calls == []
            assert u.tobytes() == twin.dual_potentials()[0].tobytes()
            assert v.tobytes() == twin.dual_potentials()[1].tobytes()

    @pytest.mark.parametrize("d", (1, 3))
    def test_caller_plan_checks_its_cost_on_its_atoms(self, monkeypatch, d):
        rng = np.random.default_rng(24)
        mu, nu = random_measure(rng, 4, d), random_measure(rng, 3, d)
        solved = w1(mu, nu)
        calls = self.count_cost_matrices(monkeypatch)
        plan = TransportPlan.from_gamma(solved.plan.gamma, mu, nu, solved.value)
        assert plan.gamma.tobytes() == solved.plan.gamma.tobytes()
        with pytest.raises(InvalidInput, match="plan cost"):
            TransportPlan.from_gamma(solved.plan.gamma, mu, nu, solved.value + 0.25)
        assert calls == []

    @pytest.mark.parametrize("d", (1, 2))
    def test_caller_plan_duals_come_from_the_solves_exact_potentials(self, monkeypatch, d):
        # a caller's plan takes its duals from the exact potentials of
        # w1(source, target), fitted at d = 1 against the one cost matrix
        # certificate() builds: the bits of the solver's own plan's duals
        rng = np.random.default_rng(27 + d)
        calls = self.count_cost_matrices(monkeypatch)
        for mu, nu in self.pairs(rng, d):
            solved = w1(mu, nu)
            want = solved.plan.dual_potentials()
            plan = TransportPlan.from_gamma(solved.plan.gamma, mu, nu, solved.value)
            calls.clear()
            plan.certificate()
            assert calls == [(mu.n, nu.n)] * (1 if d == 1 else 2)
            for a, b in zip(plan.dual_potentials(), want):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", ("grid", "near", "d1"))
    def test_uniform_w1_keeps_the_callers_measures(self, kind):
        # the unit instances of the engine-parity corpus; rebuilding the
        # measures from their supports, as run_particles does, changes
        # neither the value nor the plan
        rng = np.random.default_rng(["weighted", "grid", "product", "near", "d1"].index(kind))
        seen = 0
        for _ in range(420):
            mu, nu = _parity_instance(kind, rng)
            uniform = transport._is_uniform(mu.weights) and transport._is_uniform(nu.weights)
            if not (mu.n == nu.n and uniform):
                continue
            seen += 1
            res = w1(mu, nu)
            assert res.plan.source is mu and res.plan.target is nu
            want = w1(empirical(mu.support), empirical(nu.support))
            assert res.value == want.value
            assert np.array_equal(res.plan.gamma, want.plan.gamma)
        assert seen >= 100


def _dyadic_measure(rng, n, d, zeros=False):
    """Weights k / 64 for small integers k (the first and some others 0
    with `zeros`), so that the exact integer masses, and every atom's mass
    times their common denominator, stay small."""
    k = rng.integers(1, 8, n)
    if zeros:
        k[rng.random(n) < 0.3] = 0
        k[0] = 0
    k[-1] += 64 - k.sum()
    return EmpiricalMeasure(PointCloud(rng.uniform(-2, 2, (n, d))), k / 64.0)


class TestSparsePlan:
    """A plan keeps its coupling as atoms: a solver's as the at most
    n + m - 1 arcs of its basis, with no N x M array held."""

    PATHS = ("line", "flow", "assignment", "zero_mass_line", "zero_mass_flow")

    @staticmethod
    def path_pair(path, rng):
        if path == "assignment":
            return random_measure(rng, 9, 2, uniform=True), random_measure(rng, 9, 2, uniform=True)
        d = 1 if path.endswith("line") else 2
        zeros = path.startswith("zero_mass")
        return _dyadic_measure(rng, 7, d, zeros), _dyadic_measure(rng, 5, d, zeros)

    @pytest.mark.parametrize("path", PATHS)
    def test_basis_atoms_with_exact_integer_marginals(self, path):
        rng = np.random.default_rng(31 + self.PATHS.index(path))
        for _ in range(20):
            mu, nu = self.path_pair(path, rng)
            plan = w1(mu, nu).plan
            rows, cols = plan.rows.tolist(), plan.cols.tolist()
            assert len(rows) <= mu.n + nu.n - 1
            # each mass is an integer flow over the exact masses' common
            # denominator, correctly rounded, and the flows meet both
            # sides' integer masses exactly
            a, b, den = solver_masses(mu, nu)
            flows = [round(Fraction(x) * den) for x in plan.mass.tolist()]
            assert plan.mass.tolist() == [f / den for f in flows]
            assert min(flows) >= 0
            out, into = [0] * mu.n, [0] * nu.n
            for i, j, f in zip(rows, cols, flows):
                out[i] += f
                into[j] += f
            assert (out, into) == (a, b)
            dense = plan.gamma
            assert np.count_nonzero(dense) == np.count_nonzero(plan.mass)
            assert np.array_equal(dense[rows, cols], plan.mass)

    def test_certificate_reads_the_dense_support_bit_for_bit(self):
        rng = np.random.default_rng(36)
        for _ in range(40):
            d = int(rng.choice([1, 2, 4]))
            uniform = bool(rng.integers(2))
            n = int(rng.integers(1, 12))
            m = n if uniform else int(rng.integers(1, 12))
            mu, nu = random_measure(rng, n, d, uniform), random_measure(rng, m, d, uniform)
            plan = w1(mu, nu).plan
            u, v = plan.dual_potentials()
            c = cost_matrix_l1(mu.support.points, nu.support.points)
            diff = np.abs(u[:, None] + v[None, :] - c)[plan.gamma > 0]
            assert plan.certificate()["max_support_slack"] == float(diff.max())

    def test_caller_plans_convert_once_to_atoms(self):
        rng = np.random.default_rng(37)
        mu, nu = random_measure(rng, 6, 2), random_measure(rng, 4, 2)
        solved = w1(mu, nu).plan
        plan = TransportPlan.from_gamma(solved.gamma, mu, nu, solved.cost)
        keep = solved.mass > 0
        assert np.array_equal(plan.rows, solved.rows[keep][np.lexsort((solved.cols[keep], solved.rows[keep]))])
        assert np.array_equal(plan.gamma, solved.gamma)
        with pytest.raises(InvalidInput, match="shape"):
            TransportPlan.from_gamma(solved.gamma.T, mu, nu, solved.cost)

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda r, c, w: (r + 6, c, w), "outside"),
            (lambda r, c, w: (r, c - 5, w), "outside"),
            (lambda r, c, w: (r.astype(float), c, w), "integers"),
            (lambda r, c, w: (r[:-1], c, w), "one length"),
            (lambda r, c, w: (r[:, None], c[:, None], w[:, None]), "one length"),
            (lambda r, c, w: (r, c, np.where(w == w.max(), np.nan, w)), "NaN"),
            (lambda r, c, w: (r, c, w * 1.01), "marginal"),
        ],
    )
    def test_atoms_are_checked(self, change, message):
        rng = np.random.default_rng(38)
        mu, nu = random_measure(rng, 6, 2), random_measure(rng, 4, 2)
        solved = w1(mu, nu).plan
        rows, cols, mass = change(solved.rows, solved.cols, solved.mass)
        with pytest.raises(InvalidInput, match=message):
            TransportPlan(rows, cols, mass, mu, nu, solved.cost)

    def test_atoms_at_one_entry_add_up(self):
        rng = np.random.default_rng(40)
        mu, nu = random_measure(rng, 6, 2), random_measure(rng, 4, 2)
        solved = w1(mu, nu).plan
        half = solved.mass / 2
        plan = TransportPlan(
            np.r_[solved.rows, solved.rows], np.r_[solved.cols, solved.cols],
            np.r_[half, solved.mass - half], mu, nu, solved.cost,
        )
        assert np.array_equal(plan.gamma, solved.gamma)

    def test_held_result_is_small(self):
        # a uniform 256-point pair at d = 4: 511 atoms and the exact
        # potentials, about 40 KB; a dense plan alone held 512 KB
        rng = np.random.default_rng(39)
        mu = empirical(rng.uniform(-1, 1, (256, 4)))
        nu = empirical(rng.uniform(-1, 1, (256, 4)))
        w1(mu, nu)
        gc.collect()
        tracemalloc.start()
        try:
            res = w1(mu, nu)
            # empty the free lists, which keep some of the call's objects
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 64 * 1024
        assert res.plan.rows.size == 511

    @pytest.mark.parametrize("kind, bound", [("uniform", 36), ("weighted", 32.5)])
    def test_whole_call_peak_per_arc(self, kind, bound):
        # d = 4, not counting the inputs, from emptied free lists (measured:
        # 34.3 bytes per arc on the uniform 256-point pair, where the
        # Hungarian start's tree peaks, and 30.9 on the weighted 128 x 112
        # one, in the simplex; 40.2 and 33.8 with a dense plan, argmin's
        # copy and the start arcs kept through the simplex)
        rng = np.random.default_rng(5)
        if kind == "uniform":
            mu = empirical(rng.uniform(-1, 1, (256, 4)))
            nu = empirical(rng.uniform(-1, 1, (256, 4)))
        else:
            wx, wy = rng.random(128) + 0.05, rng.random(112) + 0.05
            mu = EmpiricalMeasure(PointCloud(rng.uniform(-1, 1, (128, 4))), wx / wx.sum())
            nu = EmpiricalMeasure(PointCloud(rng.uniform(-1, 1, (112, 4))), wy / wy.sum())
        w1(mu, nu)
        # objects on the free lists would serve part of the call untraced
        gc.collect()
        tracemalloc.start()
        try:
            w1(mu, nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * mu.n * nu.n


class TestLazyPlan:
    """A result holds its plan's atoms and exact potentials, and builds the
    float-checked `TransportPlan` at the first read of `plan` alone."""

    @staticmethod
    def count_post_inits(monkeypatch):
        calls = []
        check = TransportPlan.__post_init__

        def counted(self):
            calls.append(1)
            check(self)

        monkeypatch.setattr(TransportPlan, "__post_init__", counted)
        return calls

    def test_value_readers_build_no_plan(self, monkeypatch):
        from softmatch.dynamics import run_particles
        from softmatch.kernels import AttentionConfig, LinearLookup
        from softmatch.potentials import Gaussian
        from softmatch.probes import ProbeConfig, check_product_lemma, probe_contraction

        built = self.count_post_inits(monkeypatch)
        solves = []
        check = transport._check_basis
        monkeypatch.setattr(transport, "_check_basis", lambda *a: solves.append(1) or check(*a))
        layer = AttentionConfig(Gaussian(2), LinearLookup(0.5 * np.eye(2)))
        probe = ProbeConfig(seed=4, trials=6, d=2, n_range=(2, 8))
        probe_contraction(layer, probe, bound=None)
        x0 = PointCloud(np.random.default_rng(4).uniform(-1, 1, (12, 2)))
        run_particles(layer, x0, steps=3)
        check_product_lemma(5, seed=4)
        assert len(solves) >= 6 + 3 + 15
        assert built == []

    def test_plan_is_built_once_at_the_first_read(self, monkeypatch):
        rng = np.random.default_rng(41)
        res = w1(random_measure(rng, 6, 2), random_measure(rng, 4, 2))
        built = self.count_post_inits(monkeypatch)
        assert res.to_dict() == {"value": res.value, "dual_gap": 0.0}
        assert built == []
        plan = res.plan
        assert res.plan is plan
        assert built == [1]
        assert res.to_dict(include_plan=True)["plan"] == plan.to_dict()
        assert built == [1]

    @pytest.mark.parametrize("kind", ("weighted", "grid", "product", "near", "d1"))
    def test_lazy_plan_matches_an_eager_one(self, kind):
        # TestEngineParity's corpus; the eager plan is built from the
        # result's atoms before its own plan is read
        rng = np.random.default_rng(["weighted", "grid", "product", "near", "d1"].index(kind))
        for _ in range(420):
            mu, nu = _parity_instance(kind, rng)
            res = w1(mu, nu)
            eager = TransportPlan(
                res.rows, res.cols, res.mass, mu, nu, res.value, _potentials=res._potentials,
            )
            want = {"value": res.value, "dual_gap": res.dual_gap, "plan": eager.to_dict()}
            assert res.to_dict(include_plan=True) == want
            for a, b in zip(res.plan.dual_potentials(), eager.dual_potentials()):
                assert a.tobytes() == b.tobytes()

    def test_a_copy_with_another_value_builds_no_plan(self):
        # the benchmark's negative control copies a result with a spoiled
        # value; the copy constructs, and its plan's cost check refuses it
        rng = np.random.default_rng(42)
        for mu, nu in (
            (random_measure(rng, 6, 2), random_measure(rng, 4, 2)),
            (random_measure(rng, 5, 1), random_measure(rng, 7, 1)),
        ):
            res = w1(mu, nu)
            spoiled = dataclasses.replace(res, value=res.value * (1.0 + 1e-6) + 1e-6)
            assert spoiled.value > res.value
            with pytest.raises(InvalidInput, match="plan cost"):
                spoiled.plan
            assert res.plan.cost == res.value

    @pytest.mark.parametrize("change", ({"value": math.nan}, {"dual_gap": math.nan},
                                        {"value": -1.0}, {"dual_gap": 1.0}))
    def test_nan_or_out_of_range_value_and_gap_are_refused(self, change):
        rng = np.random.default_rng(43)
        res = w1(random_measure(rng, 6, 2), random_measure(rng, 4, 2))
        with pytest.raises(InvalidInput):
            dataclasses.replace(res, **change)


def _fault_pair(path, rng):
    """Pairs on each of TestSparsePlan.PATHS; every one but the
    assignment's has weights whose exact mass denominator is far above
    1e9, where one flow unit is below the plan's float tolerances."""
    if path == "assignment":
        return random_measure(rng, 9, 2, uniform=True), random_measure(rng, 9, 2, uniform=True)
    d = 1 if path.endswith("line") else 2

    def measure(n):
        w = rng.random(n) + 0.02
        if path.startswith("zero_mass"):
            w[::3] = 0.0
        return EmpiricalMeasure(PointCloud(rng.uniform(-2, 2, (n, d))), w / w.sum())

    return measure(7), measure(5)


def _move_one_unit(basis):
    arcs = list(basis.arcs)
    k = max(range(len(arcs)), key=lambda t: arcs[t][2])
    other = (k + 1) % len(arcs)
    arcs[k] = arcs[k][:2] + (arcs[k][2] - 1,)
    arcs[other] = arcs[other][:2] + (arcs[other][2] + 1,)
    return dataclasses.replace(basis, arcs=arcs)


def _negative_flow(basis):
    # (i, j, f) split into (i, j, f + 1) and (i, j, -1): the same masses
    # and cost
    i, j, f = basis.arcs[0]
    return dataclasses.replace(basis, arcs=[(i, j, f + 1), *basis.arcs[1:], (i, j, -1)])


def _total_off_by_one(basis):
    return dataclasses.replace(basis, total=basis.total + 1)


class TestExactBasisChecks:
    """Every solve checks its basis in exact integers before `w1` returns:
    a faulty basis raises RuntimeError even when only the value is read."""

    FAULTS = {
        "moved_unit": (_move_one_unit, "integer masses"),
        "negative_flow": (_negative_flow, "negative flow"),
        "total_off_by_one": (_total_off_by_one, "exact total"),
    }

    @staticmethod
    def spoil_solves(monkeypatch, path, spoil, which=lambda count: True):
        """Spoil the bases of the solves `which` picks by their count, in
        the order they run (the line basis, or the simplex); returns the
        spoiled bases."""
        seen, count = [], []
        if path.endswith("line"):
            solve = transport._line_basis

            def faulty(*args):
                basis = solve(*args)
                count.append(1)
                if which(len(count)):
                    basis = spoil(basis)
                    seen.append(basis)
                return basis

            monkeypatch.setattr(transport, "_line_basis", faulty)
        else:
            simplex = transport._simplex

            def faulty(*args):
                basis = simplex(*args)
                count.append(1)
                if which(len(count)):
                    basis = spoil(basis)
                    seen.append(basis)
                return basis

            monkeypatch.setattr(transport, "_simplex", faulty)
        return seen

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("path", TestSparsePlan.PATHS)
    def test_faulty_basis_raises(self, monkeypatch, path, fault):
        spoil, message = self.FAULTS[fault]
        seen = self.spoil_solves(monkeypatch, path, spoil)
        rng = np.random.default_rng(44 + TestSparsePlan.PATHS.index(path))
        for _ in range(5):
            mu, nu = _fault_pair(path, rng)
            seen.clear()
            with pytest.raises(RuntimeError, match=message):
                w1(mu, nu).value
            assert len(seen) == 1
            if path in ("assignment", "zero_mass_flow"):
                continue
            # the plan's float checks alone accept the faulty atoms, whose
            # masses are off by 1 / den or value by 2**-shift / den (the
            # zero-mass simplex's arcs index the positive-mass points only)
            den = _integer_masses(mu, nu)[2]
            assert den > 1e12
            i, j, f = zip(*seen[0].arcs)
            TransportPlan(
                np.array(i), np.array(j), np.array([x / den for x in f]), mu, nu,
                seen[0].total / (den << seen[0].shift),
            )


    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("path", TestSparsePlan.PATHS)
    def test_faulty_basis_inside_a_block_raises(self, monkeypatch, path, fault):
        # the second pair of six, enough for one padded cost pass, is
        # spoiled; the block checks each pair's basis, returns the first
        # pair's result and raises the second's error
        spoil, message = self.FAULTS[fault]
        seen = self.spoil_solves(monkeypatch, path, spoil, which=lambda count: count % 6 == 2)
        rng = np.random.default_rng(54 + TestSparsePlan.PATHS.index(path))
        pairs = [_fault_pair(path, rng) for _ in range(6)]
        results, error = transport._solve_block(pairs)
        assert len(seen) == 1
        assert isinstance(error, RuntimeError) and re.search(message, str(error))
        assert len(results) == 1 and results[0].source is pairs[0][0]
        with pytest.raises(RuntimeError, match=message):
            transport._w1_block(pairs)
        assert len(seen) == 2


def _block_events(solve):
    """solve() and the arguments of the DEBUG events it logs."""
    events = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = lambda record: events.append(record.args)
    logger = logging.getLogger("softmatch")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        out = solve()
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return out, events


def _result_bits(res):
    return res.value, res.dual_gap, res.to_dict(include_plan=True), res._potentials


_block_coords = st.one_of(
    st.integers(-8, 8).map(lambda k: k / 4.0),
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
    # across 80 binades: exact positions and cost dots pass 2**63
    st.builds(
        lambda sign, e: sign * 2.0**e, st.sampled_from((-1.0, 1.0)), st.integers(-70, 10)
    ),
)


def _heavy_weights(draw, k):
    """One weight near 1 and k - 1 of at most 3 * 2**-46, summing to 1
    within 1e-12: their exact masses have totals near 2**46 to 2**62, so
    a pair's mass denominator falls on both sides of 2**53."""
    e = draw(st.integers(46, 62))
    tiny = [draw(st.sampled_from((0, 1, 3))) * 2.0 ** -draw(st.integers(46, e)) for _ in range(k - 1)]
    return np.array([1.0 - 2.0**-e, *tiny])


@st.composite
def block_pairs(draw):
    """1-8 pairs of d = 1, 2 or 4, all of one d or each of its own, each
    side drawn from the pair's pool of points (so points repeat within
    and across the sides, on a quarter grid or anywhere), uniform or with
    small integer weights (zeros included) or dyadic ones whose mass
    denominator passes 2**53 (`_heavy_weights`), of equal or unequal
    sizes."""
    pairs = []
    dims = st.sampled_from((1, 2, 4))
    if draw(st.booleans()):
        dims = st.just(draw(dims))
    for _ in range(draw(st.integers(1, 8))):
        d = draw(dims)
        pool = draw(st.lists(st.lists(_block_coords, min_size=d, max_size=d), min_size=1, max_size=8))
        n = draw(st.integers(1, 9))
        m = n if draw(st.booleans()) else draw(st.integers(1, 9))

        def side(k):
            pts = np.array(draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k)))
            kind = draw(st.sampled_from(("uniform", "integer", "heavy")))
            if kind == "uniform":
                return empirical(pts)
            if kind == "heavy":
                return EmpiricalMeasure(PointCloud(pts), _heavy_weights(draw, k))
            w = np.array(draw(st.lists(st.integers(0, 4), min_size=k, max_size=k)), dtype=float)
            w[0] += not w.any()
            return EmpiricalMeasure(PointCloud(pts), w / w.sum())

        pairs.append((side(n), side(m)))
    return pairs


def _line_basis_lists(mu, nu, supply, demand):
    """`transport._line_basis` as it read its positions before they were
    cast: every coordinate through `_dyadic_ints`, the overflow check by
    numpy reductions."""
    n, m = mu.n, nu.n
    x, y = mu.support.points[:, 0], nu.support.points[:, 0]
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
    return transport._Basis(arcs, phi[:n], [-p for p in phi[n:]], total, shift, ("line", n, m, 0, 0, 0))


class TestLinePositions:
    """The line path reads its exact positions by one int64 cast where
    that is exact, bit for bit what the list form it replaced gives."""

    def test_line_positions_cast_bit_for_bit(self, monkeypatch):
        # the line path reads its positions by one int64 cast where that is
        # exact; against the list form it replaced (`_line_basis_lists`,
        # every position through frexp), a block gives the same values,
        # plan atoms, potentials, DEBUG events and errors, on both sides of
        # the cast's bound and of 2**53 and 2**63 for the mass denominators
        # and the exact cost dots
        seen = set()
        check = transport._check_basis
        solve = transport._line_basis

        def recording(arcs, flows, costs, total, supply, demand):
            seen.add(("dot past 2**63", total >= 2**63))
            seen.add(("den past 2**53", sum(supply) >= 2**53))
            return check(arcs, flows, costs, total, supply, demand)

        def line(mu, nu, supply, demand):
            pos, shift = _dyadic_ints(np.concatenate([mu.support.points[:, 0], nu.support.points[:, 0]]))
            top = max(map(abs, pos))
            seen.add(("cast", shift <= 1023 and top < 2**62))
            seen.add(("positions past 2**63", top >= 2**63))
            return solve(mu, nu, supply, demand)

        # positions 2**52 and +-2**63, just past the cast's 2**62 bound
        @example([(empirical(np.array([[0.5]])), empirical(np.array([[1024.0], [-1024.0]])))])
        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(block_pairs())
        def compare(pairs):
            with monkeypatch.context() as m:
                m.setattr(transport, "_check_basis", recording)
                m.setattr(transport, "_line_basis", line)
                (got, error), events = _block_events(lambda: transport._solve_block(pairs))
            with monkeypatch.context() as m:
                m.setattr(transport, "_line_basis", _line_basis_lists)
                (want, oracle_error), want_events = _block_events(lambda: transport._solve_block(pairs))
            assert [_result_bits(r) for r in got] == [_result_bits(r) for r in want]
            assert (type(error), str(error)) == (type(oracle_error), str(oracle_error))
            assert events == want_events

        compare()
        assert seen == {(key, side) for key, _ in seen for side in (True, False)}
        assert len(seen) == 8


class TestBlockSolve:
    """`_w1_block` solves a block of pairs together, each with the bits of
    `w1` on it alone: the pairs of one dim d >= 2 share one padded cost
    pass, and each simplex prices its own rounds."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(block_pairs())
    def test_equals_one_w1_per_pair(self, pairs):
        block, events = _block_events(lambda: transport._w1_block(pairs))
        alone, want = _block_events(lambda: [w1(mu, nu) for mu, nu in pairs])
        assert [_result_bits(r) for r in block] == [_result_bits(r) for r in alone]
        assert events == want
        assert all(r.source is mu and r.target is nu for r, (mu, nu) in zip(block, pairs))

    def test_pairs_share_padded_cost_passes(self, monkeypatch):
        # ten probe-sized weighted pairs at d = 2 in runs of two, three and
        # five, split by 160 x 256 pairs that each fill a pass alone and
        # build their own matrices: the runs of three and five take one
        # padded cost pass each, the run of two builds its matrices one by
        # one; each simplex prices as many rounds as it does alone
        rng = np.random.default_rng(61)
        pairs = [(random_measure(rng, 9, 2), random_measure(rng, 12, 2)) for _ in range(10)]
        for at in (2, 6):
            pairs.insert(at, (random_measure(rng, 160, 2), random_measure(rng, 256, 2)))
        rounds, built = [], []
        round_one, build = transport._round_one, transport.cost_matrix_l1
        monkeypatch.setattr(transport, "_round_one", lambda *a: rounds.append(1) or round_one(*a))
        monkeypatch.setattr(transport, "cost_matrix_l1", lambda x, y: built.append(len(x)) or build(x, y))
        alone = 0
        for mu, nu in pairs:
            w1(mu, nu)
            alone = len(rounds)
        built.clear()
        padded = transport._padded
        monkeypatch.setattr(transport, "_padded", lambda *a: built.append("padded") or padded(*a))
        transport._w1_block(pairs)
        assert built == [9, 9, 160] + ["padded"] * 2 + [160] + ["padded"] * 2
        assert len(rounds) == 2 * alone

    def test_the_first_failing_pairs_error_is_raised(self):
        rng = np.random.default_rng(62)
        good = [
            (random_measure(rng, 5, 2), random_measure(rng, 7, 2)),
            (random_measure(rng, 6, 2, uniform=True), random_measure(rng, 6, 2, uniform=True)),
            (random_measure(rng, 4, 1), random_measure(rng, 3, 1)),
        ]
        huge = np.array([[1e308, 1e308]])
        overflow = empirical(huge), empirical(-huge)
        line_overflow = empirical(huge[:, :1]), empirical(-huge[:, :1])
        unpriceable = (
            EmpiricalMeasure(PointCloud(np.array([[0.0, 1e308], [0.0, 0.0]])), [0.25, 0.75]),
        ) * 2
        dims = random_measure(rng, 3, 2), random_measure(rng, 3, 4)
        big = random_measure(rng, 513, 2), random_measure(rng, 2, 2)
        alone = random_measure(rng, 24, 2), random_measure(rng, 24, 2)
        cases = [
            # the line pass fails before the 576-cell pair's chunk is reached
            ([good[0], line_overflow, alone], 1, InvalidInput, "non-finite"),
            ([good[0], overflow, good[1], dims], 1, InvalidInput, "non-finite"),
            ([good[0], good[1], dims, overflow], 2, DimMismatch, "dims"),
            ([good[2], good[0], line_overflow, overflow, big], 2, InvalidInput, "non-finite"),
            ([good[0], unpriceable, good[1], overflow], 1, InvalidInput, "too large to price"),
            ([good[1], good[2], good[0], big, dims], 3, SupportTooLarge, "LP path"),
        ]
        for pairs, k, error, message in cases:
            results, raised = transport._solve_block(pairs)
            assert type(raised) is error and message in str(raised)
            assert [_result_bits(r) for r in results] == [_result_bits(w1(*p)) for p in pairs[:k]]
            with pytest.raises(error, match=message):
                transport._w1_block(pairs)
        assert transport._solve_block([]) == ([], None)


class TestSolveEvents:
    @staticmethod
    def events(caplog):
        return [r for r in caplog.records if r.name == "softmatch"]

    def test_one_debug_event_per_solve(self, caplog):
        # w1 picks the path from its input: the line one for every d = 1
        # pair, otherwise the Hungarian start only for uniform measures of
        # one size; a caller-built plan takes its duals from w1
        rng = np.random.default_rng(22)
        weighted = random_measure(rng, 6, 2), random_measure(rng, 4, 2)
        uniform = random_measure(rng, 5, 2, uniform=True), random_measure(rng, 5, 2, uniform=True)
        unequal = random_measure(rng, 5, 2, uniform=True), random_measure(rng, 3, 2, uniform=True)
        weighted_1d = random_measure(rng, 6, 1), random_measure(rng, 4, 1)
        uniform_1d = random_measure(rng, 5, 1, uniform=True), random_measure(rng, 5, 1, uniform=True)
        with caplog.at_level(logging.DEBUG, logger="softmatch"):
            w1(*weighted)
            w1(*uniform)
            w1(*unequal)
            w1(*weighted_1d)
            w1(*uniform_1d)
            TransportPlan.from_gamma(
                np.full((1, 1), 1.0), empirical([[0.0]]), empirical([[1.0]]), 1.0
            ).dual_potentials()
            TransportPlan.from_gamma(
                np.full((1, 1), 1.0), empirical([[0.0, 0.0]]), empirical([[1.0, 0.5]]), 1.5
            ).dual_potentials()
        events = self.events(caplog)
        assert [r.args[:3] for r in events] == [
            ("flow", 6, 4), ("assignment", 5, 5), ("flow", 5, 3), ("line", 6, 4),
            ("line", 5, 5), ("line", 1, 1), ("assignment", 1, 1),
        ]
        for r in events:
            assert r.levelno == logging.DEBUG
            assert r.msg.count("%") == len(r.args)
            pivots, degenerate, ties = r.args[3:]
            assert 0 <= degenerate <= pivots and ties >= 0

    def test_d1_never_reaches_the_simplex(self, caplog):
        # a 512-point weighted pair is the largest the simplex took seconds
        # on; one line event and nothing else
        rng = np.random.default_rng(27)
        mu, nu = random_measure(rng, 512, 1), random_measure(rng, 512, 1)
        with caplog.at_level(logging.DEBUG, logger="softmatch"):
            w1(mu, nu)
        assert [r.args[:3] for r in self.events(caplog)] == [("line", 512, 512)]


class TestSmallest:
    """The engine's one stable order: the k smallest values, ties in index
    order; past 512 entries partitioned first when k < size, and a SIMD
    sort with its runs of equal values put back in index order when not."""

    @settings(max_examples=150, deadline=None)
    @given(
        size=st.integers(1, 1500),
        k=st.integers(1, 1600),
        grid=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(size=1200, k=1, grid=True, seed=0)
    @example(size=1200, k=1, grid=False, seed=1)
    @example(size=700, k=699, grid=True, seed=2)
    @example(size=1200, k=1200, grid=True, seed=3)
    @example(size=1200, k=1600, grid=False, seed=4)
    def test_equals_stable_argsort_prefix(self, size, k, grid, seed):
        rng = np.random.default_rng(seed)
        if grid:
            # quarter-grid values, signed zeros included: heavy ties
            vals = rng.integers(-4, 5, size) / 4.0 * rng.choice((-1.0, 1.0), size)
        else:
            vals = -rng.exponential(size=size)
        assert np.array_equal(_smallest(vals, k), np.argsort(vals, kind="stable")[:k])

    @settings(max_examples=150, deadline=None)
    @given(
        size=st.integers(1, 2048),
        levels=st.integers(0, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(size=512, levels=0, seed=0)
    @example(size=513, levels=1, seed=1)
    @example(size=1056, levels=8, seed=2)
    @example(size=14336, levels=64, seed=3)
    @example(size=14336, levels=2**40, seed=4)
    def test_full_order_equals_stable_argsort(self, size, levels, seed):
        # k == size, the matrix-minimum start's cell order and a tie
        # round's: quarter steps of random sign, so heavy ties with -0.0
        # beside +0.0 (levels=0 makes every value a signed zero; 2**40
        # few ties)
        rng = np.random.default_rng(seed)
        vals = rng.integers(-levels, levels + 1, size) / 4.0 * rng.choice((-1.0, 1.0), size)
        assert np.array_equal(_smallest(vals, size), np.argsort(vals, kind="stable"))


PINNED_PAIRS = {
    # kind: (n, m, d, quarter grid)
    "80x96": (80, 96, 2, False),
    "128x112": (128, 112, 4, False),
    "grid96": (96, 96, 3, True),
    "32x32d2": (32, 32, 2, False),
    "32x32d4": (32, 32, 4, False),
    "32x33d2": (32, 33, 2, False),
    "32x33d4": (32, 33, 4, False),
    "grid40x36d2": (40, 36, 2, True),
    "grid40x36d4": (40, 36, 4, True),
}


def _pinned_pair(kind, seed):
    rng = np.random.default_rng([seed, list(PINNED_PAIRS).index(kind)])
    n, m, d, grid = PINNED_PAIRS[kind]

    def weighted(k):
        pts = rng.integers(-4, 5, (k, d)) / 4.0 if grid else rng.uniform(-1, 1, (k, d))
        w = rng.random(k) + 0.05
        return EmpiricalMeasure(PointCloud(pts), w / w.sum())

    return weighted(n), weighted(m)


class TestPinnedEnteringSequence:
    """The simplex enters the same arcs in the same order as the solver of
    commit 0e0985f, which stable-sorted every candidate and re-rounded the
    float potentials on each pivot: the DEBUG counts (pivots, degenerate,
    tie_checks) and a sha256 of the value, plan and float duals were
    recorded with that solver. Weighted flow pairs at the benchmark's
    sizes (80 x 96 at d = 2, 128 x 112 at d = 4), and 96-point pairs on a
    quarter grid at d = 3, whose reduced costs tie and go through tie
    rounds.

    Pairs at d = 2 and 4 of 32 x 32, and of 32 x 33 and 40 x 36 on a
    quarter grid, whose costs tie, were recorded with the solver of commit
    6f8dee9, which sorted every start with numpy's stable merge sort and
    had no int64 casts; their starts now take `_smallest`'s SIMD sort."""

    @pytest.mark.parametrize(
        "kind, seed, counts, digest",
        [
            ("80x96", 0, (129, 0, 65), "60d831b5eddb13843d52562dc2a67246fb45e4b6f7a5d93763d89373e90d672a"),
            ("128x112", 0, (328, 0, 1), "531976952ede2259dcc7373850f331927fca5f44d6b004296384e58f5691fbc3"),
            ("grid96", 0, (109, 0, 330), "6394c8cd5580327baaa0348edde4083962247ed9be068eba1443a8ad2f47e258"),
            ("80x96", 1, (196, 0, 76), "8fa8ca6a627f723b559bc7efbc2f6a5e54aeadb5cecc29bc3fa95cbe9893078d"),
            ("128x112", 1, (289, 0, 4), "69edbb39f645d48385700a2fd52114adc9c87d1e10d165c03a20b5152e9022bf"),
            ("grid96", 1, (104, 0, 365), "0bf12b688ef941ce01558bd48d8f807abd20410ccc2e5372b384c6b1033ecddd"),
            ("32x32d2", 0, (60, 0, 18), "e0a0fea87118ccf52124af67a34016ab70299080220d93b5f0f7b8a97315ca66"),
            ("32x32d2", 1, (59, 0, 31), "8eb1d56e8af235037bfb5f6cee03198d386f55ff428bf77ecf9b4dd8644f462a"),
            ("32x32d4", 0, (64, 0, 0), "6386b2c3db6322a858514a30737744fb7e1975b8e185cd1b29fa05be47340841"),
            ("32x32d4", 1, (38, 0, 1), "0267922c1d2834c69e4d28742d4648156ebd27997f4d2029ef10ec3b396a6c2b"),
            ("32x33d2", 0, (62, 0, 95), "d1a4cc79e7a7071522b55e3d9746e0d68871213bd8ec925081c7c39f01e9e3f7"),
            ("32x33d2", 1, (34, 0, 24), "2af582ee2b49c6383bd128c317954dd4e681ed6fc5546f640e7aa6e485382bb1"),
            ("32x33d4", 0, (60, 0, 0), "c03d2ab6b642e804ded18ddf1245ebd819087b23580283bbbc6f3ec6030f82ef"),
            ("32x33d4", 1, (57, 0, 1), "95d3332a250733a1e9a71b3c64f3c5c69e3288c824fe35f591fa3d2d34b9d03d"),
            ("grid40x36d2", 0, (19, 0, 197), "23e8dcf60428240ea9512b2e60a2fe97533643ad3adef6d3492bc7cf270df8b7"),
            ("grid40x36d2", 1, (34, 0, 215), "ec789e21215854db5c3188d608775f47a584f621e124ed15c0fd9aab2117a32c"),
            ("grid40x36d4", 0, (41, 0, 49), "b80b9787f171165830962a54b86ebe3384d2224116b1ffe8e45f71c55a1ae6ee"),
            ("grid40x36d4", 1, (31, 0, 61), "c3b4a3fa1686ffa493c2d65752a4791c6af7a87988972dfff1cef72617b3dd21"),
        ],
    )
    def test_counts_and_digest(self, caplog, kind, seed, counts, digest):
        mu, nu = _pinned_pair(kind, seed)
        with caplog.at_level(logging.DEBUG, logger="softmatch"):
            res = w1(mu, nu)
        [event] = [r.args for r in caplog.records if r.name == "softmatch"]
        assert event[:3] == ("flow", mu.n, nu.n)
        assert event[3:] == counts
        h = hashlib.sha256()
        for a in (np.float64(res.value), res.plan.gamma, *res.plan.dual_potentials()):
            h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest() == digest


SMALL_KINDS = ("uniform_equal", "uniform_unequal", "weighted", "drop", "duplicate")


def _small_pair(kind, d, rng):
    """A probe-sized pair of 2-16 points on [-1, 1]^d.

    uniform_equal: uniform weights, one size (the assignment path at
    d >= 2); uniform_unequal: uniform weights, two sizes; weighted: random
    weights; drop: random weights with some points of zero mass;
    duplicate: both supports drawn from one small pool of points, so
    points repeat within and across the sides, with uniform or random
    weights.
    """
    n = int(rng.integers(2, 17))
    if kind == "uniform_equal":
        m = n
    elif kind == "uniform_unequal":
        m = 2 + (n - 2 + int(rng.integers(1, 15))) % 15
    else:
        m = int(rng.integers(2, 17))
    if kind == "duplicate":
        pool = rng.uniform(-1, 1, (max(2, min(n, m) // 2), d))
        x, y = pool[rng.integers(len(pool), size=n)], pool[rng.integers(len(pool), size=m)]
    else:
        x, y = rng.uniform(-1, 1, (n, d)), rng.uniform(-1, 1, (m, d))
    if kind.startswith("uniform") or (kind == "duplicate" and rng.integers(2)):
        return empirical(x), empirical(y)

    def weights(k):
        w = rng.random(k) + 0.05
        if kind == "drop":
            w[rng.choice(k, size=int(rng.integers(1, k)), replace=False)] = 0.0
        return w / w.sum()

    return EmpiricalMeasure(PointCloud(x), weights(n)), EmpiricalMeasure(PointCloud(y), weights(m))


class TestPinnedSmallPairs:
    """Probe-sized solves, pinned bit for bit: 40 seeded pairs of 2-16
    points per kind and dimension. The paths taken (line, assignment,
    flow), the DEBUG counts
    (pivots, degenerate, tie_checks) summed over the pairs, and a sha256
    of every value, plan and pair of float duals were recorded with the
    solver of commit db2b384, before its per-solve fixed costs were cut.
    No pair passes `_smallest` more than 512 entries (the largest has
    16 x 17 = 272 arcs): past that its SIMD sort maps about 0.5 MB of
    resident memory the first time a process calls it, which a probe run
    never needs."""

    @pytest.mark.parametrize(
        "kind, d, paths, counts, digest",
        [
            ("uniform_equal", 1, (40, 0, 0), (0, 0, 0), "5f4ead340a645b0262271d63f93c8d161728e61f296e7b44ed7d3553dd526c82"),
            ("uniform_equal", 2, (0, 40, 0), (4, 4, 210), "03b70c2350d27736cc4fac8c2f8313b3b99825e79d4263784e29f9b834b37c78"),
            ("uniform_equal", 4, (0, 40, 0), (0, 0, 4), "747dd227d40936c636159c5e717f758a394e3e8f346259ae444ad569a165b005"),
            ("uniform_unequal", 1, (40, 0, 0), (0, 0, 0), "b48d422e2674e5db58aa061054febd09c83585fa6cb77911b3b1e2877d05df03"),
            ("uniform_unequal", 2, (0, 0, 40), (307, 55, 197), "e388cae15a67773e4076da4b9e68161b493cf94e450e401d3fe2f56c70867fed"),
            ("uniform_unequal", 4, (0, 0, 40), (323, 45, 8), "09456b32472edf05c6d15cb4bb278eb1cdcbe4cf586742699351a21cb7260199"),
            ("weighted", 1, (40, 0, 0), (0, 0, 0), "f3b946eaf13ae5650c1e09b4fbf78b6a0a0aa697a6840274bbae3180735b6b0f"),
            ("weighted", 2, (0, 0, 40), (292, 0, 232), "e6d8db076a2730dc84fded7d25f92c2c4c962f29b2294dd7889d67a43c705530"),
            ("weighted", 4, (0, 0, 40), (262, 0, 22), "faf5f4396f2d8ee15cebce7cb2b37dc5d2ef33052284e86912ea660636a9bfc4"),
            ("drop", 1, (40, 0, 0), (0, 0, 0), "364df0c405ad019baec722ede8df460db49a9f4714f2026470da59e28f62459b"),
            ("drop", 2, (0, 0, 40), (75, 0, 53), "3f7cc7483013a34f1cb7bb10cf2c63a682e7fe5a2de793217e8bb6bed535c0ec"),
            ("drop", 4, (0, 0, 40), (65, 0, 7), "255d7d48c1ac5378f99f4380e300a14b4c7e9244585908b59b2cde2b3965be3a"),
            ("duplicate", 1, (40, 0, 0), (0, 0, 0), "c13e42149ae763d5c4cd503a76451f701f7d662be43f33d4b30bffd2fe470c77"),
            ("duplicate", 2, (0, 1, 39), (14, 1, 1289), "c24b34e78127327f62bdc83d8c27ba0881e991d6c72a358d6beee2c611e68383"),
            ("duplicate", 4, (0, 1, 39), (45, 3, 1351), "0dd541a1932042ba6d9a4a09a5a07e628b7bffc18483ad940cf01acb0c10d7a1"),
        ],
    )
    def test_counts_and_digest(self, caplog, monkeypatch, kind, d, paths, counts, digest):
        def within_merge_sort(vals, k):
            assert vals.size <= 512, f"a probe-sized pair ordered {vals.size} entries"
            return _smallest(vals, k)

        monkeypatch.setattr(transport, "_smallest", within_merge_sort)
        rng = np.random.default_rng([SMALL_KINDS.index(kind), d])
        h = hashlib.sha256()
        with caplog.at_level(logging.DEBUG, logger="softmatch"):
            for _ in range(40):
                res = w1(*_small_pair(kind, d, rng))
                for a in (np.float64(res.value), res.plan.gamma, *res.plan.dual_potentials()):
                    h.update(np.ascontiguousarray(a).tobytes())
        events = [r.args for r in caplog.records if r.name == "softmatch"]
        assert len(events) == 40
        assert tuple(sum(e[0] == p for e in events) for p in ("line", "assignment", "flow")) == paths
        assert tuple(sum(e[k] for e in events) for k in (3, 4, 5)) == counts
        assert h.hexdigest() == digest
