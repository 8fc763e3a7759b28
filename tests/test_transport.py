"""Exact W1: solver examples, oracle agreement, certificates, metric axioms."""

import logging
from fractions import Fraction

import numpy as np
import pytest
from flow_oracle import _min_cost_flow
from scipy.optimize import linear_sum_assignment, linprog

from softmatch import transport
from softmatch.errors import (
    DimMismatch,
    InvalidInput,
    OracleTooLarge,
    SizeMismatch,
    SupportTooLarge,
)
from softmatch.measures import EmpiricalMeasure, PointCloud, empirical
from softmatch.transport import (
    TransportPlan,
    _dyadic_ints,
    _integer_masses,
    _matching_basis,
    _network_simplex,
    _solve_masses,
    cost_matrix_l1,
    product_measure,
    w1,
    w1_equal_size_assignment,
    w1_oracle_lcm,
    w1_oracle_permutations,
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
        res = w1(mu, nu, method="flow")
        assert res.value == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(res.plan.gamma, [[0.5, 0.5]], atol=1e-12)

    def test_same_measure_is_zero(self):
        rng = np.random.default_rng(0)
        mu = random_measure(rng, 6, 3)
        assert w1(mu, mu, method="flow").value == 0.0

    def test_errors(self):
        with pytest.raises(DimMismatch):
            w1(empirical([[0.0]]), empirical([[0.0, 1.0]]))
        with pytest.raises(SizeMismatch):
            w1(empirical([[0.0]]), empirical([[0.0], [1.0]]), method="assignment")
        big = empirical(np.zeros((513, 1)) + np.arange(513)[:, None])
        with pytest.raises(SupportTooLarge):
            w1(big, big)


class TestAssignmentPath:
    def test_identical_sets_any_order(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(6, 2))
        x = PointCloud(pts)
        y = PointCloud(pts[rng.permutation(6)])
        assert w1_equal_size_assignment(x, y).value == 0.0

    def test_two_point_example(self):
        x = PointCloud([[0.0], [10.0]])
        y = PointCloud([[1.0], [9.0]])
        assert w1_equal_size_assignment(x, y).value == pytest.approx(1.0, abs=1e-15)

    def test_matches_factorial_oracle_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            d = int(rng.integers(1, 4))
            x = PointCloud(rng.uniform(-3, 3, (n, d)))
            y = PointCloud(rng.uniform(-3, 3, (n, d)))
            got = w1_equal_size_assignment(x, y).value
            want = w1_oracle_permutations(x, y)
            assert got == pytest.approx(want, abs=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = PointCloud(rng.normal(size=(5, 2)))
            y = PointCloud(rng.normal(size=(5, 2)))
            assert (
                w1_equal_size_assignment(x, y).value
                == w1_equal_size_assignment(y, x).value
            )

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            w1_equal_size_assignment(PointCloud([[0.0]]), PointCloud([[0.0], [1.0]]))


class TestFlowAgainstOracles:
    def test_flow_equals_assignment_when_both_apply(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(1, 10))
            d = int(rng.integers(1, 4))
            mu = random_measure(rng, n, d, uniform=True)
            nu = random_measure(rng, n, d, uniform=True)
            a = w1(mu, nu, method="flow").value
            b = w1_equal_size_assignment(mu.support, nu.support).value
            assert a == pytest.approx(b, abs=1e-9)

    def test_flow_equals_linprog_weighted(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            mu = random_measure(rng, int(rng.integers(1, 8)), 2)
            nu = random_measure(rng, int(rng.integers(1, 8)), 2)
            got = w1(mu, nu, method="flow").value
            assert got == pytest.approx(linprog_w1(mu, nu), abs=1e-9)

    def test_lcm_oracle(self):
        mu = empirical([[0.0]])
        nu = empirical([[-1.0], [1.0]])
        assert w1_oracle_lcm(mu, nu) == pytest.approx(1.0, abs=1e-12)

        rng = np.random.default_rng(6)
        for _ in range(40):
            mu = random_measure(rng, 2, 2, uniform=True)
            nu = random_measure(rng, 3, 2, uniform=True)
            assert w1(mu, nu, method="flow").value == pytest.approx(
                w1_oracle_lcm(mu, nu), abs=1e-9
            )

    def test_lcm_equals_assignment_when_equal(self):
        rng = np.random.default_rng(7)
        mu = random_measure(rng, 4, 2, uniform=True)
        nu = random_measure(rng, 4, 2, uniform=True)
        assert w1_oracle_lcm(mu, nu) == pytest.approx(
            w1_equal_size_assignment(mu.support, nu.support).value, abs=1e-12
        )

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
            res = w1(mu, nu, method="flow")
            cert = res.plan.certificate()
            assert cert["max_feasibility_violation"] <= 1e-9
            assert cert["max_support_slack"] <= 1e-9
            assert abs(cert["dual_objective"] - res.value) <= 1e-9 * (1 + res.value)
            assert res.dual_gap <= 1e-9 * (1.0 + res.value)

    def test_assignment_duals_from_plan(self):
        rng = np.random.default_rng(10)
        x = PointCloud(rng.normal(size=(6, 2)))
        y = PointCloud(rng.normal(size=(6, 2)))
        res = w1_equal_size_assignment(x, y)
        u, v = res.plan.dual_potentials()
        c = cost_matrix_l1(x.points, y.points)
        assert float((u[:, None] + v[None, :] - c).max()) <= 1e-9
        support = res.plan.gamma > 0
        np.testing.assert_allclose(
            (u[:, None] + v[None, :])[support], c[support], atol=1e-9
        )

    def test_plan_invariants(self):
        rng = np.random.default_rng(11)
        mu = random_measure(rng, 5, 2)
        nu = random_measure(rng, 7, 2)
        plan = w1(mu, nu, method="flow").plan
        np.testing.assert_allclose(plan.gamma.sum(axis=1), mu.weights, atol=1e-9)
        np.testing.assert_allclose(plan.gamma.sum(axis=0), nu.weights, atol=1e-9)
        c = cost_matrix_l1(mu.support.points, nu.support.points)
        assert abs(float((plan.gamma * c).sum()) - plan.cost) <= 1e-9


class TestMetricAxioms:
    def test_symmetry_exact_flow(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            mu = random_measure(rng, int(rng.integers(1, 7)), 2)
            nu = random_measure(rng, int(rng.integers(1, 7)), 2)
            assert w1(mu, nu, method="flow").value == w1(nu, mu, method="flow").value

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
    n); otherwise the masses are the weights over a power of two."""
    c = cost_matrix_l1(mu.support.points, nu.support.points)
    n, m = c.shape
    ints, shift = _dyadic_ints(c)
    cost = [ints[i * m : (i + 1) * m] for i in range(n)]
    if unit:
        return c, cost, shift, [1] * n, [1] * m, n
    a, b, w_shift, _ = _integer_masses(mu.weights, nu.weights)
    return c, cost, shift, a, b, 1 << w_shift


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


def assert_strongly_feasible(basis, n, m):
    """The arcs span all n + m nodes as a tree, and rooted at sink m - 1
    every zero-flow arc has its source as the child: the invariant that
    keeps degenerate pivots from cycling."""
    assert len(basis.arcs) == n + m - 1
    adj = {}
    for i, j, f in basis.arcs:
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
                basis = _network_simplex(c, _matching_basis(cols.tolist()), shift, "assignment")
                assert_exact_basis(basis, cost, a, b, total)
                assert_strongly_feasible(basis, mu.n, nu.n)
            # the flow path on the weights' masses
            c, cost, shift, a, b, den = exact_lp(mu, nu, False)
            total = oracle_total(cost, a, b)
            basis = _solve_masses(c, a, b, shift, "flow")
            assert_exact_basis(basis, cost, a, b, total)
            if min(a) and min(b):
                # zero-mass points sit out of the simplex
                assert_strongly_feasible(basis, mu.n, nu.n)
            assert w1(mu, nu, method="flow").value == float(Fraction(total, den << shift))

    def test_repairs_a_suboptimal_hungarian_matching(self):
        # three steps of a contractive attention layer on a 1-d cloud; on
        # the last pair scipy's float Hungarian matching is exactly
        # suboptimal (by about 4e-18), and its value would be 1 ulp high
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
        res = w1_equal_size_assignment(mu.support, nu.support)
        assert res.value == float(Fraction(total, den << shift))
        assert np.count_nonzero(res.plan.gamma) == mu.n


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
            assert _solve_masses(c, a, b, shift, "flow").total == want


class TestEngineCertificates:
    def test_assignment_duals_exactly_feasible(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            x = PointCloud(rng.normal(size=(n, 3)))
            y = PointCloud(rng.normal(size=(n, 3)))
            res = w1_equal_size_assignment(x, y)
            assert_float_duals_exactly_feasible(res, cost_matrix_l1(x.points, y.points))
            assert res.plan.certificate()["max_feasibility_violation"] <= 0.0
            assert res.dual_gap == 0.0

    def test_caller_plan_duals_come_from_the_engine(self):
        rng = np.random.default_rng(21)
        mu = random_measure(rng, 7, 2)
        nu = random_measure(rng, 5, 2)
        solved = w1(mu, nu, method="flow")
        plan = TransportPlan(solved.plan.gamma, mu, nu, solved.value)
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
        plan = TransportPlan(np.array([[0.0, 0.5], [0.5, 0.0]]), mu, nu, 1.0)
        cert = plan.certificate()
        assert cert["max_feasibility_violation"] <= 0.0
        assert cert["max_support_slack"] >= 1.0
        assert cert["dual_objective"] == 0.0 < cert["primal_objective"]

    def test_zero_mass_points_get_feasible_duals(self):
        mu = EmpiricalMeasure(PointCloud([[0.0], [5.0], [1.0]]), [0.5, 0.0, 0.5])
        nu = EmpiricalMeasure(PointCloud([[0.0], [-3.0], [2.0]]), [0.5, 0.0, 0.5])
        res = w1(mu, nu)
        assert res.value == 0.5
        assert_float_duals_exactly_feasible(res, cost_matrix_l1(mu.support.points, nu.support.points))
        assert res.plan.certificate()["max_support_slack"] == 0.0


class TestSolverHandOff:
    """What a `w1` call hands on instead of rebuilding: its cost matrix to
    the plan's cost check, and the caller's measures to the plan."""

    @staticmethod
    def count_cost_matrices(monkeypatch):
        calls = []
        build = transport.cost_matrix_l1

        def counted(x, y):
            calls.append((len(x), len(y)))
            return build(x, y)

        monkeypatch.setattr(transport, "cost_matrix_l1", counted)
        return calls

    def test_w1_builds_the_cost_matrix_once(self, monkeypatch):
        rng = np.random.default_rng(23)
        weighted = random_measure(rng, 6, 2), random_measure(rng, 4, 2)
        uniform = random_measure(rng, 5, 2, uniform=True), random_measure(rng, 5, 2, uniform=True)
        calls = self.count_cost_matrices(monkeypatch)
        for mu, nu in (weighted, uniform):
            for method in ("auto", "flow"):
                calls.clear()
                w1(mu, nu, method=method)
                assert calls == [(mu.n, nu.n)]
        calls.clear()
        w1_equal_size_assignment(uniform[0].support, uniform[1].support)
        assert calls == [(5, 5)]

    def test_caller_plan_checks_its_cost_against_its_own_matrix(self, monkeypatch):
        rng = np.random.default_rng(24)
        mu, nu = random_measure(rng, 4, 3), random_measure(rng, 3, 3)
        solved = w1(mu, nu)
        calls = self.count_cost_matrices(monkeypatch)
        TransportPlan(solved.plan.gamma, mu, nu, solved.value)
        assert calls == [(4, 3)]
        with pytest.raises(InvalidInput):
            TransportPlan(solved.plan.gamma, mu, nu, solved.value + 0.25)
        assert "cost_matrix" not in vars(solved.plan)

    @pytest.mark.parametrize("kind", ("grid", "near", "d1"))
    def test_uniform_w1_keeps_the_callers_measures(self, kind):
        # the unit instances of the engine-parity corpus
        rng = np.random.default_rng(["weighted", "grid", "product", "near", "d1"].index(kind))
        seen = 0
        for _ in range(420):
            mu, nu = _parity_instance(kind, rng)
            if not (mu.n == nu.n and transport._is_uniform(mu) and transport._is_uniform(nu)):
                continue
            seen += 1
            res = w1(mu, nu)
            assert res.plan.source is mu and res.plan.target is nu
            want = w1_equal_size_assignment(mu.support, nu.support)
            assert res.value == want.value
            assert np.array_equal(res.plan.gamma, want.plan.gamma)
        assert seen >= 100


class TestSolveEvents:
    def test_one_debug_event_per_solve(self, caplog):
        rng = np.random.default_rng(22)
        weighted = random_measure(rng, 6, 2), random_measure(rng, 4, 2)
        uniform = random_measure(rng, 5, 2, uniform=True), random_measure(rng, 5, 2, uniform=True)
        with caplog.at_level(logging.DEBUG, logger="softmatch"):
            w1(*weighted)
            w1(*uniform)
            TransportPlan(np.full((1, 1), 1.0), empirical([[0.0]]), empirical([[1.0]]), 1.0).dual_potentials()
        events = [r for r in caplog.records if r.name == "softmatch"]
        assert [r.args[:3] for r in events] == [("flow", 6, 4), ("assignment", 5, 5), ("duals", 1, 1)]
        for r in events:
            assert r.levelno == logging.DEBUG
            assert r.msg.count("%") == len(r.args)
            pivots, degenerate, ties = r.args[3:]
            assert 0 <= degenerate <= pivots and ties >= 0
