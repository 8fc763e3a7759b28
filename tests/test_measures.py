"""Empirical measures: construction invariants, barycenter, projection, IO,
and the one l1 ground metric."""

import ast
from pathlib import Path

import kernel_oracle
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softmatch.errors import DimMismatch, EmptySupport, InvalidInput
from softmatch.measures import (
    DomainBox,
    EmpiricalMeasure,
    PointCloud,
    _l1_norms,
    _ordered_sum,
    barycenter,
    empirical,
    load_cloud_any,
    load_measure_json,
    load_point_cloud_csv,
    project_dirac,
    save_measure_json,
    save_point_cloud_csv,
)


class TestPointCloud:
    def test_shapes(self):
        c = PointCloud([[0.0, 1.0], [2.0, 3.0]])
        assert c.n == 2 and c.dim == 2 and len(c) == 2

    def test_one_d_input_is_column(self):
        c = PointCloud([0.0, 2.0])
        assert c.dim == 1 and c.n == 2

    def test_empty_rejected(self):
        with pytest.raises(EmptySupport):
            PointCloud(np.zeros((0, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            PointCloud([[np.nan, 0.0]])
        with pytest.raises(InvalidInput):
            PointCloud([[np.inf]])

    def test_immutable(self):
        c = PointCloud([[1.0]])
        with pytest.raises(ValueError):
            c.points[0, 0] = 2.0


class TestEmpirical:
    def test_uniform_two_points(self):
        mu = empirical(PointCloud([[0.0], [2.0]]))
        np.testing.assert_array_equal(mu.weights, [0.5, 0.5])
        np.testing.assert_array_equal(mu.support.points, [[0.0], [2.0]])

    def test_single_point_dirac(self):
        mu = empirical(PointCloud([[1.0, 1.0]]))
        assert mu.weights.tolist() == [1.0]

    def test_multiplicity_kept(self):
        mu = empirical(PointCloud([[0.0], [0.0]]))
        assert mu.n == 2
        np.testing.assert_array_equal(mu.weights, [0.5, 0.5])
        np.testing.assert_array_equal(barycenter(mu), [0.0])

    def test_weight_validation(self):
        cloud = PointCloud([[0.0], [1.0]])
        with pytest.raises(InvalidInput):
            EmpiricalMeasure(cloud, [0.7, 0.7])  # sums to 1.4
        with pytest.raises(InvalidInput):
            EmpiricalMeasure(cloud, [-0.1, 1.1])
        with pytest.raises(InvalidInput):
            EmpiricalMeasure(cloud, [0.5])  # wrong length

    def test_weights_kept_bitwise(self):
        # benign drift inside the tolerance is kept, not renormalized
        w = np.array([0.5, 0.5 + 4e-13])
        assert EmpiricalMeasure(PointCloud([[0.0], [1.0]]), w).weights.tobytes() == w.tobytes()
        # a measure rebuilt from its own weights, or permuted, is the
        # measure built from the same weights
        pts = np.arange(6.0)[:, None]
        w = np.array([0, 0, 1, 2, 2, 2]) / 7
        mu = EmpiricalMeasure(PointCloud(pts), w)
        assert EmpiricalMeasure(mu.support, mu.weights).weights.tobytes() == mu.weights.tobytes()
        perm = np.array([3, 5, 0, 4, 1, 2])
        rebuilt = EmpiricalMeasure(PointCloud(pts[perm]), w[perm])
        assert mu.permuted(perm).weights.tobytes() == rebuilt.weights.tobytes()


class TestBarycenter:
    def test_midpoint(self):
        np.testing.assert_array_equal(barycenter(empirical([[0.0], [2.0]])), [1.0])

    def test_weighted(self):
        mu = EmpiricalMeasure(PointCloud([[0.0], [4.0]]), [0.25, 0.75])
        np.testing.assert_allclose(barycenter(mu), [3.0], atol=0)

    def test_dirac(self):
        x = np.array([0.3, -1.7])
        np.testing.assert_array_equal(barycenter(empirical([x])), x)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 4))
    def test_permutation_invariant_bitwise(self, seed, n, d):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, d))
        w = rng.random(n) + 0.01
        w /= w.sum()
        mu = EmpiricalMeasure(PointCloud(pts), w)
        perm = rng.permutation(n)
        b1 = barycenter(mu)
        b2 = barycenter(mu.permuted(perm))
        np.testing.assert_array_equal(b1, b2)

    def test_duplicate_points_different_weights_invariant(self):
        # weight tiebreak keeps duplicated support canonical
        pts = np.array([[1.0], [1.0], [0.0]])
        w = np.array([0.3, 0.5, 0.2])
        mu = EmpiricalMeasure(PointCloud(pts), w)
        nu = mu.permuted([1, 0, 2])
        np.testing.assert_array_equal(barycenter(mu), barycenter(nu))

    def test_in_box_when_support_in_box(self):
        rng = np.random.default_rng(3)
        box = DomainBox.cube(1.0, 3)
        for _ in range(50):
            pts = rng.uniform(-1, 1, size=(6, 3))
            w = rng.random(6)
            w /= w.sum()
            b = barycenter(EmpiricalMeasure(PointCloud(pts), w))
            assert box.contains(b.reshape(1, -1), atol=1e-12)


class TestOrderedSum:
    """`_ordered_sum` against the left-to-right loop it replaced, over
    shapes whose trailing size is 1 (where numpy would sum pairwise) and
    larger, in C and Fortran layout."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 1000),
        st.sampled_from(((), (1,), (1, 1), (2,), (3,), (8,), (1, 4), (2, 3))),
    )
    @example(seed=0, n=1000, trailing=())
    @example(seed=1, n=1000, trailing=(1,))
    @example(seed=2, n=1000, trailing=(4,))
    def test_equals_left_to_right_loop(self, seed, n, trailing):
        rng = np.random.default_rng(seed)
        shape = (n, *trailing)
        rows = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        rows[rng.random(shape) < 0.1] = -0.0
        want = kernel_oracle._ordered_sum(rows)
        kernel_oracle.assert_bitwise(_ordered_sum(rows), want)
        if rows.ndim == 2:
            kernel_oracle.assert_bitwise(_ordered_sum(np.asfortranarray(rows)), want)

    @pytest.mark.parametrize("shape", ((1,), (3,), (1, 1), (3, 1), (1, 2), (3, 2)))
    def test_sum_of_negative_zeros_is_negative_zero(self, shape):
        rows = np.full(shape, -0.0)
        kernel_oracle.assert_bitwise(_ordered_sum(rows), kernel_oracle._ordered_sum(rows))
        assert np.all(np.signbit(_ordered_sum(rows)))


# (a shape, b shape or None for the origin) of each layout the library
# measures: a cost matrix, rows against rows, rows against a point, norms,
# and a batch of clouds
_L1_LAYOUTS = {
    "matrix": lambda n, m, d: ((n, 1, d), (1, m, d)),
    "rows": lambda n, m, d: ((n, d), (n, d)),
    "point": lambda n, m, d: ((n, d), (d,)),
    "origin": lambda n, m, d: ((n, d), None),
    "clouds": lambda n, m, d: ((m, n, d), (m, n, d)),
}


def _l1_operand(rng, shape):
    """Magnitudes from 1e-8 to 1e8, with signed zeros and +-1.7e308 mixed
    in, so that some differences and some sums overflow to inf."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    x[rng.random(shape) < 0.1] = -0.0
    x[rng.random(shape) < 0.1] = 0.0
    huge = rng.random(shape) < 0.03
    x[huge] = rng.choice([-1.7e308, 1.7e308], size=int(huge.sum()))
    return x


class TestL1Norms:
    """`_l1_norms` is np.abs(a - b).sum(axis=-1) bit for bit, on both of
    its paths: numpy's expression and the per-coordinate loop taken below
    d = 8 past 1024 entries of the difference."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(sorted(_L1_LAYOUTS)),
        st.integers(1, 300),
        st.integers(1, 40),
        st.integers(0, 9),
    )
    @example(seed=0, layout="matrix", n=4, m=4, d=2)
    @example(seed=1, layout="matrix", n=32, m=32, d=4)
    @example(seed=2, layout="rows", n=300, m=1, d=3)
    @example(seed=3, layout="origin", n=300, m=1, d=1)
    @example(seed=4, layout="point", n=300, m=1, d=7)
    @example(seed=5, layout="clouds", n=64, m=8, d=2)
    @example(seed=6, layout="matrix", n=40, m=40, d=0)
    def test_is_numpy_expression(self, seed, layout, n, m, d):
        rng = np.random.default_rng(seed)
        a_shape, b_shape = _L1_LAYOUTS[layout](n, m, d)
        a = _l1_operand(rng, a_shape)
        b = None if b_shape is None else _l1_operand(rng, b_shape)
        with np.errstate(over="ignore"):
            got = _l1_norms(a, b)
            want = np.abs(a - (np.zeros(d) if b is None else b)).sum(axis=-1)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _l1_expressions(tree):
    """Every `np.abs(<x> - <y>).sum(...)` in a module, unparsed."""
    return [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "sum"
        and isinstance(inner := node.func.value, ast.Call)
        and ast.unparse(inner.func) == "np.abs"
        and len(inner.args) == 1
        and isinstance(inner.args[0], ast.BinOp)
        and isinstance(inner.args[0].op, ast.Sub)
    ]


def test_l1_distances_come_from_measures():
    """The l1 ground metric is written once, as `measures._l1_norms`. The
    one allowed copy is the custom similarity that `equiv` hands to the
    equivalence sweep as a user-written potential."""
    allowed = {("equiv.py", "np.abs(x - y).sum(axis=-1)")}
    assert _l1_expressions(ast.parse("d = np.abs(p - q).sum(axis=1)")) == [
        "np.abs(p - q).sum(axis=1)"
    ]
    src = Path(__file__).resolve().parent.parent / "src" / "softmatch"
    found = {
        (path.name, expr)
        for path in sorted(src.glob("*.py"))
        if path.name != "measures.py"
        for expr in _l1_expressions(ast.parse(path.read_text()))
    }
    assert found <= allowed, f"l1 distances written outside measures: {found - allowed}"


class TestProjectDirac:
    def test_uniform_two_points(self):
        out = project_dirac(empirical([[0.0], [2.0]]))
        assert out.n == 1
        np.testing.assert_array_equal(out.support.points, [[1.0]])

    def test_identity_on_diracs(self):
        mu = empirical([[0.5, -2.0]])
        out = project_dirac(mu)
        np.testing.assert_array_equal(out.support.points, mu.support.points)

    def test_coordinate_mean(self):
        mu = EmpiricalMeasure(PointCloud([[1.0, 0.0], [0.0, 1.0]]), [0.5, 0.5])
        np.testing.assert_allclose(
            project_dirac(mu).support.points, [[0.5, 0.5]], atol=0
        )

    def test_idempotent_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            mu = empirical(PointCloud(rng.normal(size=(5, 2))))
            once = project_dirac(mu)
            twice = project_dirac(once)
            np.testing.assert_array_equal(
                once.support.points, twice.support.points
            )


class TestDomainBox:
    def test_bounds_validation(self):
        with pytest.raises(InvalidInput):
            DomainBox([0.0, 0.0], [-1.0, 1.0])
        with pytest.raises(InvalidInput):
            DomainBox([0.0], None)
        for dim in (0, -1):
            with pytest.raises(InvalidInput, match="box dimension"):
                DomainBox.cube(1.0, dim)

    def test_diameters(self):
        box = DomainBox([-1.0, -1.0], [1.0, 1.0])
        assert box.diameter_l1() == 4.0
        assert box.diameter_l2() == pytest.approx(np.sqrt(8.0))
        assert box.diameter_linf() == 2.0

    def test_unbounded(self):
        box = DomainBox.unbounded(3)
        assert not box.is_bounded
        assert box.diameter_l1() == np.inf
        assert box.contains(np.array([[1e9, 0.0, 0.0]]))

    def test_corners(self):
        box = DomainBox.cube(1.0, 2)
        corners = box.corners()
        assert corners.shape == (4, 2)
        assert {tuple(r) for r in corners.tolist()} == {
            (-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0),
        }

    def test_bounding(self):
        pts = np.array([[0.0, 5.0], [2.0, -1.0]])
        box = DomainBox.bounding(pts)
        assert box.contains(pts)
        assert box.diameter_l1() == 8.0


class TestIO:
    def test_csv_roundtrip(self, tmp_path):
        cloud = PointCloud(np.random.default_rng(0).normal(size=(7, 3)))
        path = tmp_path / "c.csv"
        save_point_cloud_csv(path, cloud)
        back = load_point_cloud_csv(path)
        np.testing.assert_array_equal(back.points, cloud.points)

    def test_json_roundtrip(self, tmp_path):
        mu = EmpiricalMeasure(
            PointCloud([[0.0, 1.0], [2.0, 3.0]]), [0.25, 0.75]
        )
        path = tmp_path / "m.json"
        save_measure_json(path, mu)
        back = load_measure_json(path)
        np.testing.assert_allclose(back.weights, mu.weights, atol=1e-15)
        np.testing.assert_array_equal(back.support.points, mu.support.points)

    def test_json_without_weights_is_uniform(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"dim": 1, "points": [[0.0], [1.0]]}')
        mu = load_measure_json(path)
        np.testing.assert_array_equal(mu.weights, [0.5, 0.5])

    def test_json_dim_mismatch(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"dim": 3, "points": [[0.0], [1.0]]}')
        with pytest.raises(DimMismatch):
            load_measure_json(path)

    def test_load_any_by_extension(self, tmp_path):
        cloud = PointCloud([[1.5]])
        save_point_cloud_csv(tmp_path / "a.csv", cloud)
        assert load_cloud_any(tmp_path / "a.csv").points.tolist() == [[1.5]]
