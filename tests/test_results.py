"""Value semantics of the result types: equality is identity, hashing
works, and values compare through `to_dict()`."""

import numpy as np
import pytest

from softmatch.dynamics import deq_solve, invert_residual, run_particles
from softmatch.kernels import AttentionConfig, LinearLookup
from softmatch.measures import DomainBox, EmpiricalMeasure, PointCloud, empirical
from softmatch.potentials import DotProduct
from softmatch.probes import ProbeConfig, probe_contraction
from softmatch.transport import w1

LAYER = AttentionConfig(DotProduct(scale=0.05, dim=2), LinearLookup(0.3 * np.eye(2)))
X = np.array([[0.1, -0.2], [0.4, 0.3], [-0.5, 0.2]])
Y = np.array([[0.0, 0.1], [0.3, -0.4]])


def build(kind):
    """A fresh instance of one result type, the same value at every call."""
    if kind == "PointCloud":
        return PointCloud(X)
    if kind == "EmpiricalMeasure":
        return EmpiricalMeasure(PointCloud(X), [0.5, 0.25, 0.25])
    if kind == "DomainBox":
        return DomainBox.cube(1.0, 2)
    if kind in ("W1Result", "TransportPlan"):
        res = w1(empirical(X), empirical(Y))
        return res if kind == "W1Result" else res.plan
    if kind == "Trajectory":
        return run_particles(LAYER, PointCloud(X), steps=2)
    if kind == "DeqResult":
        return deq_solve(LAYER, PointCloud(X), PointCloud(np.zeros_like(X)))
    if kind == "InversionResult":
        return invert_residual(LAYER, PointCloud(X))
    if kind == "ProbeResult":
        probe = ProbeConfig(seed=3, trials=4, d=2, n_range=(2, 3), domain=DomainBox.cube(1.0, 2))
        return probe_contraction(LAYER, probe)
    raise AssertionError(kind)


KINDS = (
    "PointCloud", "EmpiricalMeasure", "DomainBox", "TransportPlan", "W1Result",
    "Trajectory", "DeqResult", "InversionResult", "ProbeResult",
)


@pytest.mark.parametrize("kind", KINDS)
def test_equality_is_identity_and_hash_never_raises(kind):
    # the generated field-wise == compared numpy arrays and raised
    # ValueError, and the generated hash raised TypeError
    a, b = build(kind), build(kind)
    assert type(a).__name__ == kind
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


@pytest.mark.parametrize("kind", ("W1Result", "TransportPlan", "Trajectory", "DeqResult",
                                  "InversionResult", "ProbeResult", "EmpiricalMeasure"))
def test_equal_values_have_equal_to_dicts(kind):
    a, b = build(kind), build(kind)
    args = {"include_plan": True} if kind == "W1Result" else {}
    assert a.to_dict(**args) == b.to_dict(**args)


def test_trajectory_to_dict_is_the_dynamics_report():
    traj = build("Trajectory")
    assert traj.to_dict() == {
        "depth": 2,
        "per_step_w1": list(traj.per_step_w1),
        "final_state": traj.states[-1].points.tolist(),
    }
    assert list(traj.to_dict()) == ["depth", "per_step_w1", "final_state"]
