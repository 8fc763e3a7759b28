"""Value semantics of the result, config and report types: equality is
identity wherever a type can hold an array, a dict or a box, hashing
works, and values compare through `to_dict()`; types of scalars alone
keep value equality."""

import numpy as np
import pytest

from softmatch.bounds import Ingredient, bound_bounded_contraction
from softmatch.dynamics import deq_solve, invert_residual, run_particles
from softmatch.kernels import (
    AttentionConfig,
    FfnConfig,
    Head,
    IdentityLookup,
    LinearLookup,
    MultiHeadConfig,
    TransformerLayerSpec,
)
from softmatch.measures import DomainBox, EmpiricalMeasure, PointCloud, empirical
from softmatch.potentials import (
    DotProduct,
    Gaussian,
    Provenance,
    SamplingConfig,
    ScaledDotProduct,
    regularity_stats,
)
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
    if kind in ("ProbeConfig", "ProbeResult"):
        probe = ProbeConfig(seed=3, trials=4, d=2, n_range=(2, 3), domain=DomainBox.cube(1.0, 2))
        return probe if kind == "ProbeConfig" else probe_contraction(LAYER, probe)
    if kind == "LinearLookup":
        return LinearLookup(0.3 * np.eye(2))
    if kind == "ScaledDotProduct":
        return ScaledDotProduct(np.eye(2), 0.5 * np.eye(2), 0.1)
    if kind == "AttentionConfig":
        return AttentionConfig(DotProduct(scale=0.05, dim=2), LinearLookup(0.3 * np.eye(2)))
    if kind in ("Head", "MultiHeadConfig", "FfnConfig", "TransformerLayerSpec"):
        head = Head(AttentionConfig(Gaussian(2), IdentityLookup(2)), np.eye(2))
        ffn = FfnConfig([(np.eye(2), np.zeros(2))])
        return {
            "Head": head, "FfnConfig": ffn, "MultiHeadConfig": MultiHeadConfig([head]),
            "TransformerLayerSpec": TransformerLayerSpec(MultiHeadConfig([head]), ffn),
        }[kind]
    if kind == "RegularityStats":
        return regularity_stats(DotProduct(scale=0.05, dim=2), DomainBox.cube(1.0, 2))
    if kind == "BoundReport":
        return bound_bounded_contraction(LAYER, DomainBox.cube(1.0, 2))
    raise AssertionError(kind)


KINDS = (
    "PointCloud", "EmpiricalMeasure", "DomainBox", "TransportPlan", "W1Result",
    "Trajectory", "DeqResult", "InversionResult", "ProbeResult",
    "LinearLookup", "ScaledDotProduct", "AttentionConfig", "Head", "MultiHeadConfig",
    "FfnConfig", "TransformerLayerSpec", "ProbeConfig", "RegularityStats", "BoundReport",
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
                                  "InversionResult", "ProbeResult", "EmpiricalMeasure",
                                  "RegularityStats", "BoundReport"))
def test_equal_values_have_equal_to_dicts(kind):
    a, b = build(kind), build(kind)
    args = {"include_plan": True} if kind == "W1Result" else {}
    assert a.to_dict(**args) == b.to_dict(**args)



@pytest.mark.parametrize("build_scalar", (
    lambda: Gaussian(2),
    lambda: DotProduct(scale=0.5, dim=3),
    lambda: IdentityLookup(2),
    lambda: Provenance("sampled", n_samples=10, seed=0),
    lambda: Ingredient(0.5, Provenance("analytic")),
    lambda: SamplingConfig(n_pairs=10, seed=1),
), ids=("Gaussian", "DotProduct", "IdentityLookup", "Provenance", "Ingredient", "SamplingConfig"))
def test_scalar_types_keep_value_equality(build_scalar):
    a, b = build_scalar(), build_scalar()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1

def test_trajectory_to_dict_is_the_dynamics_report():
    traj = build("Trajectory")
    assert traj.to_dict() == {
        "depth": 2,
        "per_step_w1": list(traj.per_step_w1),
        "final_state": traj.states[-1].points.tolist(),
    }
    assert list(traj.to_dict()) == ["depth", "per_step_w1", "final_state"]
