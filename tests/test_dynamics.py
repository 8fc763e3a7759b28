"""Particle trajectories, DEQ fixed points, residual inversion."""

import logging
import math
import sys

import kernel_oracle
import numpy as np
import pytest

from softmatch.bounds import bound_bounded_contraction
from softmatch.dynamics import (
    DeqResult,
    TransformerLayerSpec,
    cloud_distance,
    deq_solve,
    invert_residual,
    run_particles,
    sampled_set_lipschitz,
)
from softmatch.errors import DimMismatch, InvalidInput, SupportTooLarge
from softmatch.kernels import (
    AttentionConfig,
    FfnConfig,
    Head,
    IdentityLookup,
    LinearLookup,
    MultiHeadConfig,
    _chunk_size,
    self_attention,
)
from softmatch.measures import DomainBox, PointCloud, barycenter, empirical
from softmatch.potentials import DotProduct, Gaussian


def contractive_config(d, alpha=0.3, scale=0.05):
    return AttentionConfig(
        DotProduct(scale=scale, dim=d), LinearLookup(alpha * np.eye(d))
    )


@pytest.mark.parametrize(
    "a, b",
    [
        (np.zeros((3, 2)), np.zeros((2, 2))),
        (np.zeros(3), np.ones(3)),
        (np.zeros((1, 3, 2)), np.ones((1, 3, 2))),
    ],
)
def test_cloud_distance_needs_two_clouds_of_one_shape(a, b):
    with pytest.raises(DimMismatch):
        cloud_distance(a, b)


@pytest.mark.parametrize("a, b", [([[1e308]], [[-1e308]]), ([[1e308, 1e308]], [[0.0, 0.0]])])
def test_cloud_distance_overflow_is_inf_without_a_warning(a, b):
    # RuntimeWarnings are errors under the test settings
    assert cloud_distance(a, b) == math.inf


class TestRunParticles:
    def test_zero_steps(self):
        x0 = PointCloud([[1.0], [2.0]])
        traj = run_particles(
            AttentionConfig(Gaussian(1), IdentityLookup(1)), x0, steps=0
        )
        assert traj.depth == 0
        assert traj.per_step_w1 == ()
        np.testing.assert_array_equal(traj.states[0].points, x0.points)

    def test_constant_potential_collapses_after_one_step(self):
        rng = np.random.default_rng(0)
        x0 = PointCloud(rng.uniform(-1, 1, (6, 2)))
        cfg = AttentionConfig(DotProduct(0.0, 2), IdentityLookup(2))
        traj = run_particles(cfg, x0, steps=4)
        b = barycenter(empirical(x0))
        np.testing.assert_allclose(traj.states[1].points, np.tile(b, (6, 1)), atol=1e-12)
        for h in range(1, 4):
            assert traj.per_step_w1[h] <= 1e-12

    def test_trajectory_deterministic(self):
        rng = np.random.default_rng(1)
        x0 = PointCloud(rng.normal(size=(5, 2)))
        cfg = AttentionConfig(Gaussian(2), IdentityLookup(2))
        a = run_particles(cfg, x0, steps=3)
        b = run_particles(cfg, x0, steps=3)
        for sa, sb in zip(a.states, b.states):
            np.testing.assert_array_equal(sa.points, sb.points)

    def test_permutation_equivariance_along_trajectory(self):
        rng = np.random.default_rng(2)
        x0 = PointCloud(rng.normal(size=(5, 2)))
        perm = rng.permutation(5)
        cfg = AttentionConfig(Gaussian(2), IdentityLookup(2))
        a = run_particles(cfg, x0, steps=3)
        b = run_particles(cfg, x0.permuted(perm), steps=3)
        for sa, sb in zip(a.states, b.states):
            np.testing.assert_array_equal(sa.points[perm], sb.points)

    def test_per_layer_list(self):
        rng = np.random.default_rng(3)
        x0 = PointCloud(rng.normal(size=(4, 2)))
        layers = [
            AttentionConfig(Gaussian(2), IdentityLookup(2)),
            TransformerLayerSpec(
                MultiHeadConfig(
                    [Head(AttentionConfig(Gaussian(2), IdentityLookup(2)), np.eye(2))]
                ),
                FfnConfig([(0.5 * np.eye(2), np.zeros(2))]),
            ),
        ]
        traj = run_particles(layers, x0)
        assert traj.depth == 2
        assert len(traj.per_step_w1) == 2

    def test_steps_required_for_weight_tied(self):
        with pytest.raises(InvalidInput):
            run_particles(
                AttentionConfig(Gaussian(1), IdentityLookup(1)),
                PointCloud([[0.0]]),
            )

    def test_steps_past_any_trajectory_are_refused(self):
        # the weight-tied run built [layer] * steps first, which raised
        # OverflowError from 2**63 steps on and MemoryError below
        with pytest.raises(InvalidInput, match="steps must be below"):
            run_particles(contractive_config(1), PointCloud([[0.0]]), steps=sys.maxsize)

    def test_cloud_past_the_lp_limit_is_rejected(self):
        # every step is measured by exact W1, which holds supports to 512
        x0 = PointCloud(np.linspace(-1.0, 1.0, 513)[:, None])
        with pytest.raises(SupportTooLarge):
            run_particles(contractive_config(1), x0, steps=1)


class TestDeq:
    def test_zero_map_fixed_point_in_one_step(self):
        d = 2
        cfg = AttentionConfig(DotProduct(0.0, d), LinearLookup(np.zeros((d, d))))
        x = PointCloud(np.random.default_rng(4).uniform(-0.5, 0.5, (4, d)))
        h0 = PointCloud(np.random.default_rng(5).uniform(-0.5, 0.5, (4, d)))
        res = deq_solve(cfg, x, h0, tol=1e-12, max_iter=50)
        assert res.converged
        np.testing.assert_allclose(res.h_star.points, 0.0, atol=1e-12)

    def test_unique_fixed_point_under_contraction(self):
        rng = np.random.default_rng(6)
        d = 2
        cfg = contractive_config(d)
        bound = bound_bounded_contraction(cfg, DomainBox.cube(1.0, d)).value
        assert bound < 1.0
        x = PointCloud(rng.uniform(-0.5, 0.5, (6, d)))
        r1 = deq_solve(cfg, x, PointCloud(rng.uniform(-0.5, 0.5, (6, d))), tol=1e-12)
        r2 = deq_solve(cfg, x, PointCloud(rng.uniform(-0.5, 0.5, (6, d))), tol=1e-12)
        assert r1.converged and r2.converged
        assert cloud_distance(r1.h_star, r2.h_star) <= 1e-8
        assert r1.contraction_estimate <= bound + 0.05

    def test_data_dependent_fixed_point(self):
        rng = np.random.default_rng(7)
        d = 2
        cfg = contractive_config(d)
        h0 = PointCloud(rng.uniform(-0.5, 0.5, (5, d)))
        xa = PointCloud(rng.uniform(-0.5, 0.5, (5, d)))
        xb = PointCloud(rng.uniform(-0.5, 0.5, (5, d)))
        ra = deq_solve(cfg, xa, h0, tol=1e-12)
        rb = deq_solve(cfg, xb, h0, tol=1e-12)
        assert cloud_distance(ra.h_star, rb.h_star) > 1e-6

    def test_geometric_step_decay(self):
        rng = np.random.default_rng(8)
        d = 2
        cfg = contractive_config(d)
        x = PointCloud(rng.uniform(-0.5, 0.5, (5, d)))
        h0 = PointCloud(rng.uniform(-0.5, 0.5, (5, d)))
        res = deq_solve(cfg, x, h0, tol=1e-12, max_iter=100)
        assert res.converged
        assert res.contraction_estimate < 0.95
        assert res.residual <= 1e-12

    def test_non_convergence_is_diagnostic(self):
        d = 1
        expander = AttentionConfig(
            DotProduct(0.0, d), LinearLookup(np.array([[-1.5]]))
        )
        x = PointCloud([[0.3], [0.4]])
        h0 = PointCloud([[1.0], [2.0]])
        res = deq_solve(expander, x, h0, tol=1e-12, max_iter=20)
        assert isinstance(res, DeqResult)
        assert not res.converged
        assert res.iterations == 20

    @pytest.mark.parametrize("tol", (0.0, -1e-10, math.nan, math.inf))
    def test_tol_must_be_positive_and_finite(self, tol):
        # a NaN tol never stops the loop and an infinite one stops it after
        # one step, so either would read as a result, not a usage error
        x = PointCloud([[0.3], [0.4]])
        with pytest.raises(InvalidInput, match="tol must be positive and finite"):
            deq_solve(contractive_config(1), x, x, tol=tol)


class TestInvertResidual:
    def test_zero_map_returns_target(self):
        d = 2
        cfg = AttentionConfig(DotProduct(0.0, d), LinearLookup(np.zeros((d, d))))
        y = PointCloud(np.random.default_rng(10).normal(size=(4, d)))
        res = invert_residual(cfg, y, tol=1e-12, lip_check=False)
        assert res.converged
        np.testing.assert_allclose(res.points.points, y.points, atol=1e-12)

    def test_round_trip_small_alpha(self):
        rng = np.random.default_rng(11)
        d = 2
        cfg = contractive_config(d, alpha=0.1)
        for _ in range(5):
            x = PointCloud(rng.uniform(-0.5, 0.5, (5, d)))
            y = PointCloud(x.points + self_attention(cfg, x).points)
            res = invert_residual(cfg, y, tol=1e-10, max_iter=300, seed=0)
            assert res.converged
            assert cloud_distance(res.points, x) <= 1e-8

    def test_near_critical_alpha_slow_geometric(self):
        rng = np.random.default_rng(12)
        d = 2
        # flat potential with alpha tuned so the sampled constant is near 0.9
        cfg = contractive_config(d, alpha=0.9, scale=0.01)
        probe = PointCloud(rng.uniform(-0.5, 0.5, (5, d)))
        lip = sampled_set_lipschitz(cfg, probe, trials=33, seed=3)
        assert 0.8 <= lip < 0.97

        x = PointCloud(rng.uniform(-0.5, 0.5, (5, d)))
        y = PointCloud(x.points + self_attention(cfg, x).points)
        tol = 1e-9
        res = invert_residual(cfg, y, tol=tol, max_iter=2000, seed=0)
        assert res.converged
        assert cloud_distance(res.points, x) <= 1e-7
        # iteration count within 2x of the geometric prediction at rate lip
        predicted = math.log(tol) / math.log(lip)
        assert res.iterations <= 2.0 * predicted + 10
        assert res.iterations >= 0.5 * predicted - 10

        fast = invert_residual(contractive_config(d, alpha=0.1),
                               PointCloud(y.points * 0.1), tol=tol, seed=0)
        assert fast.iterations < res.iterations

    def test_warns_when_sampled_lip_at_least_one(self):
        d = 1
        cfg = AttentionConfig(DotProduct(0.0, d), LinearLookup(np.array([[2.0]])))
        y = PointCloud([[0.1], [0.2]])
        with pytest.warns(RuntimeWarning):
            res = invert_residual(cfg, y, tol=1e-10, max_iter=10, seed=0)
        assert not res.converged

    @pytest.mark.parametrize("tol", (0.0, -1e-10, math.nan, math.inf))
    def test_tol_must_be_positive_and_finite(self, tol):
        y = PointCloud([[0.1], [0.2]])
        with pytest.raises(InvalidInput, match="tol must be positive and finite"):
            invert_residual(contractive_config(1), y, tol=tol, lip_check=False)


def gate_layers(d):
    head = contractive_config(d)
    gauss = AttentionConfig(Gaussian(d), LinearLookup(0.3 * np.eye(d)))
    mh = MultiHeadConfig([Head(head, 0.5 * np.eye(d)), Head(gauss, 0.5 * np.eye(d))])
    ffn = FfnConfig([(0.5 * np.eye(d), np.zeros(d))], "tanh")
    return {"dot": head, "gauss": gauss, "multi": mh, "transformer": TransformerLayerSpec(mh, ffn)}


class TestLipschitzGate:
    @pytest.mark.parametrize("trials", (1, 2, 4, 7, 16, 17, 20))
    @pytest.mark.parametrize("n", (1, 2, 5, 16))
    @pytest.mark.parametrize("kind", ("dot", "gauss", "multi", "transformer"))
    def test_batched_gate_equals_trial_by_trial(self, kind, n, trials):
        d = 2
        rng = np.random.default_rng([n, trials])
        layer = gate_layers(d)[kind]
        ref = PointCloud(rng.uniform(-0.5, 0.5, (n, d)))
        seed = int(rng.integers(2**31))
        got = sampled_set_lipschitz(layer, ref, trials=trials, seed=seed)
        want = kernel_oracle.sampled_set_lipschitz(layer, ref, trials=trials, seed=seed)
        kernel_oracle.assert_bitwise(np.float64(got), np.float64(want))

    @pytest.mark.parametrize("kind", ("gauss", "transformer"))
    def test_trials_spanning_several_batches(self, kind):
        # 100 points: a batch holds 6 pairs, so 16 trials take 3 batches
        n, d = 100, 2
        assert _chunk_size(n) == 6
        layer = gate_layers(d)[kind]
        ref = PointCloud(np.random.default_rng(5).uniform(-0.5, 0.5, (n, d)))
        got = sampled_set_lipschitz(layer, ref, trials=16, seed=9)
        kernel_oracle.assert_bitwise(
            np.float64(got),
            np.float64(kernel_oracle.sampled_set_lipschitz(layer, ref, trials=16, seed=9)),
        )

    @pytest.mark.parametrize("trials", (0, -1))
    def test_no_trials_is_rejected(self, trials):
        # 0.0 would read as "contracts" with no pair sampled
        ref = PointCloud([[0.0], [1.0]])
        with pytest.raises(InvalidInput):
            sampled_set_lipschitz(contractive_config(1), ref, trials=trials)


def events(caplog, prefix):
    return [r for r in caplog.records if r.name == "softmatch" and r.getMessage().startswith(prefix)]


class TestDebugEvents:
    def test_one_event_per_call(self, caplog):
        caplog.set_level(logging.DEBUG, logger="softmatch")
        d = 2
        cfg = contractive_config(d)
        rng = np.random.default_rng(21)
        x = PointCloud(rng.uniform(-0.5, 0.5, (6, d)))
        res = deq_solve(cfg, x, PointCloud(rng.uniform(-0.5, 0.5, (6, d))), tol=1e-12)
        (deq,) = events(caplog, "deq_solve:")
        assert f"iterations={res.iterations} " in deq.getMessage()
        assert "converged=True" in deq.getMessage()
        assert "residual=" in deq.getMessage()

        caplog.clear()
        lip = sampled_set_lipschitz(cfg, x, trials=5, seed=2)
        (gate,) = events(caplog, "sampled_set_lipschitz:")
        assert "trials=5 batches=2 " in gate.getMessage()
        assert f"estimate={lip:.6g}" in gate.getMessage()

        caplog.clear()
        y = PointCloud(x.points + self_attention(cfg, x).points)
        inv = invert_residual(cfg, y, tol=1e-10, seed=0)
        (event,) = events(caplog, "invert_residual:")
        assert f"iterations={inv.iterations} " in event.getMessage()
        assert "converged=True" in event.getMessage()
        assert len(events(caplog, "sampled_set_lipschitz:")) == 1
        assert len(caplog.records) == 2

    def test_diverged_inversion_still_logs_once(self, caplog):
        caplog.set_level(logging.DEBUG, logger="softmatch")
        expander = AttentionConfig(DotProduct(0.0, 1), LinearLookup(np.array([[-1e60]])))
        res = invert_residual(expander, PointCloud([[1.0], [2.0]]), lip_check=False, max_iter=50)
        assert not res.converged and res.residual == float("inf")
        (event,) = events(caplog, "invert_residual:")
        assert "residual=inf" in event.getMessage()
        assert len(caplog.records) == 1


class TestNonFiniteLayerOutputs:
    """Similarities or outputs that overflow inside the iterations raise
    InvalidInput, as they did when every iterate was a PointCloud."""

    def overflowing(self):
        return AttentionConfig(DotProduct(1e300, 1), IdentityLookup(1))

    def test_deq_raises(self):
        x = PointCloud([[1e5], [2e5]])
        with pytest.raises(InvalidInput):
            deq_solve(self.overflowing(), x, x)

    def test_invert_raises(self):
        y = PointCloud([[1e5], [2e5]])
        with pytest.raises(InvalidInput):
            invert_residual(self.overflowing(), y, lip_check=False)

    def test_gate_raises(self):
        with pytest.raises(InvalidInput):
            sampled_set_lipschitz(self.overflowing(), PointCloud([[1e5], [2e5]]), trials=3)
