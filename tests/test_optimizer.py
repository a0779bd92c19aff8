import numpy as np
import pytest

from oracles import riccati_lq
from roughassim.errors import InvalidSpecError
from roughassim.grid import SampledPath, TimeGrid
from roughassim.optimizer import (
    AssimilationResult,
    ControlSetSpec,
    OptimizerConfig,
    minimize,
    project_control,
)

from conftest import scalar_lq, zero_eta


FREE = ControlSetSpec()


class TestControlSetSpec:
    def test_box_projection_hand_values(self):
        box = ControlSetSpec(kind="box", lo=np.array([-1.0, 0.0]), hi=np.array([1.0, 2.0]))
        vals = np.array([[5.0, -3.0], [0.5, 1.0]])
        out = box.project_values(vals)
        assert np.allclose(out, [[1.0, 0.0], [0.5, 1.0]])
        assert box.contains(out)
        assert not box.contains(vals)

    def test_ball_projection_hand_values(self):
        ball = ControlSetSpec(kind="ball", center=np.zeros(2), radius=1.0)
        out = ball.project_point(np.array([3.0, 4.0]))
        assert np.allclose(out, [0.6, 0.8])
        inside = np.array([0.1, -0.2])
        assert np.allclose(ball.project_point(inside), inside)

    def test_ball_projection_off_center(self):
        ball = ControlSetSpec(kind="ball", center=np.array([1.0, 0.0]), radius=2.0)
        out = ball.project_point(np.array([6.0, 0.0]))
        assert np.allclose(out, [3.0, 0.0])

    def test_projection_idempotent(self):
        rng = np.random.default_rng(0)
        for spec in (
            FREE,
            ControlSetSpec(kind="box", lo=-np.ones(3), hi=np.ones(3)),
            ControlSetSpec(kind="ball", center=np.zeros(3), radius=0.7),
        ):
            vals = rng.normal(size=(20, 3)) * 3
            once = spec.project_values(vals)
            assert np.allclose(spec.project_values(once), once)

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpecError):
            ControlSetSpec(kind="box", lo=np.array([1.0]), hi=np.array([0.0]))
        with pytest.raises(InvalidSpecError):
            ControlSetSpec(kind="ball", center=np.zeros(1), radius=0.0)
        with pytest.raises(InvalidSpecError):
            ControlSetSpec(kind="simplex")
        with pytest.raises(InvalidSpecError):
            ControlSetSpec(kind="box", lo=np.array([np.nan]), hi=np.array([1.0]))
        with pytest.raises(InvalidSpecError):
            ControlSetSpec(kind="box", lo=np.array([0.0]), hi=np.array([np.nan]))
        with pytest.raises(InvalidSpecError):
            ControlSetSpec(kind="ball", center=np.zeros(1), radius=np.nan)
        with pytest.raises(InvalidSpecError):
            ControlSetSpec(kind="ball", radius=1.0)  # no center

    def test_project_control_path(self):
        grid = TimeGrid(1.0, 4)
        u = SampledPath(grid, 5.0 * np.ones((grid.n_nodes, 1)))
        box = ControlSetSpec(kind="box", lo=np.array([-1.0]), hi=np.array([1.0]))
        assert np.allclose(project_control(u, box).values, 1.0)


class TestOptimizerConfig:
    def test_validation(self):
        with pytest.raises(InvalidSpecError):
            OptimizerConfig(max_iters=0)


class TestMinimizeDecoupled:
    def test_pure_control_energy_goes_to_zero(self):
        # No observation term: J = int |u|^2/2, minimum u = 0, J = 0.
        model, cost = scalar_lq(q=0.0)
        grid = TimeGrid(1.0, 64)
        u0 = SampledPath(grid, np.ones((grid.n_nodes, 1)))
        res = minimize(model, cost, zero_eta(grid), np.array([0.0]), u0, FREE,
                       OptimizerConfig(grad_tol=1e-7))
        assert res.status == "converged"
        assert res.final_cost < 1e-8
        assert np.max(np.abs(res.triple.u.values)) < 1e-6

    def test_cost_trace_monotone(self):
        model, cost = scalar_lq()
        grid = TimeGrid(1.0, 128)
        u0 = SampledPath(grid, 2.0 * np.ones((grid.n_nodes, 1)))
        res = minimize(model, cost, zero_eta(grid), np.array([1.0]), u0, FREE,
                       OptimizerConfig(grad_tol=1e-4))
        trace = np.array(res.cost_trace)
        assert np.all(np.diff(trace) <= 1e-14)

    def test_feasibility_maintained_with_box(self):
        model, cost = scalar_lq()
        grid = TimeGrid(1.0, 64)
        box = ControlSetSpec(kind="box", lo=np.array([-0.1]), hi=np.array([0.1]))
        u0 = SampledPath(grid, np.ones((grid.n_nodes, 1)))
        res = minimize(model, cost, zero_eta(grid), np.array([2.0]), u0, box,
                       OptimizerConfig(grad_tol=1e-5, max_iters=100))
        assert box.contains(res.triple.u.values, tol=1e-10)

    def test_max_iters_status(self):
        model, cost = scalar_lq()
        grid = TimeGrid(1.0, 64)
        u0 = SampledPath(grid, 2.0 * np.ones((grid.n_nodes, 1)))
        res = minimize(model, cost, zero_eta(grid), np.array([1.0]), u0, FREE,
                       OptimizerConfig(grad_tol=1e-12, max_iters=2))
        assert res.status == "max_iters"
        assert res.iterations == 2


class TestMinimizeAgainstRiccati:
    def test_scalar_lq_matches_riccati_oracle(self):
        # eta = 0 keeps the observation pairing off, so the discrete problem
        # is the classical LQ regulator; the Riccati solution is the oracle.
        a, q, r, T, n = -1.0, 1.0, 1.0, 1.0, 1024
        model, cost = scalar_lq(a, q, r)
        grid = TimeGrid(T, n)
        xi = np.array([1.3])
        u0 = SampledPath.zeros(grid, 1)
        res = minimize(model, cost, zero_eta(grid), xi, u0, FREE,
                       OptimizerConfig(grad_tol=1e-4, max_iters=2000))
        P = riccati_lq(a, q, r, T, n)
        V = 0.5 * P[0] * xi[0] ** 2
        assert res.status == "converged"
        assert res.final_cost == pytest.approx(V, abs=2e-4 * (1 + abs(V)))
        # costate matches lambda = P x along the optimal trajectory
        lam_oracle = P * res.triple.x.values[:, 0]
        gap = np.max(np.abs(res.triple.lam.values[:, 0] - lam_oracle))
        assert gap < 5e-3
        assert res.mp_residual < 1e-6

    def test_grad_norm_trace_recorded(self):
        model, cost = scalar_lq()
        grid = TimeGrid(1.0, 64)
        u0 = SampledPath.zeros(grid, 1)
        res = minimize(model, cost, zero_eta(grid), np.array([1.0]), u0, FREE,
                       OptimizerConfig(grad_tol=1e-3))
        assert res.status == "converged"
        assert len(res.grad_norm_trace) == res.iterations
        assert res.grad_norm_trace[-1] < 1e-3

    def test_result_final_cost_property(self):
        model, cost = scalar_lq()
        grid = TimeGrid(1.0, 32)
        u0 = SampledPath.zeros(grid, 1)
        res = minimize(model, cost, zero_eta(grid), np.array([1.0]), u0, FREE,
                       OptimizerConfig(grad_tol=1e-3))
        assert isinstance(res, AssimilationResult)
        assert res.final_cost == res.cost_trace[-1]
