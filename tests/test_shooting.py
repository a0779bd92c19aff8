import numpy as np
import pytest

from oracles import riccati_lq
from roughassim.dynamics import integrate_state
from roughassim.errors import InvalidSpecError, NoConvergenceError
from roughassim.grid import SampledPath, TimeGrid
from roughassim.optimizer import ControlSetSpec, OptimizerConfig, minimize
from roughassim import shooting
from roughassim.shooting import integrate_hamiltonian, shoot, value_probe

from conftest import make_lorenz_twin, scalar_lq, zero_eta


class TestIntegrateHamiltonian:
    def test_terminal_map_is_affine_in_lambda0(self):
        # For a linear model with quadratic cost the map lambda0 -> lambda(T)
        # is affine; three collinear probes must land on a line.
        model, cost = scalar_lq()
        grid = TimeGrid(1.0, 256)
        eta = zero_eta(grid)
        xi = np.array([1.0])
        ends = []
        for l0 in (0.0, 1.0, 2.0):
            _, ls, _ = integrate_hamiltonian(model, cost, eta, xi, np.array([l0]))
            ends.append(ls.values[-1, 0])
        assert ends[2] - ends[1] == pytest.approx(ends[1] - ends[0], abs=1e-6)

    def test_control_is_closed_form_minimizer(self):
        model, cost = scalar_lq(r=2.0)
        grid = TimeGrid(0.5, 128)
        eta = zero_eta(grid)
        xs, ls, us = integrate_hamiltonian(model, cost, eta, np.array([1.0]), np.array([0.3]))
        assert np.allclose(us.values, -ls.values / 2.0)

    def test_control_set_projection_applied(self):
        model, cost = scalar_lq()
        grid = TimeGrid(0.5, 64)
        box = ControlSetSpec(kind="box", lo=np.array([-0.05]), hi=np.array([0.05]))
        _, _, us = integrate_hamiltonian(
            model, cost, zero_eta(grid), np.array([1.0]), np.array([2.0]), box
        )
        assert box.contains(us.values, tol=1e-12)

    def test_state_uses_the_integrate_state_stepper(self):
        # Replaying the eliminated control through integrate_state must
        # reproduce the Hamiltonian state bit for bit: one RK4 step for both.
        model, grid, cost, xi, truth, eta = make_lorenz_twin(n_steps=256, T=0.25)
        xs, _, us = integrate_hamiltonian(model, cost, eta, xi, np.array([0.5, -0.2, 0.1]))
        assert np.max(np.abs(us.values)) > 0.1
        replay = integrate_state(model, us, xi, grid)
        assert np.array_equal(xs.values, replay.values)


class TestShoot:
    def test_matches_riccati_oracle(self):
        a, q, r, T, n = -1.0, 1.0, 1.0, 1.0, 1024
        model, cost = scalar_lq(a, q, r)
        grid = TimeGrid(T, n)
        xi = np.array([1.3])
        triple = shoot(model, cost, zero_eta(grid), xi)
        P = riccati_lq(a, q, r, T, n)
        lam_oracle = P * triple.x.values[:, 0]
        assert np.max(np.abs(triple.lam.values[:, 0] - lam_oracle)) < 5e-4
        assert abs(triple.lam.values[-1, 0]) < 1e-9
        from roughassim.cost import eval_cost

        V = 0.5 * P[0] * xi[0] ** 2
        assert eval_cost(cost, triple.x, triple.u, zero_eta(grid)) == pytest.approx(
            V, abs=2e-4
        )

    def test_agrees_with_gradient_solver_on_rough_problem(self):
        model, grid, cost, xi, truth, eta = make_lorenz_twin(n_steps=256, T=0.5, S=50.0)
        triple = shoot(model, cost, eta, xi)
        from roughassim.cost import eval_cost

        v_shoot = eval_cost(cost, triple.x, triple.u, eta)
        res = minimize(model, cost, eta, xi, SampledPath.zeros(grid, 3),
                       ControlSetSpec(), OptimizerConfig(grad_tol=2e-2, max_iters=400))
        assert abs(v_shoot - res.final_cost) < 1e-2 * (1 + abs(v_shoot))
        # initial costates agree across the two formulations
        assert np.max(np.abs(triple.lam.values[0] - res.triple.lam.values[0])) < 5e-2

    def test_nonconvergence_raises_with_residual(self, monkeypatch):
        model, cost = scalar_lq(a=3.0)  # unstable drift over a long window
        grid = TimeGrid(6.0, 512)
        monkeypatch.setattr(shooting, "NEWTON_MAX_ITERS", 2)
        monkeypatch.setattr(shooting, "NEWTON_TOL", 1e-14)
        with pytest.raises(NoConvergenceError) as err:
            shoot(model, cost, zero_eta(grid), np.array([1.0]))
        assert err.value.best_residual >= 0.0 or np.isinf(err.value.best_residual)


class TestValueProbe:
    def test_zero_cost_problem_has_zero_gradient(self):
        # q = 0 and eta = 0: the optimum is u = 0 with V(xi) = 0 for all xi.
        model, cost = scalar_lq(q=0.0)
        grid = TimeGrid(1.0, 128)
        out = value_probe(model, cost, zero_eta(grid), np.array([1.0]), h=1e-3)
        assert abs(out["value"]) < 1e-12
        assert out["max_abs_gap"] < 1e-9

    def test_scalar_lq_sensitivity_identity(self):
        a, q, r, T, n = -1.0, 1.0, 1.0, 1.0, 2048
        model, cost = scalar_lq(a, q, r)
        grid = TimeGrid(T, n)
        xi = np.array([1.3])
        out = value_probe(model, cost, zero_eta(grid), xi, h=1e-4)
        P = riccati_lq(a, q, r, T, n)
        # dV/dxi = P(0) xi = lambda(0)
        assert out["lambda0"][0] == pytest.approx(P[0] * xi[0], abs=2e-3)
        assert out["max_abs_gap"] < 1e-3

    def test_gradient_solver_sensitivity_identity(self):
        # The same problem through projected gradient; the default grad_tol
        # sits below the Heun-costate gradient floor at this N, so the
        # solve stops at 1e-4.
        model, cost = scalar_lq(-1.0, 1.0, 1.0)
        grid = TimeGrid(1.0, 2048)
        out = value_probe(model, cost, zero_eta(grid), np.array([1.3]), h=1e-4,
                          solver="gradient",
                          opt_config=OptimizerConfig(grad_tol=1e-4, max_iters=3000))
        assert out["max_abs_gap"] < 1e-3

    def test_gradient_solver_rejects_unconverged_solves(self):
        # One iteration ends at max_iters, far from the optimum: its cost is
        # not a value, so no gap may be reported from it.
        model, cost = scalar_lq(a=1.0)
        grid = TimeGrid(1.0, 256)
        with pytest.raises(NoConvergenceError, match="max_iters"):
            value_probe(model, cost, zero_eta(grid), np.array([1.0]), h=1e-4,
                        solver="gradient",
                        opt_config=OptimizerConfig(max_iters=1, grad_tol=1e-4))

    def test_invalid_arguments(self):
        model, cost = scalar_lq()
        grid = TimeGrid(0.5, 16)
        with pytest.raises(InvalidSpecError):
            value_probe(model, cost, zero_eta(grid), np.array([1.0]), h=0.0)
        with pytest.raises(InvalidSpecError):
            value_probe(model, cost, zero_eta(grid), np.array([1.0]), h=1e-4,
                        solver="newton")


@pytest.mark.parametrize("solve", [
    pytest.param(lambda m, c, eta, xi: shoot(m, c, eta, xi), id="shoot"),
    pytest.param(lambda m, c, eta, xi: value_probe(m, c, eta, xi, h=1e-4), id="value_probe"),
    pytest.param(lambda m, c, eta, xi: integrate_hamiltonian(m, c, eta, xi, np.zeros(3)),
                 id="integrate_hamiltonian"),
    pytest.param(lambda m, c, eta, lam0: integrate_hamiltonian(m, c, eta, np.ones(3), lam0),
                 id="integrate_hamiltonian-costate"),
])
def test_initial_state_shape_checked(solve):
    # A 2-vector start (or initial costate) for Lorenz'63 is a spec error, as
    # in integrate_state.
    model, grid, cost, xi, truth, eta = make_lorenz_twin(n_steps=16, T=0.1)
    with pytest.raises(InvalidSpecError, match=r"initial (state|costate) must have shape \(3,\)"):
        solve(model, cost, eta, np.array([1.0, 25.0]))
