from dataclasses import replace

import numpy as np
import pytest

from roughassim.adjoint import (
    OptimalTriple,
    control_gradient,
    duality_check,
    hamiltonian,
    max_principle_residual,
    pointwise_hamiltonian_minimizer,
    solve_costate,
)
from roughassim.cost import QuadraticCostSpec, build_minimum_energy, coordinate_observation
from roughassim.dynamics import integrate_state, linear_model, lorenz63_model
from roughassim.errors import GridMismatchError, InvalidParameterError
from roughassim.grid import SampledPath, TimeGrid
from roughassim.optimizer import ControlSetSpec
from roughassim.roughpath import sample_wiener

from conftest import zero_eta
from oracles import cost_central_difference


def scalar_cost(R=1.0, S=1.0):
    h, h_jac = coordinate_observation([0], 1)
    return build_minimum_energy(
        QuadraticCostSpec(h=h, h_jac=h_jac, R=R * np.eye(1), S=S * np.eye(1))
    )


class TestSolveCostate:
    def test_zero_forcing_gives_zero_costate(self):
        # R = 0 removes both D2phi and the Young forcing, so lambda stays 0.
        model = lorenz63_model()
        grid = TimeGrid(1.0, 128)
        h, h_jac = coordinate_observation([0, 1, 2], 3)
        cost = build_minimum_energy(
            QuadraticCostSpec(h=h, h_jac=h_jac, R=np.zeros((3, 3)), S=np.eye(3))
        )
        u = SampledPath.zeros(grid, 3)
        x = integrate_state(model, u, np.array([1.0, 1.0, 25.0]), grid)
        lam = solve_costate(model, cost, x, u, zero_eta(grid, 3))
        assert np.max(np.abs(lam.values)) == 0.0

    def test_terminal_condition(self, lorenz_twin):
        model, grid, cost, xi, truth, eta = lorenz_twin
        u = SampledPath.zeros(grid, 3)
        lam = solve_costate(model, cost, truth, u, eta)
        assert np.allclose(lam.values[-1], 0.0)

    def test_scalar_linear_closed_form(self):
        # Frozen state x = c with drift matrix a = -1 and eta = 0 gives
        # lambda' = lambda - c, lambda(T) = 0  =>  lambda(t) = c (1 - e^{t-T}).
        a, c, T, n = -1.0, 2.0, 1.0, 4096
        model = linear_model([[a]])
        grid = TimeGrid(T, n)
        cost = scalar_cost()
        x = SampledPath(grid, np.full((grid.n_nodes, 1), c))
        u = SampledPath.zeros(grid, 1)
        lam = solve_costate(model, cost, x, u, zero_eta(grid))
        exact = c * (1.0 - np.exp(grid.times - T))
        assert np.max(np.abs(lam.values[:, 0] - exact)) < 1e-6

    def test_young_forcing_is_pure_observation_sum(self):
        # f = 0, R = 1, x = 0: lambda' = 0 so lambda(t_i) = sum of
        # D2psi deta over later steps = -(eta(T) - eta(t_i)).
        model = linear_model([[0.0]])
        grid = TimeGrid(1.0, 64)
        cost = scalar_cost()
        x = SampledPath.zeros(grid, 1)
        u = SampledPath.zeros(grid, 1)
        w = sample_wiener(grid, 1, seed=2)
        lam = solve_costate(model, cost, x, u, w)
        exact = -(w.values[-1, 0] - w.values[:, 0])
        assert np.max(np.abs(lam.values[:, 0] - exact)) < 1e-12

    def test_grid_mismatch_rejected(self):
        model = linear_model([[0.0]])
        cost = scalar_cost()
        x = SampledPath.zeros(TimeGrid(1.0, 8), 1)
        u = SampledPath.zeros(TimeGrid(1.0, 16), 1)
        with pytest.raises(GridMismatchError):
            solve_costate(model, cost, x, u, zero_eta(TimeGrid(1.0, 8)))


class TestHamiltonianPieces:
    def test_hamiltonian_value(self):
        model = linear_model([[-1.0]])
        cost = scalar_cost()
        x, lam, v = np.array([2.0]), np.array([3.0]), np.array([0.5])
        # phi = 2 + 0.125, drift = -2 + 0.5
        assert hamiltonian(cost, model, 0.0, x, lam, v) == pytest.approx(
            2.125 + 3.0 * (-1.5)
        )

    def test_control_gradient_formula(self):
        model = linear_model([[-1.0]])
        grid = TimeGrid(1.0, 4)
        cost = scalar_cost(S=2.0)
        x = SampledPath(grid, np.ones((grid.n_nodes, 1)))
        u = SampledPath(grid, 0.5 * np.ones((grid.n_nodes, 1)))
        lam = SampledPath(grid, 3.0 * np.ones((grid.n_nodes, 1)))
        G = control_gradient(model, cost, x, u, lam)
        # D3phi = S u = 1.0; lambda g = 3.0 (g = I)
        assert np.allclose(G.values, 4.0)

    def test_closed_form_minimizer_zeroes_gradient(self):
        model = lorenz63_model()
        h, h_jac = coordinate_observation([0, 1, 2], 3)
        cost = build_minimum_energy(QuadraticCostSpec(
            h=h, h_jac=h_jac, R=np.eye(3), S=2.5 * np.eye(3),
        ))
        rng = np.random.default_rng(0)
        x, lam = rng.normal(size=3), rng.normal(size=3)
        ustar = pointwise_hamiltonian_minimizer(cost, model, 0.0, x, lam, ControlSetSpec())
        grad = cost.D3phi(0.0, x, ustar) + lam @ model.g(0.0, x)
        assert np.max(np.abs(grad)) < 1e-12

    def test_minimizer_requires_quadratic_structure(self):
        from roughassim.cost import CostSpec

        cost = CostSpec(
            phi=lambda t, x, u: float(u @ u),
            D2phi=lambda t, x, u: np.zeros(1),
            D3phi=lambda t, x, u: 2 * u,
            psi=lambda t, x: np.zeros(1),
            D2psi=lambda t, x: np.zeros((1, 1)),
        )
        model = linear_model([[0.0]])
        with pytest.raises(InvalidParameterError):
            pointwise_hamiltonian_minimizer(
                cost, model, 0.0, np.zeros(1), np.zeros(1), ControlSetSpec()
            )


class TestMaxPrincipleResidual:
    def _triple(self, grid, uval, lamval):
        x = SampledPath.zeros(grid, 1)
        u = SampledPath(grid, np.full((grid.n_nodes, 1), uval))
        lam = SampledPath(grid, np.full((grid.n_nodes, 1), lamval))
        return OptimalTriple(x=x, u=u, lam=lam)

    def test_exact_minimizer_has_zero_residual(self):
        # With S = s, g = I: u* = -lam/s makes the residual exactly 0.
        model = linear_model([[-1.0]])
        cost = scalar_cost(S=2.0)
        grid = TimeGrid(1.0, 8)
        triple = self._triple(grid, uval=-1.5, lamval=3.0)
        residual = max_principle_residual(triple, cost, model, ControlSetSpec())
        assert residual == pytest.approx(0.0, abs=1e-14)

    def test_perturbed_control_residual_quadratic_in_offset(self):
        # H(u* + d) - H(u*) = s d^2 / 2 exactly for the quadratic family.
        model = linear_model([[-1.0]])
        s = 2.0
        cost = scalar_cost(S=s)
        grid = TimeGrid(1.0, 8)
        for d in (0.1, 0.5, 2.0):
            triple = self._triple(grid, uval=-1.5 + d, lamval=3.0)
            assert max_principle_residual(triple, cost, model, ControlSetSpec()) == pytest.approx(
                0.5 * s * d * d, abs=1e-12
            )

    def test_sampled_probe_bounded_by_closed_form(self):
        # Without cost.quad the minimum is probed by MP_PROBE_SAMPLES samples.
        model = linear_model([[-1.0]])
        cost = scalar_cost(S=2.0)
        grid = TimeGrid(1.0, 8)
        triple = self._triple(grid, uval=0.0, lamval=3.0)
        exact = max_principle_residual(triple, cost, model, ControlSetSpec())
        sampled = max_principle_residual(triple, replace(cost, quad=None), model, ControlSetSpec())
        assert sampled <= exact + 1e-12
        assert sampled >= 0.5 * exact  # sampling finds most of the gap


class TestDualityCheck:
    def test_zero_coefficient_is_exact(self):
        grid = TimeGrid(1.0, 64)
        M = SampledPath(grid, np.zeros((grid.n_nodes, 1, 1)))
        a = sample_wiener(grid, 1, seed=0)
        b = sample_wiener(grid, 1, seed=1)
        res = duality_check(M, a, b, zeta0=np.array([1.3]), lambdaT=np.array([-0.7]))
        assert res < 1e-12

    def test_smooth_coefficient_residual_refines(self):
        residuals = []
        for n in (128, 256):
            grid = TimeGrid(1.0, n)
            Mv = (0.5 * np.sin(2 * np.pi * grid.times)).reshape(-1, 1, 1)
            M = SampledPath(grid, Mv)
            a = SampledPath.from_function(grid, lambda t: np.sin(3 * t))
            b = SampledPath.from_function(grid, lambda t: np.cos(2 * t))
            residuals.append(duality_check(M, a, b, np.array([1.0]), np.array([0.5])))
        assert residuals[1] < 0.5 * residuals[0]

    def test_rough_drivers_stay_small(self):
        grid = TimeGrid(1.0, 512)
        M = SampledPath(grid, 0.3 * np.ones((grid.n_nodes, 1, 1)))
        a = sample_wiener(grid, 1, seed=4)
        b = sample_wiener(grid, 1, seed=5)
        assert duality_check(M, a, b, np.array([1.0]), np.array([1.0])) < 5e-2


class TestGradientFdGap:
    def test_smooth_problem_small_gap(self):
        # Decoupled-from-observation scalar problem: gap is pure quadrature.
        model = linear_model([[-1.0]])
        grid = TimeGrid(0.5, 2048)
        cost = scalar_cost()
        rng = np.random.default_rng(6)
        u = SampledPath(grid, rng.normal(size=(grid.n_nodes, 1)))
        xi, eta, node = np.array([1.0]), zero_eta(grid), grid.n_steps // 2
        fd = cost_central_difference(model, cost, u, xi, eta, node, 0, 1e-5)
        x = integrate_state(model, u, xi, grid)
        lam = solve_costate(model, cost, x, u, eta)
        adjoint = grid.dt * control_gradient(model, cost, x, u, lam).values[node, 0]
        rel_gap = abs(fd - adjoint) / max(abs(fd), abs(adjoint), 1e-12)
        assert rel_gap < 1e-2
        assert np.sign(fd) == np.sign(adjoint)
