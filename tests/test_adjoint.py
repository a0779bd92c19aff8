import warnings
from dataclasses import replace

import numpy as np
import pytest

from roughassim.adjoint import (
    OptimalTriple,
    control_gradient,
    costate_sweep,
    duality_check,
    hamiltonian,
    max_principle_residual,
    pointwise_hamiltonian_minimizer,
    solve_costate,
)
from roughassim.cost import QuadraticCostSpec, build_minimum_energy, coordinate_observation
from roughassim.dynamics import integrate_state, linear_model, lorenz63_model
from roughassim.errors import InvalidSpecError
from roughassim.grid import SampledPath, TimeGrid
from roughassim.problem import AssimilationProblem, ControlSetSpec
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
        lam = solve_costate(AssimilationProblem(model, cost, zero_eta(grid, 3)), x, u)
        assert np.max(np.abs(lam.values)) == 0.0

    def test_terminal_condition(self, lorenz_twin):
        problem, xi, truth = lorenz_twin
        u = SampledPath.zeros(problem.eta.grid, 3)
        lam = solve_costate(problem, truth, u)
        assert np.allclose(lam.values[-1], 0.0)

    def test_state_and_control_widths_checked(self, lorenz_twin):
        # No built-in model reads u in the sweep, so a 2-component control
        # went through unnoticed, and a 2-component state failed in numpy.
        problem, xi, truth = lorenz_twin
        grid = problem.eta.grid
        u, narrow_u = SampledPath.zeros(grid, 3), SampledPath.zeros(grid, 2)
        narrow_x = SampledPath(grid, truth.values[:, :2])
        for x, u, name in ((truth, narrow_u, "control"), (narrow_x, u, "state")):
            message = f"{name} has 2 components, not 3"
            with pytest.raises(InvalidSpecError, match=message):
                solve_costate(problem, x, u)
            with pytest.raises(InvalidSpecError, match=message):
                costate_sweep(problem, np.stack([x.values] * 2), np.stack([u.values] * 2))

    def test_scalar_linear_closed_form(self):
        # Frozen state x = c with drift matrix a = -1 and eta = 0 gives
        # lambda' = lambda - c, lambda(T) = 0  =>  lambda(t) = c (1 - e^{t-T}).
        a, c, T, n = -1.0, 2.0, 1.0, 4096
        model = linear_model([[a]])
        grid = TimeGrid(T, n)
        cost = scalar_cost()
        x = SampledPath(grid, np.full((grid.n_nodes, 1), c))
        u = SampledPath.zeros(grid, 1)
        lam = solve_costate(AssimilationProblem(model, cost, zero_eta(grid)), x, u)
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
        lam = solve_costate(AssimilationProblem(model, cost, w), x, u)
        exact = -(w.values[-1, 0] - w.values[:, 0])
        assert np.max(np.abs(lam.values[:, 0] - exact)) < 1e-12

    def test_grid_mismatch_rejected(self):
        model = linear_model([[0.0]])
        cost = scalar_cost()
        x = SampledPath.zeros(TimeGrid(1.0, 8), 1)
        u = SampledPath.zeros(TimeGrid(1.0, 16), 1)
        problem = AssimilationProblem(model, cost, zero_eta(TimeGrid(1.0, 8)))
        with pytest.raises(InvalidSpecError):
            solve_costate(problem, x, u)


def pointwise_problem(model, cost, d=1):
    """A problem for the pointwise functions, which read no observation."""
    return AssimilationProblem(model, cost, zero_eta(TimeGrid(1.0, 4), d))


class TestHamiltonianPieces:
    def test_hamiltonian_value(self):
        problem = pointwise_problem(linear_model([[-1.0]]), scalar_cost())
        x, lam, v = np.array([2.0]), np.array([3.0]), np.array([0.5])
        # phi = 2 + 0.125, drift = -2 + 0.5
        assert hamiltonian(problem, 0.0, x, lam, v) == pytest.approx(
            2.125 + 3.0 * (-1.5)
        )

    def test_control_gradient_formula(self):
        problem = pointwise_problem(linear_model([[-1.0]]), scalar_cost(S=2.0))
        grid = problem.eta.grid
        x = SampledPath(grid, np.ones((grid.n_nodes, 1)))
        u = SampledPath(grid, 0.5 * np.ones((grid.n_nodes, 1)))
        lam = SampledPath(grid, 3.0 * np.ones((grid.n_nodes, 1)))
        G = control_gradient(problem, x, u, lam)
        # D3phi = S u = 1.0; lambda G = 3.0 (G = I)
        assert np.allclose(G.values, 4.0)

    def test_closed_form_minimizer_zeroes_gradient(self):
        model = lorenz63_model()
        h, h_jac = coordinate_observation([0, 1, 2], 3)
        cost = build_minimum_energy(QuadraticCostSpec(
            h=h, h_jac=h_jac, R=np.eye(3), S=2.5 * np.eye(3),
        ))
        rng = np.random.default_rng(0)
        x, lam = rng.normal(size=3), rng.normal(size=3)
        ustar = pointwise_hamiltonian_minimizer(pointwise_problem(model, cost, 3), 0.0, x, lam)
        grad = cost.D3phi(0.0, x, ustar) + lam @ model.G
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
        problem = pointwise_problem(linear_model([[0.0]]), cost)
        with pytest.raises(InvalidSpecError):
            pointwise_hamiltonian_minimizer(problem, 0.0, np.zeros(1), np.zeros(1))


# The CI ``matrix`` twin's control weight.
MATRIX_S = [[50.0, 5.0, 0.0], [5.0, 40.0, 0.0], [0.0, 0.0, 60.0]]

CONTROL_SETS = [
    ControlSetSpec(),
    ControlSetSpec(kind="box", lo=-0.05, hi=0.05),
    ControlSetSpec(kind="ball", radius=0.1),
]


def matrix_problem(control_set, seed=3):
    """Four states, three controls through a random G, the matrix S."""
    rng = np.random.default_rng(seed)
    model = linear_model(rng.normal(size=(4, 4)), rng.normal(size=(4, 3)))
    h, h_jac = coordinate_observation([0, 2], 4)
    quad = QuadraticCostSpec(h=h, h_jac=h_jac, R=np.eye(2), S=MATRIX_S)
    grid = TimeGrid(1.0, 63)
    return AssimilationProblem(model, build_minimum_energy(quad), zero_eta(grid, 2), control_set)


class TestControlGain:
    """The minimizer applies one gain -S^{-1} G', solved once per problem."""

    @pytest.mark.parametrize("control_set", CONTROL_SETS, ids=lambda c: c.kind)
    def test_minimizer_matches_the_solve(self, control_set):
        problem = matrix_problem(control_set)
        lam = np.random.default_rng(4).normal(size=(64, 4)) * 10.0
        raw = -np.linalg.solve(problem.cost.quad.S, (lam @ problem.model.G).T).T
        ref = control_set.project_values(raw)
        u = pointwise_hamiltonian_minimizer(problem, 0.0, np.zeros(4), lam)
        gap = np.linalg.norm(u - ref, axis=1)
        assert np.all(gap <= 1e-14 * np.linalg.norm(ref, axis=1))

    def test_gain_is_solved_once(self, monkeypatch):
        problem = matrix_problem(ControlSetSpec())
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
        grid = problem.eta.grid
        lam = np.ones((grid.n_nodes, 4))
        for _ in range(3):
            pointwise_hamiltonian_minimizer(problem, grid.times, np.zeros((grid.n_nodes, 4)), lam)
        assert len(solves) == 1
        assert problem.control_gain.shape == (3, 4)
        assert not problem.control_gain.flags.writeable


class TestMaxPrincipleResidual:
    def _triple(self, grid, uval, lamval):
        x = SampledPath.zeros(grid, 1)
        u = SampledPath(grid, np.full((grid.n_nodes, 1), uval))
        lam = SampledPath(grid, np.full((grid.n_nodes, 1), lamval))
        return OptimalTriple(x=x, u=u, lam=lam)

    def test_exact_minimizer_has_zero_residual(self):
        # With S = s, g = I: u* = -lam/s makes the residual exactly 0.
        grid = TimeGrid(1.0, 8)
        problem = AssimilationProblem(linear_model([[-1.0]]), scalar_cost(S=2.0), zero_eta(grid))
        triple = self._triple(grid, uval=-1.5, lamval=3.0)
        residual = max_principle_residual(triple, problem)
        assert residual == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("control_set", CONTROL_SETS, ids=lambda c: c.kind)
    def test_residual_at_the_minimizer_is_exactly_zero(self, control_set):
        problem = matrix_problem(control_set)
        grid = problem.eta.grid
        rng = np.random.default_rng(5)
        x, lam = (SampledPath(grid, rng.normal(size=(grid.n_nodes, 4))) for _ in range(2))
        ustar = pointwise_hamiltonian_minimizer(problem, grid.times, x.values, lam.values)
        triple = OptimalTriple(x=x, u=SampledPath(grid, ustar), lam=lam)
        assert max_principle_residual(triple, problem) == 0.0

    def test_perturbed_control_residual_quadratic_in_offset(self):
        # H(u* + d) - H(u*) = s d^2 / 2 exactly for the quadratic family.
        s = 2.0
        grid = TimeGrid(1.0, 8)
        problem = AssimilationProblem(linear_model([[-1.0]]), scalar_cost(S=s), zero_eta(grid))
        for d in (0.1, 0.5, 2.0):
            triple = self._triple(grid, uval=-1.5 + d, lamval=3.0)
            assert max_principle_residual(triple, problem) == pytest.approx(
                0.5 * s * d * d, abs=1e-12
            )

    def test_sampled_probe_bounded_by_closed_form(self):
        # Without cost.quad the minimum is probed by MP_PROBE_SAMPLES samples.
        grid = TimeGrid(1.0, 8)
        cost = scalar_cost(S=2.0)
        problem = AssimilationProblem(linear_model([[-1.0]]), cost, zero_eta(grid))
        triple = self._triple(grid, uval=0.0, lamval=3.0)
        exact = max_principle_residual(triple, problem)
        sampled = max_principle_residual(triple, replace(problem, cost=replace(cost, quad=None)))
        assert sampled <= exact + 1e-12
        assert sampled >= 0.5 * exact  # sampling finds most of the gap


class TestDualityCheck:
    def test_zero_coefficient_is_exact(self):
        grid = TimeGrid(1.0, 64)
        M = np.zeros((grid.n_nodes, 1, 1))
        a = sample_wiener(grid, 1, seed=0)
        b = sample_wiener(grid, 1, seed=1)
        res = duality_check(M, a, b, zeta0=np.array([1.3]), lambdaT=np.array([-0.7]))
        assert res < 1e-12

    def test_smooth_coefficient_residual_refines(self):
        residuals = []
        for n in (128, 256):
            grid = TimeGrid(1.0, n)
            M = (0.5 * np.sin(2 * np.pi * grid.times)).reshape(-1, 1, 1)
            a = SampledPath(grid, np.sin(3 * grid.times))
            b = SampledPath(grid, np.cos(2 * grid.times))
            residuals.append(duality_check(M, a, b, np.array([1.0]), np.array([0.5])))
        assert residuals[1] < 0.5 * residuals[0]

    def test_rough_drivers_stay_small(self):
        grid = TimeGrid(1.0, 512)
        M = 0.3 * np.ones((grid.n_nodes, 1, 1))
        a = sample_wiener(grid, 1, seed=4)
        b = sample_wiener(grid, 1, seed=5)
        assert duality_check(M, a, b, np.array([1.0]), np.array([1.0])) < 5e-2

    def test_overflowing_products_read_non_finite_without_warnings(self):
        # A finite coefficient whose Heun products overflow a float.
        grid = TimeGrid(1.0, 4)
        a = SampledPath(grid, [0.0, 1.0, 0.0, 1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = duality_check(np.full((5, 1, 1), 1e308), a, a, np.array([1.0]), np.array([1.0]))
        assert not np.isfinite(res)

    @pytest.mark.parametrize("nodes", [64, 66])
    def test_coefficient_on_another_grid_rejected(self, nodes):
        grid = TimeGrid(1.0, 64)
        a = sample_wiener(grid, 1, seed=4)
        b = sample_wiener(grid, 1, seed=5)
        with pytest.raises(InvalidSpecError):
            duality_check(np.zeros((nodes, 1, 1)), a, b, np.array([1.0]), np.array([1.0]))


class TestGradientFdGap:
    def test_smooth_problem_small_gap(self):
        # Decoupled-from-observation scalar problem: gap is pure quadrature.
        grid = TimeGrid(0.5, 2048)
        problem = AssimilationProblem(linear_model([[-1.0]]), scalar_cost(), zero_eta(grid))
        rng = np.random.default_rng(6)
        u = SampledPath(grid, rng.normal(size=(grid.n_nodes, 1)))
        xi, node = np.array([1.0]), grid.n_steps // 2
        fd = cost_central_difference(problem, u, xi, node, 0, 1e-5)
        x = integrate_state(problem.model, u, xi, grid)
        lam = solve_costate(problem, x, u)
        adjoint = grid.dt * control_gradient(problem, x, u, lam).values[node, 0]
        rel_gap = abs(fd - adjoint) / max(abs(fd), abs(adjoint), 1e-12)
        assert rel_gap < 1e-2
        assert np.sign(fd) == np.sign(adjoint)
