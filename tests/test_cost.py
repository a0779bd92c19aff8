import warnings

import numpy as np
import pytest

from roughassim.adjoint import pointwise_hamiltonian_minimizer
from roughassim.cost import (
    QuadraticCostSpec,
    build_minimum_energy,
    build_onsager_machlup,
    coordinate_observation,
    eval_cost,
    eval_cost_by_parts,
)
from roughassim.dynamics import ModelSpec, integrate_state, linear_model, lorenz63_model
from roughassim.errors import BlowUpError, InvalidSpecError
from roughassim.grid import SampledPath, TimeGrid
from roughassim.problem import AssimilationProblem
from roughassim.roughpath import sample_wiener

from conftest import make_lorenz_twin


def quad_spec(obs_dim=1, control_dim=1, R=1.0, S=1.0, state_dim=None):
    state_dim = state_dim or obs_dim
    h, h_jac = coordinate_observation(list(range(obs_dim)), state_dim)
    return QuadraticCostSpec(h=h, h_jac=h_jac, R=R * np.eye(obs_dim), S=S * np.eye(control_dim))


class TestQuadraticCostSpec:
    def test_validates_S_positive_definite(self):
        h, h_jac = coordinate_observation([0], 1)
        with pytest.raises(InvalidSpecError):
            QuadraticCostSpec(h=h, h_jac=h_jac, R=np.eye(1), S=np.zeros((1, 1)))

    def test_validates_R_nonnegative(self):
        h, h_jac = coordinate_observation([0], 1)
        with pytest.raises(InvalidSpecError):
            QuadraticCostSpec(h=h, h_jac=h_jac, R=-np.eye(1), S=np.eye(1))

    def test_weights_kept_as_read_only_float_copies(self):
        R, S = 3 * np.eye(2, dtype=int), 2.0 * np.eye(2)
        h, h_jac = coordinate_observation([0, 1], 2)
        q = QuadraticCostSpec(h=h, h_jac=h_jac, R=R, S=S)
        assert q.R.dtype == float and np.array_equal(q.R, R) and np.array_equal(q.S, S)
        assert q.R is not R and q.S is not S
        for M in (q.R, q.S):
            with pytest.raises(ValueError, match="read-only"):
                M[0, 0] = -4.0

    def test_weight_mutated_after_construction_changes_nothing(self):
        # phi at S = I stays positive; the caller's S set to -4 would make it negative.
        h, h_jac = coordinate_observation([0, 2], 3)
        R, S = np.eye(2), np.eye(3)
        problem = AssimilationProblem(
            lorenz63_model(), build_minimum_energy(QuadraticCostSpec(h, h_jac, R, S)),
            SampledPath.zeros(TimeGrid(1.0, 4), 2),
        )
        t, x = np.linspace(0.0, 1.0, 5), np.ones((5, 3))
        u, lam = np.full((5, 3), 0.5), np.full((5, 3), 2.0)
        before = (problem.cost.phi(t, x, u), pointwise_hamiltonian_minimizer(problem, t, x, lam))
        R[...], S[...] = 0.0, -4.0
        after = (problem.cost.phi(t, x, u), pointwise_hamiltonian_minimizer(problem, t, x, lam))
        assert np.all(before[0] > 0)
        for b, a in zip(before, after):
            assert np.array_equal(a, b)

    def test_dimensions_are_the_sizes_of_R_and_S(self):
        q = quad_spec(obs_dim=2, control_dim=3, state_dim=3)
        assert (q.obs_dim, q.control_dim) == (2, 3)

    @pytest.mark.parametrize("R, S", [
        pytest.param(np.ones((1, 2)), np.eye(1), id="R-1x2"),
        pytest.param(np.eye(1), np.ones((2, 1)), id="S-2x1"),
        pytest.param(1.0, np.eye(1), id="R-scalar"),
        pytest.param(np.eye(1), lambda t: np.ones(2), id="S-callable-vector"),
        pytest.param(lambda t: np.eye(1), np.eye(1), id="R-callable"),
        pytest.param(np.eye(1), [[1.0], [1.0, 2.0]], id="S-ragged"),
        pytest.param([[np.nan]], np.eye(1), id="R-nan"),
        pytest.param(np.eye(1), [[np.inf]], id="S-inf"),
    ])
    def test_validates_R_and_S_square(self, R, S):
        h, h_jac = coordinate_observation([0], 1)
        with pytest.raises(InvalidSpecError, match="square"):
            QuadraticCostSpec(h=h, h_jac=h_jac, R=R, S=S)

    def test_onsager_machlup_metric_must_match_the_controls(self):
        # A 1x2 G: (G G')^-1 is 1x1, but the model has two controls.
        model = linear_model([[-1.0]], [[1.0, 1.0]])
        q = quad_spec(control_dim=2)
        with pytest.raises(InvalidSpecError, match="2 controls"):
            build_onsager_machlup(q, model)

    def test_coordinate_observation_bounds(self):
        with pytest.raises(InvalidSpecError):
            coordinate_observation([0, 5], 3)


class TestMinimumEnergy:
    def test_lorenz_first_coordinate_form(self):
        # h = x1, R = 1, S = I gives phi = x1^2/2 + |u|^2/2 and psi = -x1.
        h, h_jac = coordinate_observation([0], 3)
        q = QuadraticCostSpec(h=h, h_jac=h_jac, R=np.eye(1), S=np.eye(3))
        cost = build_minimum_energy(q)
        x = np.array([2.0, -1.0, 5.0])
        u = np.array([1.0, 2.0, 2.0])
        assert cost.phi(0.0, x, u) == pytest.approx(0.5 * 4.0 + 0.5 * 9.0)
        assert np.allclose(cost.psi(0.0, x), [-2.0])

    def test_R_zero_switches_off_observation(self):
        q = quad_spec(R=0.0, S=2.0)
        cost = build_minimum_energy(q)
        x, u = np.array([3.0]), np.array([1.5])
        assert cost.phi(0.0, x, u) == pytest.approx(0.5 * 2.0 * 1.5**2)
        assert np.allclose(cost.psi(0.0, x), 0.0)

    def test_derivatives_match_finite_differences(self):
        q = quad_spec(obs_dim=2, control_dim=3, R=1.3, S=0.7, state_dim=3)
        cost = build_minimum_energy(q)
        rng = np.random.default_rng(0)
        h = 1e-6
        for _ in range(10):
            t, x, u = rng.uniform(), rng.normal(size=3), rng.normal(size=3)
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                fd_x = (cost.phi(t, x + e, u) - cost.phi(t, x - e, u)) / (2 * h)
                fd_u = (cost.phi(t, x, u + e) - cost.phi(t, x, u - e)) / (2 * h)
                assert cost.D2phi(t, x, u)[k] == pytest.approx(fd_x, rel=1e-4, abs=1e-8)
                assert cost.D3phi(t, x, u)[k] == pytest.approx(fd_u, rel=1e-4, abs=1e-8)
                fd_psi = (cost.psi(t, x + e) - cost.psi(t, x - e)) / (2 * h)
                assert np.allclose(cost.D2psi(t, x)[:, k], fd_psi, atol=1e-6)

    def test_phi_convex_in_u(self):
        q = quad_spec(control_dim=2, state_dim=1)
        cost = build_minimum_energy(q)
        rng = np.random.default_rng(1)
        x = np.array([1.0])
        for _ in range(20):
            u1, u2 = rng.normal(size=2), rng.normal(size=2)
            mid = cost.phi(0.0, x, 0.5 * (u1 + u2))
            avg = 0.5 * (cost.phi(0.0, x, u1) + cost.phi(0.0, x, u2))
            assert mid <= avg + 1e-10

    def test_pointwise_lower_bound_in_u(self):
        # phi >= (s_min/2) |u|^2 with delta = 0 state offset.
        q = quad_spec(control_dim=2, S=0.6, state_dim=1)
        cost = build_minimum_energy(q)
        rng = np.random.default_rng(2)
        for _ in range(50):
            x, u = rng.normal(size=1), rng.normal(size=2)
            assert cost.phi(0.0, x, u) >= 0.3 * float(u @ u) - 1e-12


class TestEvalCost:
    def test_constant_control_square(self):
        # psi = 0 (R = 0), phi = |u|^2/2, u = 1 on [0,1] -> exactly 0.5.
        model = linear_model([[0.0]])
        grid = TimeGrid(1.0, 16)
        cost = build_minimum_energy(quad_spec(R=0.0))
        u = SampledPath(grid, np.ones((grid.n_nodes, 1)))
        x = SampledPath.zeros(grid, 1)
        eta = SampledPath.zeros(grid, 1)
        assert eval_cost(cost, x, u, eta) == pytest.approx(0.5, abs=1e-14)

    def test_constant_psi_telescopes(self):
        # With h identically observed on a frozen x, the Young sum telescopes.
        grid = TimeGrid(1.0, 64)
        cost = build_minimum_energy(quad_spec())
        x = SampledPath(grid, np.full((grid.n_nodes, 1), 2.0))
        u = SampledPath.zeros(grid, 1)
        w = sample_wiener(grid, 1, seed=3)
        got = eval_cost(cost, x, u, w)
        expected_det = 0.5 * 4.0  # trapezoid of constant x^2/2
        expected_stoch = -2.0 * float(w.values[-1, 0] - w.values[0, 0])
        assert got == pytest.approx(expected_det + expected_stoch, abs=1e-12)

    def test_smooth_observation_quadrature_oracle(self):
        # noise 0: stochastic part == -int h'R zeta_dot dt within quadrature error.
        problem, xi, truth = make_lorenz_twin(noise=0.0)
        cost, grid = problem.cost, problem.eta.grid
        u = SampledPath.zeros(grid, 3)
        got = eval_cost(cost, truth, u, problem.eta)
        times = grid.times
        phis = np.array([cost.phi(times[i], truth.values[i], u.values[i])
                         for i in range(grid.n_nodes)])
        det_part = float(np.trapezoid(phis, times))
        # zeta_dot = h(truth), so the stochastic part is -int |h|^2 dt.
        h2 = np.array([float(truth.values[i] @ truth.values[i]) for i in range(grid.n_nodes)])
        stoch_oracle = -float(np.trapezoid(h2, times))
        assert got - det_part == pytest.approx(stoch_oracle, abs=1e-3 * (1 + abs(stoch_oracle)))

    def test_observation_dimension_must_match_psi(self):
        # One column of eta against Lorenz'63's three observed components
        # would broadcast into a wrong index in eval_cost, and fail in a
        # numpy contraction in the sweeps; eval_cost and the problem's
        # constructor, which every solver's problem passed, name both
        # dimensions instead.
        problem, _, truth = make_lorenz_twin(n_steps=64, T=0.25)
        one_column = SampledPath(problem.eta.grid, problem.eta.values[:, :1])
        u = SampledPath.zeros(one_column.grid, 3)
        message = "eta has 1 components, the cost observes 3"
        with pytest.raises(InvalidSpecError, match=message):
            eval_cost(problem.cost, truth, u, one_column)
        with pytest.raises(InvalidSpecError, match=message):
            AssimilationProblem(problem.model, problem.cost, one_column)

    def test_overflowing_sums_read_non_finite_without_warnings(self):
        # Finite running costs of 5e307 whose sum overflows, and a Young
        # term of 1e150 times increments of 1e200: a cost too large for a
        # float is non-finite, and a non-finite running cost of the
        # integrated-by-parts form a blow-up.
        grid = TimeGrid(1.0, 8)
        cost = build_minimum_energy(quad_spec())
        u = SampledPath.zeros(grid, 1)
        big = SampledPath(grid, np.full((grid.n_nodes, 1), 1e154))
        huge = SampledPath(grid, np.full((grid.n_nodes, 1), 1e150))
        flat = SampledPath.zeros(grid, 1)
        jumps = SampledPath(grid, 1e200 * (np.arange(grid.n_nodes)[:, None] % 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eval_cost(cost, big, u, flat) == np.inf
            assert not np.isfinite(eval_cost(cost, huge, u, jumps))
            problem = AssimilationProblem(linear_model([[0.0]]), cost, flat)
            assert eval_cost_by_parts(problem, big, u) == np.inf
            problem = AssimilationProblem(linear_model([[1.0]]), cost, jumps)
            with pytest.raises(BlowUpError):
                eval_cost_by_parts(problem, huge, u)


class TestByParts:
    def _eta(self, grid, seed=0):
        return sample_wiener(grid, 1, seed)

    def test_psi_zero_identical(self):
        model = linear_model([[-0.2]])
        grid = TimeGrid(1.0, 64)
        cost = build_minimum_energy(quad_spec(R=0.0))
        u = SampledPath(grid, 0.3 * np.ones((grid.n_nodes, 1)))
        x = integrate_state(model, u, np.array([1.0]), grid)
        eta = self._eta(grid)
        assert eval_cost_by_parts(AssimilationProblem(model, cost, eta), x, u) == pytest.approx(
            eval_cost(cost, x, u, eta), abs=1e-12
        )

    def test_agreement_improves_under_refinement(self):
        gaps = []
        for n in (256, 512):
            problem, xi, truth = make_lorenz_twin(n_steps=n, seed=11)
            u = SampledPath.zeros(problem.eta.grid, 3)
            gaps.append(abs(eval_cost(problem.cost, truth, u, problem.eta)
                            - eval_cost_by_parts(problem, truth, u)))
        assert gaps[1] <= 0.75 * gaps[0]

    def test_missing_D1psi_raises(self):
        from roughassim.cost import CostSpec

        cost = CostSpec(
            phi=lambda t, x, u: 0.0,
            D2phi=lambda t, x, u: np.zeros(1),
            D3phi=lambda t, x, u: np.zeros(1),
            psi=lambda t, x: np.zeros(1),
            D2psi=lambda t, x: np.zeros((1, 1)),
        )
        model = linear_model([[0.0]])
        grid = TimeGrid(1.0, 4)
        z = SampledPath.zeros(grid, 1)
        with pytest.raises(InvalidSpecError):
            eval_cost_by_parts(AssimilationProblem(model, cost, z), z, z)


class TestOnsagerMachlup:
    def test_constant_offset_for_lorenz(self):
        sigma, b = 10.0, 8.0 / 3.0  # lorenz63_model's defaults
        model = lorenz63_model()
        q = quad_spec(obs_dim=3, control_dim=3, state_dim=3)
        me = build_minimum_energy(q)
        om = build_onsager_machlup(q, model)
        rng = np.random.default_rng(4)
        for _ in range(10):
            x, u = rng.normal(size=3), rng.normal(size=3)
            assert om.phi(0.0, x, u) - me.phi(0.0, x, u) == pytest.approx(
                sigma + 1 + b
            )
            assert np.allclose(om.psi(0.0, x), me.psi(0.0, x))

    def test_zero_divergence_reduces_to_minimum_energy(self):
        model = linear_model([[0.0, 1.0], [-1.0, 0.0]])  # a rotation: trace 0
        q = quad_spec(obs_dim=2, control_dim=2, state_dim=2)
        me = build_minimum_energy(q)
        om = build_onsager_machlup(q, model)
        x, u = np.array([1.0, 2.0]), np.array([0.1, 0.2])
        assert om.phi(0.0, x, u) == pytest.approx(me.phi(0.0, x, u))

    def test_state_dependent_divergence_rejected(self):
        # xdot = -x^3 + u: the divergence -3 |x|^2 is 0 only at the origin.
        n = 2

        def D2f(t, x):
            return -3.0 * np.expand_dims(x**2, -1) * np.eye(n)

        model = ModelSpec(lambda t, x: -(x**3), np.eye(n), D2f)
        q = quad_spec(obs_dim=2, control_dim=2, state_dim=2)
        with pytest.raises(InvalidSpecError, match="divergence"):
            build_onsager_machlup(q, model)

    def test_gamma_is_metric_inverse(self):
        B = np.array([[2.0, 0.0], [0.0, 0.5]])
        model = linear_model(-np.eye(2), B)
        q = quad_spec(obs_dim=2, control_dim=2, state_dim=2)
        om = build_onsager_machlup(q, model)
        assert np.allclose(om.quad.S, np.linalg.inv(B @ B.T))
