import numpy as np
import pytest

from roughassim.cost import (
    QuadraticCostSpec,
    build_minimum_energy,
    build_onsager_machlup,
    coordinate_observation,
    eval_cost,
    eval_cost_by_parts,
)
from roughassim.dynamics import Lorenz63Params, ModelSpec, integrate_state, linear_model, lorenz63_model
from roughassim.errors import InvalidSpecError, UnsupportedCostError
from roughassim.grid import SampledPath, TimeGrid
from roughassim.optimizer import ControlSetSpec, OptimizerConfig, minimize
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

    def test_constant_matrices_wrapped_as_callables(self):
        q = quad_spec(obs_dim=2, control_dim=2, R=3.0, S=2.0, state_dim=2)
        assert np.allclose(q.R(0.7), 3.0 * np.eye(2))
        assert np.allclose(q.S(0.7), 2.0 * np.eye(2))

    def test_dimensions_are_the_sizes_of_R_and_S(self):
        q = quad_spec(obs_dim=2, control_dim=3, state_dim=3)
        assert (q.obs_dim, q.control_dim) == (2, 3)

    @pytest.mark.parametrize("R, S", [
        pytest.param(np.ones((1, 2)), np.eye(1), id="R-1x2"),
        pytest.param(np.eye(1), np.ones((2, 1)), id="S-2x1"),
        pytest.param(1.0, np.eye(1), id="R-scalar"),
        pytest.param(np.eye(1), lambda t: np.ones(2), id="S-callable-vector"),
    ])
    def test_validates_R_and_S_square(self, R, S):
        h, h_jac = coordinate_observation([0], 1)
        with pytest.raises(InvalidSpecError, match="square"):
            QuadraticCostSpec(h=h, h_jac=h_jac, R=R, S=S)

    def test_onsager_machlup_metric_must_match_the_controls(self):
        # A 1x2 g: (g g')^-1 is 1x1, but the model has two controls.
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
        model, grid, cost, xi, truth, eta = make_lorenz_twin(noise=0.0)
        u = SampledPath.zeros(grid, 3)
        got = eval_cost(cost, truth, u, eta)
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
        # would broadcast into a wrong index; minimize evaluates the cost
        # before its first costate solve, so it stops there too.
        model, grid, cost, xi, truth, eta = make_lorenz_twin(n_steps=64, T=0.25)
        one_column = SampledPath(grid, eta.values[:, :1])
        u = SampledPath.zeros(grid, 3)
        with pytest.raises(InvalidSpecError, match="eta has 1 components"):
            eval_cost(cost, truth, u, one_column)
        with pytest.raises(InvalidSpecError, match="eta has 1 components"):
            minimize(model, cost, one_column, xi, u, ControlSetSpec(), OptimizerConfig())


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
        assert eval_cost_by_parts(cost, model, x, u, eta) == pytest.approx(
            eval_cost(cost, x, u, eta), abs=1e-12
        )

    def test_agreement_improves_under_refinement(self):
        model = lorenz63_model()
        gaps = []
        for n in (256, 512):
            m, grid, cost, xi, truth, eta = make_lorenz_twin(n_steps=n, seed=11)
            u = SampledPath.zeros(grid, 3)
            gaps.append(abs(eval_cost(cost, truth, u, eta)
                            - eval_cost_by_parts(cost, m, truth, u, eta)))
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
        with pytest.raises(UnsupportedCostError):
            eval_cost_by_parts(cost, model, z, z, z)


class TestOnsagerMachlup:
    def test_constant_offset_for_lorenz(self):
        p = Lorenz63Params()
        model = lorenz63_model()
        q = quad_spec(obs_dim=3, control_dim=3, state_dim=3)
        me = build_minimum_energy(q)
        om = build_onsager_machlup(q, model)
        rng = np.random.default_rng(4)
        for _ in range(10):
            x, u = rng.normal(size=3), rng.normal(size=3)
            assert om.phi(0.0, x, u) - me.phi(0.0, x, u) == pytest.approx(
                p.sigma + 1 + p.b
            )
            assert np.allclose(om.psi(0.0, x), me.psi(0.0, x))

    def test_zero_divergence_reduces_to_minimum_energy(self):
        model = linear_model([[0.0, 1.0], [-1.0, 0.0]])  # a rotation: trace 0
        q = quad_spec(obs_dim=2, control_dim=2, state_dim=2)
        me = build_minimum_energy(q)
        om = build_onsager_machlup(q, model)
        x, u = np.array([1.0, 2.0]), np.array([0.1, 0.2])
        assert om.phi(0.0, x, u) == pytest.approx(me.phi(0.0, x, u))

    def test_nonconstant_g_rejected(self):
        n = 2

        def g(t, x):
            return np.eye(n) * (1.0 + x[0] ** 2)

        model = ModelSpec(n, n, lambda t, x: -x, g,
                          lambda t, x: -np.eye(n), lambda t, x: np.zeros((n, n, n)))
        q = quad_spec(obs_dim=2, control_dim=2, state_dim=2)
        with pytest.raises(UnsupportedCostError):
            build_onsager_machlup(q, model)

    def test_state_dependent_divergence_rejected(self):
        # xdot = -x^3 + u: the divergence -3 |x|^2 is 0 only at the origin.
        n = 2

        def D2f(t, x):
            return -3.0 * np.expand_dims(x**2, -1) * np.eye(n)

        model = ModelSpec(n, n, lambda t, x: -(x**3), lambda t, x: np.eye(n), D2f)
        q = quad_spec(obs_dim=2, control_dim=2, state_dim=2)
        with pytest.raises(UnsupportedCostError, match="divergence"):
            build_onsager_machlup(q, model)

    def test_gamma_is_metric_inverse(self):
        B = np.array([[2.0, 0.0], [0.0, 0.5]])
        model = linear_model(-np.eye(2), B)
        q = quad_spec(obs_dim=2, control_dim=2, state_dim=2)
        om = build_onsager_machlup(q, model)
        assert np.allclose(om.quad.S(0.0), np.linalg.inv(B @ B.T))
