import numpy as np
import pytest

from roughassim.dynamics import (
    Lorenz63Params,
    ModelSpec,
    energy_diagnostic,
    integrate_state,
    integrate_variation,
    linear_model,
    lorenz63_drift,
    lorenz63_model,
    lorenz63_quadratic_part,
    lorenz96_model,
)
from roughassim.errors import BlowUpError, GridMismatchError, InvalidSpecError
from roughassim.grid import SampledPath, TimeGrid


class TestLorenz63:
    def test_drift_matches_textbook_form(self):
        # Internal z is the classic z minus (r + sigma); velocities must agree
        # with sigma(y-x), x(r-z)-y, xy-bz evaluated in classic coordinates.
        p = Lorenz63Params()
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y, z = rng.normal(size=3)
            zc = z + (p.r + p.sigma)
            classic = np.array(
                [
                    p.sigma * (y - x),
                    x * (p.r - zc) - y,
                    x * y - p.b * zc,
                ]
            )
            ours = lorenz63_drift(np.array([x, y, z]))
            assert np.allclose(ours, classic, atol=1e-12)

    def test_quadratic_part_conserves_energy(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = rng.normal(size=3) * 10
            assert abs(s @ lorenz63_quadratic_part(s)) < 1e-10

    def test_specific_state_quadratic_values(self):
        # At (1, 1, -(r + sigma)) the bilinear term is (0, r + sigma, 1).
        p = Lorenz63Params()
        f2 = lorenz63_quadratic_part(np.array([1.0, 1.0, -(p.r + p.sigma)]))
        assert np.allclose(f2, [0.0, p.r + p.sigma, 1.0])

    def test_jacobian_matches_finite_differences(self):
        model = lorenz63_model()
        rng = np.random.default_rng(2)
        x = rng.normal(size=3) * 5
        J = model.D2f(0.0, x)
        h = 1e-6
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (model.f(0.0, x + e) - model.f(0.0, x - e)) / (2 * h)
            assert np.allclose(J[:, k], fd, atol=1e-5)

    def test_divergence_is_constant(self):
        p = Lorenz63Params()
        model = lorenz63_model()
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.normal(size=3) * 10
            assert np.trace(model.D2f(0.0, x)) == pytest.approx(-(p.sigma + 1 + p.b))

    def test_invalid_params(self):
        with pytest.raises(InvalidSpecError):
            Lorenz63Params(sigma=-1.0)


class TestLorenz96:
    def test_fixed_point_of_uniform_state(self):
        model = lorenz96_model(n=8, forcing=8.0)
        x = np.full(8, 8.0)
        assert np.allclose(model.f(0.0, x), 0.0)

    def test_jacobian_matches_finite_differences(self):
        model = lorenz96_model(n=6)
        rng = np.random.default_rng(4)
        x = rng.normal(size=6)
        J = model.D2f(0.0, x)
        h = 1e-6
        for k in range(6):
            e = np.zeros(6)
            e[k] = h
            fd = (model.f(0.0, x + e) - model.f(0.0, x - e)) / (2 * h)
            assert np.allclose(J[:, k], fd, atol=1e-5)

    def test_divergence_is_minus_n(self):
        model = lorenz96_model(n=12)
        x = np.random.default_rng(5).normal(size=12)
        assert np.trace(model.D2f(0.0, x)) == pytest.approx(-12.0)

    def test_minimum_size(self):
        with pytest.raises(InvalidSpecError):
            lorenz96_model(n=3)


def test_linearization_matches_finite_differences():
    # A state-dependent g = (1 + x0^2) I pins the convention
    # D2g[i, j, k] = d g[i, j] / d x[k]; the built-in models have D2g = 0.
    n = 2
    A = np.array([[-1.0, 2.0], [0.5, -3.0]])

    def g(t, x):
        return (1.0 + x[0] ** 2) * np.eye(n)

    def D2g(t, x):
        out = np.zeros((n, n, n))
        out[:, :, 0] = 2.0 * x[0] * np.eye(n)
        return out

    model = ModelSpec(n, n, lambda t, x: A @ x, g, lambda t, x: A, D2g)
    x, u = np.array([0.7, -1.2]), np.array([0.3, -0.8])
    h = 1e-6
    fd = np.column_stack([
        (model.drift(0.0, x + h * e, u) - model.drift(0.0, x - h * e, u)) / (2 * h)
        for e in np.eye(n)
    ])
    assert np.allclose(model.linearization(0.0, x, u), fd, rtol=0.0, atol=1e-8)


class TestIntegrateState:
    def test_linear_exponential_exact_to_rk4_order(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])  # rotation
        model = linear_model(A)
        errs = []
        for n in (64, 128):
            grid = TimeGrid(1.0, n)
            x = integrate_state(model, SampledPath.zeros(grid, 2), np.array([1.0, 0.0]), grid)
            exact = np.array([np.cos(1.0), -np.sin(1.0)])
            errs.append(np.linalg.norm(x.values[-1] - exact))
        assert errs[0] < 1e-8
        assert errs[1] < errs[0] / 12.0  # ~4th order

    def test_constant_control_linear_ramp(self):
        # xdot = u with u = 2: x(T) = x0 + 2T exactly.
        model = linear_model(np.zeros((1, 1)))
        grid = TimeGrid(3.0, 10)
        u = SampledPath(grid, np.full((grid.n_nodes, 1), 2.0))
        x = integrate_state(model, u, np.array([1.0]), grid)
        assert np.allclose(x.values[:, 0], 1.0 + 2.0 * grid.times)

    def test_lorenz_attractor_stays_bounded(self):
        model = lorenz63_model()
        grid = TimeGrid(5.0, 2048)
        x = integrate_state(model, SampledPath.zeros(grid, 3), np.array([1.0, 1.0, 25.0]), grid)
        assert np.max(np.abs(x.values)) < 100.0

    def test_blowup_reports_node(self):
        model = linear_model([[1e4]])
        grid = TimeGrid(100.0, 40)  # dt = 2.5 with a huge eigenvalue: overflow
        with pytest.raises(BlowUpError) as err:
            integrate_state(model, SampledPath.zeros(grid, 1), np.array([1.0]), grid)
        assert 0 < err.value.node_index <= 40

    def test_bad_initial_shape(self):
        model = lorenz63_model()
        grid = TimeGrid(1.0, 4)
        with pytest.raises(InvalidSpecError):
            integrate_state(model, SampledPath.zeros(grid, 3), np.zeros(2), grid)

    def test_control_on_another_grid_rejected(self):
        model = lorenz63_model()
        xi = np.array([1.0, 1.0, 25.0])
        for other in (TimeGrid(1.0, 8), TimeGrid(1.5, 4)):
            with pytest.raises(GridMismatchError):
                integrate_state(model, SampledPath.zeros(other, 3), xi, TimeGrid(1.0, 4))


class TestIntegrateVariation:
    def test_is_flow_derivative_wrt_initial_state(self):
        model = lorenz63_model()
        grid = TimeGrid(0.5, 512)
        u = SampledPath.zeros(grid, 3)
        xi = np.array([1.0, 1.0, 25.0])
        x = integrate_state(model, u, xi, grid)
        h = 1e-6
        for k in range(3):
            e = np.zeros(3)
            e[k] = 1.0
            z = integrate_variation(model, x, u, e)
            xp = integrate_state(model, u, xi + h * e, grid)
            xm = integrate_state(model, u, xi - h * e, grid)
            fd = (xp.values - xm.values) / (2 * h)
            scale = 1.0 + np.max(np.abs(fd))
            assert np.max(np.abs(z.values - fd)) / scale < 1e-3

    def test_linear_model_variation_is_exponential(self):
        A = np.array([[-0.3]])
        model = linear_model(A)
        grid = TimeGrid(1.0, 256)
        u = SampledPath.zeros(grid, 1)
        x = integrate_state(model, u, np.array([1.0]), grid)
        z = integrate_variation(model, x, u, np.array([1.0]))
        assert np.allclose(z.values[:, 0], np.exp(-0.3 * grid.times), atol=1e-9)

    def test_forcing_particular_solution(self):
        # zdot = -z + 1, z(0) = 0 -> z = 1 - e^{-t}.
        model = linear_model([[-1.0]])
        grid = TimeGrid(1.0, 256)
        u = SampledPath.zeros(grid, 1)
        x = integrate_state(model, u, np.array([0.5]), grid)
        forcing = SampledPath(grid, np.ones((grid.n_nodes, 1)))
        z = integrate_variation(model, x, u, np.array([0.0]), forcing=forcing)
        assert np.allclose(z.values[:, 0], 1.0 - np.exp(-grid.times), atol=1e-9)


def test_energy_diagnostic_bounded_over_controls():
    model = lorenz63_model()
    grid = TimeGrid(1.0, 256)
    rng = np.random.default_rng(6)
    ratios = []
    for scale in (0.0, 0.5, 2.0, 8.0):
        u = SampledPath(grid, scale * rng.normal(size=(grid.n_nodes, 3)))
        x = integrate_state(model, u, np.array([1.0, 1.0, 25.0]), grid)
        d = energy_diagnostic(x, u)
        ratios.append(d["sup_ratio"])
        assert d["sup_ratio"] > 0 and d["nonlin_ratio"] > 0
    assert max(ratios) < 100.0  # stays bounded as control effort grows
