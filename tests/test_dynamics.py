from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import energy_diagnostic, four_drift_step, lorenz63_quadratic_part, lorenz96_gathered
from roughassim import dynamics
from roughassim.dynamics import (
    ModelSpec,
    integrate_state,
    linear_model,
    lorenz63_drift,
    lorenz63_model,
    lorenz96_model,
    rk4_sweep,
)
from roughassim.errors import BlowUpError, InvalidSpecError
from roughassim.grid import SampledPath, TimeGrid

# lorenz63_model's default parameters.
SIGMA, R, B = 10.0, 28.0, 8.0 / 3.0


class TestLorenz63:
    def test_drift_matches_textbook_form(self):
        # Internal z is the classic z minus (r + sigma); velocities must agree
        # with sigma(y-x), x(r-z)-y, xy-bz evaluated in classic coordinates.
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y, z = rng.normal(size=3)
            zc = z + (R + SIGMA)
            classic = np.array(
                [
                    SIGMA * (y - x),
                    x * (R - zc) - y,
                    x * y - B * zc,
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
        f2 = lorenz63_quadratic_part(np.array([1.0, 1.0, -(R + SIGMA)]))
        assert np.allclose(f2, [0.0, R + SIGMA, 1.0])

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
        model = lorenz63_model()
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.normal(size=3) * 10
            assert np.trace(model.D2f(0.0, x)) == pytest.approx(-(SIGMA + 1 + B))

    def test_invalid_params(self):
        for bad in ({"sigma": -1.0}, {"r": 0.0}, {"b": np.inf}, {"sigma": np.nan}):
            with pytest.raises(InvalidSpecError):
                lorenz63_model(**bad)

    def test_keyword_parameters_reach_the_drift(self):
        x = np.array([[1.0, -2.0, 20.0], [0.5, 3.0, -7.0]])
        model = lorenz63_model(sigma=7.5, r=31.0, b=2.5)
        assert model.f(0.0, x).tobytes() == lorenz63_drift(x, 7.5, 31.0, 2.5).tobytes()
        assert lorenz63_model().f(0.0, x).tobytes() == lorenz63_drift(x).tobytes()
        assert np.trace(model.D2f(0.0, x[0])) == pytest.approx(-(7.5 + 1 + 2.5))


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
        # An integral float or a boolean is not a count of variables either.
        for n in (3, 4.5, np.float64(8.0), 8.0, True):
            with pytest.raises(InvalidSpecError):
                lorenz96_model(n=n)
        assert lorenz96_model(n=np.int64(8)).state_dim == 8


# Lorenz'96 states that stress the gathers and in-place updates: signed
# zeros, ordinary values, and magnitudes whose products overflow.
L96_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-20.0, 20.0),
                        st.floats(min_value=1e150, max_value=1e300).flatmap(
                            lambda v: st.sampled_from([v, -v])))


@st.composite
def lorenz96_member_views(draw):
    """n, and node i of a (B, n_nodes, n) member stack as ``rk4_sweep`` steps
    it: a (B, n) view whose members lie n_nodes * n floats apart."""
    n = draw(st.integers(4, 41))
    B, nodes = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    stack = draw(arrays(float, (B, nodes, n), elements=L96_ENTRIES))
    return n, np.moveaxis(stack, -2, 0)[draw(st.integers(0, nodes - 1))]


class TestArrayStep:
    """The array stepper forms G u once per sweep, and Lorenz'96 gathers its
    neighbours with ``take`` into one buffer it updates in place; both must
    keep the bytes of the plain forms."""

    @given(lorenz96_member_views())
    @settings(deadline=None, derandomize=True)
    def test_lorenz96_drift_equals_gathered_form(self, case):
        n, x = case
        before = x.tobytes()
        with np.errstate(over="ignore", invalid="ignore"):
            drift = lorenz96_model(n).f(0.0, x)
            ref = lorenz96_gathered(n).f(0.0, x)
        assert drift.tobytes() == ref.tobytes()
        assert x.tobytes() == before

    @pytest.mark.parametrize("members", [(), (4,)])
    def test_sweep_on_a_nonsquare_control_matrix_equals_four_drift_steps(self, members):
        # n = 3 states, m = 2 controls: G u is formed for every node before
        # the steps, and a -0.0 control must give the per-step bytes.
        rng = np.random.default_rng(12)
        model = linear_model(rng.normal(size=(3, 3)), rng.normal(size=(3, 2)))
        grid = TimeGrid(0.8, 40)
        U = rng.normal(size=members + (grid.n_nodes, 2))
        U[rng.random(U.shape) < 0.3] = -0.0
        xi = rng.normal(size=members + (3,))
        states, blown = rk4_sweep(model, U, xi, grid)
        x, us = xi, np.moveaxis(U, -2, 0)
        ref = [x]
        for i in range(grid.n_steps):
            x = four_drift_step(model, grid.times[i], x, us[i], grid.dt)
            ref.append(x)
        assert np.all(blown == -1)
        assert states.tobytes() == np.stack(ref, axis=-2).tobytes()

    @pytest.mark.parametrize("members", [(), (5,)])
    def test_rk4_step_equals_four_drift_form(self, members):
        rng = np.random.default_rng(11)
        model = linear_model(rng.normal(size=(3, 3)), rng.normal(size=(3, 2)))
        for dt in (0.01, 0.37):
            x = rng.normal(size=members + (3,)) * 10.0
            u = rng.normal(size=members + (2,))
            u[rng.random(u.shape) < 0.3] = -0.0
            ref = four_drift_step(model, 0.5, x, u, dt)
            assert model.rk4_step(0.5, x, u, dt).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [4, 5, 40])
    def test_lorenz96_sweep_equals_gathered_form(self, n):
        model, gathered = lorenz96_model(n), lorenz96_gathered(n)
        grid = TimeGrid(0.5, 64)
        rng = np.random.default_rng(n)
        uv = rng.normal(size=(4, grid.n_nodes, n))
        uv[rng.random(uv.shape) < 0.2] = -0.0
        xi = 8.0 + rng.normal(size=(4, n))
        for u, x0 in ((uv, xi), (uv[0], xi[0])):  # a member axis, and none
            states, _ = rk4_sweep(model, u, x0, grid)
            assert states.tobytes() == rk4_sweep(gathered, u, x0, grid)[0].tobytes()
            x = states.copy()
            x[..., ::3, 1] = -0.0
            assert model.D2f(0.0, x).tobytes() == gathered.D2f(0.0, x).tobytes()


def test_linear_model_invalid_matrices():
    for A, B in (
        ([[np.nan]], None),
        ([[1.0]], [[np.inf]]),
        ([[1.0, 2.0]], None),
        ([[1.0]], [[1.0], [2.0]]),
    ):
        with pytest.raises(InvalidSpecError):
            linear_model(A, B)


def test_linear_model_keeps_what_it_checked():
    A, B = np.array([[-1.0, 2.0], [0.0, -3.0]]), np.array([[1.0], [0.5]])
    model = linear_model(A, B)
    t, x = 0.0, np.array([1.0, 2.0])
    before = (model.f(t, x), model.D2f(t, x), model.G.copy())
    A[0, 0], B[0, 0] = np.nan, np.nan
    for b, a in zip(before, (model.f(t, x), model.D2f(t, x), model.G)):
        np.testing.assert_array_equal(a, b)
    assert (model.state_dim, model.control_dim) == (2, 1)
    assert not model.G.flags.writeable


@pytest.mark.parametrize("G", [
    pytest.param(lambda t, x: np.eye(2), id="callable"),
    pytest.param([1.0, 0.5], id="vector"),
    pytest.param(np.empty((2, 0)), id="no-columns"),
    pytest.param([[1.0, np.nan], [0.0, 1.0]], id="nan"),
])
def test_control_matrix_is_a_finite_matrix(G):
    # The old callable g(t, x) is refused by name, not called later.
    with pytest.raises(InvalidSpecError, match="G must be"):
        ModelSpec(lambda t, x: -x, G, lambda t, x: -np.eye(2))


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
            with pytest.raises(InvalidSpecError):
                integrate_state(model, SampledPath.zeros(other, 3), xi, TimeGrid(1.0, 4))


# Control entries that stress the float path: signed zeros and subnormals,
# and magnitudes that overflow the state within a few steps.
TINY_CONTROLS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2e-308])
HUGE = st.floats(min_value=1e100, max_value=1e300).flatmap(lambda v: st.sampled_from([v, -v]))


@st.composite
def lorenz63_sweeps(draw):
    """A Lorenz'63 model, grid, initial state and control for one sweep."""
    params = [draw(st.floats(min_value=0.1, max_value=30.0)) for _ in range(3)]
    grid = TimeGrid(draw(st.floats(min_value=0.01, max_value=1.0)), draw(st.integers(1, 64)))
    xi = draw(arrays(float, 3, elements=st.floats(-50.0, 50.0)))
    U = draw(arrays(float, (grid.n_nodes, 3), elements=st.floats(-100.0, 100.0)))
    for index, value in draw(st.lists(st.tuples(st.integers(0, U.size - 1), TINY_CONTROLS),
                                      max_size=8)):
        U.flat[index] = value
    if draw(st.booleans()):  # one huge control entry or initial coordinate
        index, value = draw(st.integers(0, U.size + 2)), draw(HUGE)
        if index < U.size:
            U.flat[index] = value
        else:
            xi[index - U.size] = value
    return lorenz63_model(*params), grid, xi, U


def sweep_outcome(model, U, xi, grid):
    """integrate_state's states as bytes, or the node its BlowUpError names."""
    try:
        return integrate_state(model, SampledPath(grid, U), xi, grid).values.tobytes()
    except BlowUpError as err:
        return err.node_index


class TestFloatSweep:
    """A one-member sweep of a model that sets ``float_step`` steps in Python
    floats, with or without a member axis; ``replace(model,
    float_step=None)`` reaches the array stepper.  The two must agree in
    bytes (np.array_equal would let -0.0 pass for +0.0)."""

    def test_float_step_equals_rk4_step_node_by_node(self):
        model = lorenz63_model(sigma=7.5, r=31.0, b=2.5)
        rng = np.random.default_rng(7)
        X = rng.normal(size=(200, 3)) * 20.0
        U = rng.normal(size=(200, 3)) * 5.0
        U[rng.random(U.shape) < 0.3] = -0.0
        U[:8] = [[-0.0, -0.0, -0.0], [0.0, -0.0, 0.0], [-0.0, 1.0, -1.0],
                 [5e-324, -5e-324, -0.0], [1e300, -1e300, -0.0], [-1e-310, 0.0, 2.0],
                 [-0.0, -2.0, 3.0], [0.0, 0.0, 0.0]]
        X[:2] = [[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0]]
        for dt in (0.01, 1e-3, 0.37):
            for t, x, u in zip(np.linspace(0.0, 2.0, 200), X, U):
                step = np.array(model.float_step(float(t), x.tolist(), u.tolist(), dt))
                with np.errstate(over="ignore", invalid="ignore"):
                    ref = model.rk4_step(t, x, u, dt)
                if np.all(np.isfinite(ref)):
                    assert step.tobytes() == ref.tobytes()
                else:  # a 1e300 control overflows; the NaNs may differ
                    assert np.array_equal(np.isfinite(step), np.isfinite(ref))

    @given(lorenz63_sweeps())
    @settings(deadline=None, derandomize=True)
    def test_float_sweep_equals_array_sweep(self, case):
        model, grid, xi, U = case
        array_model = replace(model, float_step=None)
        floats, node = rk4_sweep(model, U, xi, grid)
        arrays_, array_node = rk4_sweep(array_model, U, xi, grid)
        event("blown up" if node >= 0 else "finite")
        assert node == array_node
        # Past the first non-finite node the two may carry different NaNs.
        kept = grid.n_nodes if node < 0 else node
        assert floats[:kept].tobytes() == arrays_[:kept].tobytes()
        assert sweep_outcome(model, U, xi, grid) == sweep_outcome(array_model, U, xi, grid)
        # A one-member stack, from a shared or its own initial state.
        for start in (xi, xi[None]):
            with mock.patch.object(dynamics, "_float_sweep", wraps=dynamics._float_sweep) as spy:
                stacked, stacked_node = rk4_sweep(model, U[None], start, grid)
            assert spy.call_count == 1
            assert stacked.shape == (1,) + floats.shape
            assert stacked.tobytes() == floats.tobytes()
            assert stacked_node.tolist() == [array_node]

    def test_nonfinite_control_blows_up_at_the_same_node(self):
        # A SampledPath rejects such a control, so only rk4_sweep sees one.
        # Past node 5 the bytes differ: np.matvec spreads 0 * inf = NaN over
        # every component, the float path keeps the control in its own.
        model = lorenz63_model()
        grid = TimeGrid(1.0, 16)
        xi = np.array([1.0, 1.0, 25.0])
        for bad in (np.inf, -np.inf, np.nan):
            U = np.zeros((grid.n_nodes, 3))
            U[5, 1] = bad
            floats, node = rk4_sweep(model, U, xi, grid)
            arrays_, array_node = rk4_sweep(replace(model, float_step=None), U, xi, grid)
            assert node == array_node == 6
            assert floats[:6].tobytes() == arrays_[:6].tobytes()

    def test_control_node_count_checked_on_both_paths(self):
        # Without the check the array stepper would return np.empty rows
        # past the grid's last node, and the float stepper would stop early.
        model = lorenz63_model()
        grid = TimeGrid(1.0, 8)
        xi = np.array([1.0, 1.0, 25.0])
        for m in (model, replace(model, float_step=None)):
            for rows in (grid.n_nodes - 1, grid.n_nodes + 1):
                with pytest.raises(InvalidSpecError):
                    rk4_sweep(m, np.zeros((rows, 3)), xi, grid)

    def test_control_component_count_checked_on_both_paths(self):
        # Without the check the float stepper raises IndexError on a short
        # control and numpy's broadcast ValueError is the array stepper's.
        model = lorenz63_model()
        grid = TimeGrid(1.0, 8)
        xi = np.array([1.0, 1.0, 25.0])
        for m in (model, replace(model, float_step=None)):
            for width in (2, 4):
                with pytest.raises(InvalidSpecError, match="components"):
                    rk4_sweep(m, np.zeros((grid.n_nodes, width)), xi, grid)
                with pytest.raises(InvalidSpecError):
                    integrate_state(m, SampledPath.zeros(grid, width), xi, grid)

    def test_only_lorenz63_sets_float_step(self):
        assert lorenz63_model().float_step is not None
        assert lorenz96_model().float_step is None
        assert linear_model(np.eye(3)).float_step is None


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
