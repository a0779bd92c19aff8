import numpy as np
import pytest

from oracles import contains, riccati_lq
from roughassim.errors import InvalidSpecError
from roughassim.grid import SampledPath, TimeGrid
from roughassim.optimizer import AssimilationResult, OptimizerConfig, minimize
from roughassim.problem import AssimilationProblem, ControlSetSpec

from conftest import make_lorenz_twin, scalar_lq


FREE = ControlSetSpec()


class TestControlSetSpec:
    def test_box_projection_hand_values(self):
        box = ControlSetSpec(kind="box", lo=np.array([-1.0, 0.0]), hi=np.array([1.0, 2.0]))
        vals = np.array([[5.0, -3.0], [0.5, 1.0]])
        out = box.project_values(vals)
        assert np.allclose(out, [[1.0, 0.0], [0.5, 1.0]])
        assert contains(box, out)
        assert not contains(box, vals)

    def test_ball_projection_hand_values(self):
        ball = ControlSetSpec(kind="ball", radius=1.0)
        out = ball.project_values(np.array([3.0, 4.0]))
        assert np.allclose(out, [0.6, 0.8])
        inside = np.array([0.1, -0.2])
        assert np.allclose(ball.project_values(inside), inside)

    def test_projection_idempotent(self):
        rng = np.random.default_rng(0)
        for spec in (
            FREE,
            ControlSetSpec(kind="box", lo=-np.ones(3), hi=np.ones(3)),
            ControlSetSpec(kind="ball", radius=0.7),
        ):
            vals = rng.normal(size=(20, 3)) * 3
            once = spec.project_values(vals)
            assert np.allclose(spec.project_values(once), once)

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpecError):
            ControlSetSpec(kind="box", lo=np.array([1.0]), hi=np.array([0.0]))
        with pytest.raises(InvalidSpecError):
            ControlSetSpec(kind="ball", radius=0.0)
        with pytest.raises(InvalidSpecError):
            ControlSetSpec(kind="simplex")
        with pytest.raises(InvalidSpecError):
            ControlSetSpec(kind="box", lo=np.array([np.nan]), hi=np.array([1.0]))
        with pytest.raises(InvalidSpecError):
            ControlSetSpec(kind="box", lo=np.array([0.0]), hi=np.array([np.nan]))
        with pytest.raises(InvalidSpecError):
            ControlSetSpec(kind="ball", radius=np.nan)
        with pytest.raises(InvalidSpecError):
            ControlSetSpec(kind="box", lo=np.zeros(2), hi=np.ones(3))

    @pytest.mark.parametrize("fields", [
        pytest.param(dict(kind="box", lo=-np.inf, hi=1.0), id="box-lo-inf"),
        pytest.param(dict(kind="box", lo=-1.0, hi=[1.0, np.inf]), id="box-hi-inf"),
        pytest.param(dict(kind="all_space", lo="-1"), id="all_space-lo-string"),
        pytest.param(dict(kind="box", lo=-1.0, hi=1.0, radius=True), id="box-radius-bool"),
        pytest.param(dict(kind="ball", radius=1.0, hi=[True]), id="ball-hi-bool"),
        pytest.param(dict(kind="all_space", lo=5.0, hi=-5.0), id="all_space-bounds"),
        pytest.param(dict(kind="all_space", radius=1.0), id="all_space-radius"),
        pytest.param(dict(kind="box", lo=-1.0, hi=1.0, radius=-3), id="box-radius"),
        pytest.param(dict(kind="ball", radius=1.0, lo=-1.0), id="ball-lo"),
    ])
    def test_every_field_given_is_checked(self, fields):
        # Bounds are finite, and a field the kind does not read is refused,
        # valid or not: a box takes exactly lo and hi, a ball exactly radius,
        # and all of E no field.
        with pytest.raises(InvalidSpecError):
            ControlSetSpec(**fields)

    def test_a_field_the_kind_does_not_read_is_named(self):
        with pytest.raises(InvalidSpecError, match="'all_space' takes no lo"):
            ControlSetSpec(kind="all_space", lo=-1.0, hi=1.0)

    def test_ball_without_center_is_the_origin_ball(self):
        vals = np.random.default_rng(1).normal(size=(50, 3)) * 2
        vals[:3] = [[-0.0, 0.0, -0.0], [-3.0, -0.0, 4.0], [0.1, -0.0, -0.2]]
        out = ControlSetSpec(kind="ball", radius=0.8).project_values(vals)
        norms = np.linalg.norm(vals, axis=-1)
        inside = norms <= 0.8
        # A control inside is kept bit for bit, -0.0 included; one outside
        # moves along its ray from the origin onto the sphere.
        assert out[inside].tobytes() == vals[inside].tobytes()
        np.testing.assert_allclose(out[~inside], vals[~inside] * (0.8 / norms[~inside, None]))

    def test_scalar_bounds_project_as_m_vectors(self):
        vals = np.random.default_rng(2).normal(size=(50, 3)) * 2
        vals[:2] = [[-0.0, 0.0, -0.0], [-0.0, 5.0, -5.0]]
        hi = np.array([0.1, 0.5, 2.0])
        for short, full in (
            (ControlSetSpec(kind="box", lo=-0.5, hi=hi),
             ControlSetSpec(kind="box", lo=np.full(3, -0.5), hi=hi)),
            (ControlSetSpec(kind="box", lo=[-1.0], hi=1.0),
             ControlSetSpec(kind="box", lo=-np.ones(3), hi=np.ones(3))),
        ):
            short.check(3)
            assert short.project_values(vals).tobytes() == full.project_values(vals).tobytes()

    def test_check_rejects_sets_that_do_not_fit_m(self):
        # A ball about the origin fits any number of controls.
        for spec in (ControlSetSpec(), ControlSetSpec(kind="box", lo=-1.0, hi=np.ones(3)),
                     ControlSetSpec(kind="ball", radius=1.0)):
            spec.check(3)
        for spec in (
            ControlSetSpec(kind="box", lo=-np.ones(2), hi=np.ones(2)),
            ControlSetSpec(kind="box", lo=-1.0, hi=np.ones(2)),
            ControlSetSpec(kind="box", lo=-np.ones((3, 3)), hi=np.ones((3, 3))),
        ):
            with pytest.raises(InvalidSpecError, match="does not fit 3 controls"):
                spec.check(3)

    def test_project_control_path(self):
        grid = TimeGrid(1.0, 4)
        u = SampledPath(grid, 5.0 * np.ones((grid.n_nodes, 1)))
        box = ControlSetSpec(kind="box", lo=np.array([-1.0]), hi=np.array([1.0]))
        assert np.allclose(box.project_values(u.values), 1.0)


MISFIT_SETS = [
    ControlSetSpec(kind="box", lo=-np.ones(2), hi=np.ones(2)),
]


@pytest.mark.parametrize("control_set", MISFIT_SETS, ids=["box"])
def test_two_component_set_rejected_on_lorenz63(control_set):
    """A (2,) set against three controls is an InvalidSpecError when the
    problem is built, so minimize, shoot and max_principle_residual, which
    take only a built problem, never meet numpy's broadcast ValueError."""
    problem, _, _ = make_lorenz_twin(n_steps=32, T=0.05)
    message = f"the {control_set.kind} control set does not fit 3 controls"
    with pytest.raises(InvalidSpecError, match=message):
        AssimilationProblem(problem.model, problem.cost, problem.eta, control_set)


class TestOptimizerConfig:
    def test_validation(self):
        with pytest.raises(InvalidSpecError):
            OptimizerConfig(max_iters=0)
        for bad in (True, np.inf, np.nan, "0.02"):
            with pytest.raises(InvalidSpecError):
                OptimizerConfig(grad_tol=bad)


class TestMinimizeDecoupled:
    def test_pure_control_energy_goes_to_zero(self):
        # No observation term: J = int |u|^2/2, minimum u = 0, J = 0.
        grid = TimeGrid(1.0, 64)
        u0 = SampledPath(grid, np.ones((grid.n_nodes, 1)))
        res = minimize(scalar_lq(grid, q=0.0), np.array([0.0]), u0, OptimizerConfig(grad_tol=1e-7))
        assert res.status == "converged"
        assert res.final_cost < 1e-8
        assert np.max(np.abs(res.triple.u.values)) < 1e-6

    def test_cost_trace_monotone(self):
        grid = TimeGrid(1.0, 128)
        u0 = SampledPath(grid, 2.0 * np.ones((grid.n_nodes, 1)))
        res = minimize(scalar_lq(grid), np.array([1.0]), u0, OptimizerConfig(grad_tol=1e-4))
        trace = np.array(res.cost_trace)
        assert np.all(np.diff(trace) <= 1e-14)

    def test_feasibility_maintained_with_box(self):
        grid = TimeGrid(1.0, 64)
        box = ControlSetSpec(kind="box", lo=np.array([-0.1]), hi=np.array([0.1]))
        u0 = SampledPath(grid, np.ones((grid.n_nodes, 1)))
        res = minimize(scalar_lq(grid, control_set=box), np.array([2.0]), u0,
                       OptimizerConfig(grad_tol=1e-5, max_iters=100))
        assert contains(box, res.triple.u.values, tol=1e-10)

    def test_max_iters_status(self):
        grid = TimeGrid(1.0, 64)
        u0 = SampledPath(grid, 2.0 * np.ones((grid.n_nodes, 1)))
        res = minimize(scalar_lq(grid), np.array([1.0]), u0,
                       OptimizerConfig(grad_tol=1e-12, max_iters=2))
        assert res.status == "max_iters"
        assert res.iterations == 2


class TestMinimizeAgainstRiccati:
    def test_scalar_lq_matches_riccati_oracle(self):
        # eta = 0 keeps the observation pairing off, so the discrete problem
        # is the classical LQ regulator; the Riccati solution is the oracle.
        a, q, r, T, n = -1.0, 1.0, 1.0, 1.0, 1024
        grid = TimeGrid(T, n)
        xi = np.array([1.3])
        u0 = SampledPath.zeros(grid, 1)
        res = minimize(scalar_lq(grid, a, q, r), xi, u0,
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
        grid = TimeGrid(1.0, 64)
        u0 = SampledPath.zeros(grid, 1)
        res = minimize(scalar_lq(grid), np.array([1.0]), u0, OptimizerConfig(grad_tol=1e-3))
        assert res.status == "converged"
        assert len(res.grad_norm_trace) == res.iterations
        assert res.grad_norm_trace[-1] < 1e-3

    def test_result_final_cost_property(self):
        grid = TimeGrid(1.0, 32)
        u0 = SampledPath.zeros(grid, 1)
        res = minimize(scalar_lq(grid), np.array([1.0]), u0, OptimizerConfig(grad_tol=1e-3))
        assert isinstance(res, AssimilationResult)
        assert res.final_cost == res.cost_trace[-1]
