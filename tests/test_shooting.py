import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import contains, riccati_lq
from roughassim.cost import QuadraticCostSpec, build_minimum_energy, coordinate_observation
from roughassim.dynamics import ModelSpec, integrate_state, lorenz63_model, rk4_sweep
from roughassim.errors import InvalidSpecError, NoConvergenceError
from roughassim.grid import SampledPath, TimeGrid
from roughassim.optimizer import OptimizerConfig, minimize, minimize_batch
from roughassim.problem import AssimilationProblem, ControlSetSpec
from roughassim import shooting
from roughassim.checks import suite_valueprobe
from roughassim.shooting import hamiltonian_sweep, shoot, shoot_batch, value_probe

from conftest import make_lorenz_twin, scalar_lq


class TestIntegrateHamiltonian:
    def test_terminal_map_is_affine_in_lambda0(self):
        # For a linear model with quadratic cost the map lambda0 -> lambda(T)
        # is affine; three collinear probes must land on a line.
        problem = scalar_lq(TimeGrid(1.0, 256))
        xi = np.array([1.0])
        ends = []
        for l0 in (0.0, 1.0, 2.0):
            _, ls, _, _ = hamiltonian_sweep(problem, xi, np.array([l0]))
            ends.append(ls[-1, 0])
        assert ends[2] - ends[1] == pytest.approx(ends[1] - ends[0], abs=1e-6)

    def test_control_is_closed_form_minimizer(self):
        problem = scalar_lq(TimeGrid(0.5, 128), r=2.0)
        xs, ls, us, _ = hamiltonian_sweep(problem, np.array([1.0]), np.array([0.3]))
        assert np.allclose(us, -ls / 2.0)

    def test_control_set_projection_applied(self):
        box = ControlSetSpec(kind="box", lo=np.array([-0.05]), hi=np.array([0.05]))
        problem = scalar_lq(TimeGrid(0.5, 64), control_set=box)
        _, _, us, _ = hamiltonian_sweep(problem, np.array([1.0]), np.array([2.0]))
        assert contains(box, us, tol=1e-12)

    def test_state_uses_the_integrate_state_stepper(self):
        # Replaying the eliminated control through integrate_state must
        # reproduce the Hamiltonian state bit for bit: one RK4 step for both.
        problem, xi, truth = make_lorenz_twin(n_steps=256, T=0.25)
        xs, _, us, blown = hamiltonian_sweep(problem, xi, np.array([0.5, -0.2, 0.1]))
        assert blown == -1 and np.max(np.abs(us)) > 0.1
        grid = problem.eta.grid
        replay = integrate_state(problem.model, SampledPath(grid, us), xi, grid)
        assert np.array_equal(xs, replay.values)


CONTROL_SETS = {
    "all_space": ControlSetSpec(),
    "box": ControlSetSpec(kind="box", lo=-0.5, hi=0.5),
    "ball": ControlSetSpec(kind="ball", radius=0.5),
}


@st.composite
def segment_cases(draw):
    """Lorenz'63 on 1 to 100 steps of 0.002 under a rough eta, a control set
    of each kind, 1 to 4 members' initial values and a segment length."""
    n_steps = draw(st.integers(min_value=1, max_value=100))
    length = draw(st.integers(min_value=1, max_value=n_steps))
    members = draw(st.integers(min_value=1, max_value=4))
    control_set = CONTROL_SETS[draw(st.sampled_from(sorted(CONTROL_SETS)))]
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10_000)))
    grid = TimeGrid(0.002 * n_steps, n_steps)
    eta = np.cumsum(rng.normal(scale=0.5, size=(grid.n_nodes, 3)), axis=0)
    h, h_jac = coordinate_observation([0, 1, 2], 3)
    cost = build_minimum_energy(QuadraticCostSpec(h=h, h_jac=h_jac, R=np.eye(3), S=np.eye(3)))
    problem = AssimilationProblem(lorenz63_model(), cost, SampledPath(grid, eta), control_set)
    xi = np.array([1.0, 1.0, 25.0]) + rng.normal(size=(members, 3))
    return problem, xi, rng.normal(size=(members, 3)), length


class TestSegmentSweeps:
    @given(segment_cases())
    @settings(deadline=None, derandomize=True)
    def test_segments_restarted_from_a_full_sweeps_nodes_reproduce_it(self, case):
        # Each member restarts at every multiple of the length from the full
        # sweep's own node; the last segment runs past the grid's end.
        problem, xi, lam0, length = case
        full = hamiltonian_sweep(problem, xi, lam0)
        assert (full[-1] == -1).all()
        last = problem.eta.grid.n_steps
        starts = np.arange(0, last, length)
        member, first = (a.ravel() for a in np.meshgrid(np.arange(len(xi)), starts, indexing="ij"))
        *segments, blown = shooting._sweep(
            problem, full[0][member, first], full[1][member, first], first, length
        )
        assert (blown == -1).all()
        for b, s, *values in zip(member, first, *segments):
            stop = min(s + length, last) + 1
            for whole, segment in zip(full[:3], values):
                assert np.array_equal(segment[: stop - s], whole[b, s:stop])


class TestShoot:
    def test_matches_riccati_oracle(self):
        a, q, r, T, n = -1.0, 1.0, 1.0, 1.0, 1024
        grid = TimeGrid(T, n)
        xi = np.array([1.3])
        problem = scalar_lq(grid, a, q, r)
        triple = shoot(problem, xi)
        P = riccati_lq(a, q, r, T, n)
        lam_oracle = P * triple.x.values[:, 0]
        assert np.max(np.abs(triple.lam.values[:, 0] - lam_oracle)) < 5e-4
        assert abs(triple.lam.values[-1, 0]) < 1e-9
        from roughassim.cost import eval_cost

        V = 0.5 * P[0] * xi[0] ** 2
        assert eval_cost(problem.cost, triple.x, triple.u, problem.eta) == pytest.approx(
            V, abs=2e-4
        )

    def test_agrees_with_gradient_solver_on_rough_problem(self):
        problem, xi, truth = make_lorenz_twin(n_steps=256, T=0.5, S=50.0)
        triple = shoot(problem, xi)
        from roughassim.cost import eval_cost

        v_shoot = eval_cost(problem.cost, triple.x, triple.u, problem.eta)
        res = minimize(problem, xi, SampledPath.zeros(problem.eta.grid, 3),
                       OptimizerConfig(grad_tol=2e-2, max_iters=400))
        assert abs(v_shoot - res.final_cost) < 1e-2 * (1 + abs(v_shoot))
        # initial costates agree across the two formulations
        assert np.max(np.abs(triple.lam.values[0] - res.triple.lam.values[0])) < 5e-2

    def test_each_sweep_carries_its_points_fd_columns(self, monkeypatch):
        # A point sweeps its K = 256 / 64 = 4 segments together with their FD
        # columns, n for the first segment and 2n for each other: on the
        # scalar LQ every sweep has (2n + 1) K - n = 11 members, each
        # stepping 64 steps from its own segment's first node.
        sweeps = spy_on_sweeps(monkeypatch)
        triple = shoot(scalar_lq(TimeGrid(1.0, 256)), np.array([1.3]))
        firsts = [0, 64, 128, 192, 0, 64, 64, 128, 128, 192, 192]
        assert len(sweeps) >= 2 and all(sweep == (firsts, 64) for sweep in sweeps)
        assert abs(triple.lam.values[-1, 0]) < 1e-9

    def test_nonconvergence_raises_with_residual(self, monkeypatch):
        problem = scalar_lq(TimeGrid(6.0, 512), a=3.0)  # unstable drift over a long window
        monkeypatch.setattr(shooting, "NEWTON_MAX_ITERS", 2)
        monkeypatch.setattr(shooting, "NEWTON_TOL", 1e-14)
        with pytest.raises(NoConvergenceError) as err:
            shoot(problem, np.array([1.0]))
        assert err.value.best_residual >= 0.0 or np.isinf(err.value.best_residual)

    @pytest.mark.parametrize("case", ["scalar_lq", "lorenz63-0", "lorenz63-1", "lorenz63-2",
                                      "scalar_lq-100", "time_varying"])
    def test_multiple_shooting_agrees_with_single_shooting(self, monkeypatch, case):
        # Criterion 9's windows: N = 2048 is 32 segments, N = 256 four; one
        # segment of N steps is single shooting.  N = 100 is segments of 64
        # and 36 steps.  A drift that reads t needs each segment's own times.
        if case.startswith("scalar_lq"):
            n_steps = 100 if case.endswith("100") else 2048
            problem, xi = scalar_lq(TimeGrid(1.0, n_steps)), np.array([1.3])
        elif case == "time_varying":
            def rate(t):
                return (np.sin(2 * np.pi * np.asarray(t)) - 1.0)[..., None]

            model = ModelSpec(lambda t, x: rate(t) * x, np.eye(1),
                              lambda t, x: rate(t)[..., None] * np.eye(1))
            lq = scalar_lq(TimeGrid(1.0, 256))
            problem, xi = AssimilationProblem(model, lq.cost, lq.eta), np.array([1.3])
        else:
            seed = int(case[-1])
            problem, xi, truth = make_lorenz_twin(seed=seed, n_steps=256, T=0.5, noise=0.1)
        points = [xi]
        for e in 1e-4 * np.eye(len(xi)):
            points.extend([xi + e, xi - e])
        multiple = shoot_batch(problem, points)
        monkeypatch.setattr(shooting, "SEGMENT_STEPS", problem.eta.grid.n_steps)
        single = shoot_batch(problem, points)
        for a, b in zip(multiple, single):
            for field in ("x", "u", "lam"):
                gap = np.max(np.abs(getattr(a, field).values - getattr(b, field).values))
                assert gap < 1e-12

    def test_byte_budget_lengthens_segments_and_chunks_sweeps(self, monkeypatch):
        # 8 (2 n K)^2 bytes fit 1152 up to K = 2, so N = 256 takes two
        # segments of 128 steps, and 1152 / (8 n^2) = 16 members fit one
        # sweep step's Jacobians: the value probe's 7 x 11 members take five
        # sweeps.  Chunks change no bit.
        problem, xi, truth = make_lorenz_twin(n_steps=256, T=0.5)
        sweeps = spy_on_sweeps(monkeypatch)
        monkeypatch.setattr(shooting, "SHOOTING_BYTES", 1152)
        chunked = value_probe(problem, xi, h=1e-4)
        assert sweeps[0][1] == 128 and [len(f) for f, _ in sweeps[:5]] == [16, 16, 16, 16, 13]
        monkeypatch.setattr(shooting, "SHOOTING_BYTES", 1 << 24)
        monkeypatch.setattr(shooting, "SEGMENT_STEPS", 128)
        whole = value_probe(problem, xi, h=1e-4)
        for key in ("dV_fd", "lambda0", "max_abs_gap", "value"):
            assert np.array_equal(chunked[key], whole[key])


def spy_on_sweeps(monkeypatch) -> list:
    """Record the members' first nodes and the step count of every segment sweep."""
    sweeps = []
    sweep = shooting._sweep

    def spy(problem, xi, lambda0, first, steps):
        sweeps.append((np.broadcast_to(first, xi.shape[:-1]).tolist(), steps))
        return sweep(problem, xi, lambda0, first, steps)

    monkeypatch.setattr(shooting, "_sweep", spy)
    return sweeps


class TestValueProbe:
    def test_suite_valueprobe_sweeps_each_round_once(self, monkeypatch):
        # Three starts, xi and xi +/- h, each send a point with its K = 2048
        # / 64 = 32 segments and their FD columns, (2n + 1) K - n = 95
        # members, per round, all in one sweep of N / K = 64 steps.  The
        # starts at xi +/- h reach the tolerance after one step and take one
        # more; the start at xi needs two steps and lands at the rounding
        # floor, so it stops without a fourth round.
        sweeps = spy_on_sweeps(monkeypatch)
        suite_valueprobe(42)
        assert [len(firsts) for firsts, _ in sweeps] == [285, 285, 285]
        assert all(steps == 64 for _, steps in sweeps)
        segments = np.arange(0, 2048, 64)
        point = np.concatenate((segments, np.repeat(segments, 2)[1:]))
        assert sweeps[0][0] == np.tile(point, 3).tolist()

    def test_zero_cost_problem_has_zero_gradient(self):
        # q = 0 and eta = 0: the optimum is u = 0 with V(xi) = 0 for all xi.
        out = value_probe(scalar_lq(TimeGrid(1.0, 128), q=0.0), np.array([1.0]), h=1e-3)
        assert abs(out["value"]) < 1e-12
        assert out["max_abs_gap"] < 1e-9

    def test_scalar_lq_sensitivity_identity(self):
        a, q, r, T, n = -1.0, 1.0, 1.0, 1.0, 2048
        xi = np.array([1.3])
        out = value_probe(scalar_lq(TimeGrid(T, n), a, q, r), xi, h=1e-4)
        P = riccati_lq(a, q, r, T, n)
        # dV/dxi = P(0) xi = lambda(0)
        assert out["lambda0"][0] == pytest.approx(P[0] * xi[0], abs=2e-3)
        assert out["max_abs_gap"] < 1e-3

    def test_gradient_solver_sensitivity_identity(self):
        # The same problem through projected gradient; the default grad_tol
        # sits below the Heun-costate gradient floor at this N, so the
        # solve stops at 1e-4.
        problem = scalar_lq(TimeGrid(1.0, 2048), -1.0, 1.0, 1.0)
        out = value_probe(problem, np.array([1.3]), h=1e-4, solver="gradient",
                          opt_config=OptimizerConfig(grad_tol=1e-4, max_iters=3000))
        assert out["max_abs_gap"] < 1e-3

    def test_gradient_solver_rejects_unconverged_solves(self):
        # One iteration ends at max_iters, far from the optimum: its cost is
        # not a value, so no gap may be reported from it.
        problem = scalar_lq(TimeGrid(1.0, 256), a=1.0)
        with pytest.raises(NoConvergenceError, match="max_iters"):
            value_probe(problem, np.array([1.0]), h=1e-4, solver="gradient",
                        opt_config=OptimizerConfig(max_iters=1, grad_tol=1e-4))

    def test_invalid_arguments(self):
        problem = scalar_lq(TimeGrid(0.5, 16))
        with pytest.raises(InvalidSpecError):
            value_probe(problem, np.array([1.0]), h=0.0)
        with pytest.raises(InvalidSpecError):
            value_probe(problem, np.array([1.0]), h=1e-4, solver="newton")


def minimize_second_start(problem, xi):
    u0 = SampledPath.zeros(problem.eta.grid, 3)
    starts = [(np.ones(3), u0), (xi, u0)]
    return minimize_batch(problem, starts, OptimizerConfig())


@pytest.mark.parametrize("solve", [
    pytest.param(lambda p, xi: shoot(p, xi), id="shoot"),
    pytest.param(lambda p, xi: value_probe(p, xi, h=1e-4), id="value_probe"),
    pytest.param(lambda p, xi: hamiltonian_sweep(p, xi, np.zeros(3)),
                 id="integrate_hamiltonian"),
    pytest.param(lambda p, lam0: hamiltonian_sweep(p, np.ones(3), lam0),
                 id="integrate_hamiltonian-costate"),
    pytest.param(minimize_second_start, id="minimize_batch"),
    # Two initial states are a member axis: it must be the sweep's.
    pytest.param(lambda p, xi: rk4_sweep(
        p.model, np.zeros((4, p.eta.grid.n_nodes, 3)), np.ones((2, 3)), p.eta.grid
    ), id="rk4_sweep-members"),
    pytest.param(lambda p, xi: hamiltonian_sweep(p, np.ones((2, 3)), np.zeros((4, 3))),
                 id="hamiltonian_sweep-members"),
    pytest.param(lambda p, xi: integrate_state(
        p.model, SampledPath.zeros(p.eta.grid, 3), np.ones((2, 3)), p.eta.grid
    ), id="integrate_state-members"),
])
def test_initial_state_shape_checked(solve):
    # A 2-vector start (or initial costate) for Lorenz'63 is a spec error, as
    # in integrate_state; so is a member axis that does not fit, never a
    # numpy broadcast error.
    problem, xi, truth = make_lorenz_twin(n_steps=16, T=0.1)
    with pytest.raises(InvalidSpecError, match=r"initial (state|costate) must have shape \(3,\)"):
        solve(problem, np.array([1.0, 25.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("solve", [
    pytest.param(lambda p, xi: rk4_sweep(p.model, np.zeros((p.eta.grid.n_nodes, 3)), xi,
                                         p.eta.grid), id="rk4_sweep"),
    pytest.param(lambda p, xi: integrate_state(p.model, SampledPath.zeros(p.eta.grid, 3), xi,
                                               p.eta.grid), id="integrate_state"),
    pytest.param(lambda p, xi: minimize(p, xi, SampledPath.zeros(p.eta.grid, 3),
                                        OptimizerConfig()), id="minimize"),
    pytest.param(lambda p, xi: hamiltonian_sweep(p, xi, np.zeros(3)), id="hamiltonian_sweep"),
    pytest.param(lambda p, lam0: hamiltonian_sweep(p, np.ones(3), lam0),
                 id="hamiltonian_sweep-costate"),
    pytest.param(lambda p, xi: shoot(p, xi), id="shoot"),
    pytest.param(lambda p, xi: value_probe(p, xi, h=1e-4), id="value_probe"),
])
def test_initial_state_must_be_finite(solve, bad):
    # A non-finite start is an invalid input, not a blow-up at node 0 or 1
    # or a shooting failure at the initial guess.
    problem, xi, truth = make_lorenz_twin(n_steps=16, T=0.1)
    with pytest.raises(InvalidSpecError, match=r"initial (state|costate) must be finite"):
        solve(problem, np.array([1.0, bad, 25.0]))


def test_huge_finite_start_fails_to_converge_without_a_warning():
    # lambda(T) stays finite, but its squared norm overflows; the Newton
    # residual is then inf, not a RuntimeWarning escaping shoot.
    problem = scalar_lq(TimeGrid(0.5, 4))
    with pytest.raises(NoConvergenceError):
        shoot(problem, [1e200])
