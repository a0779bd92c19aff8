"""The member axis: independent solves stacked along a leading (B, ...) axis
through the RK4, costate, Hamiltonian and duality sweeps, and the lockstep
drivers of the multistart optimizer and of shooting.

A member of a batch must give exactly what it gives alone, so every
comparison with the one-member path is bit for bit.  The costate's step
loop equals the per-step oracle bit for bit; its affine scan, which
reassociates the products, equals it to 1e-12 of the largest costate entry.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from roughassim import adjoint, checks, dynamics, optimizer, shooting
from roughassim.adjoint import (
    _control_gradients,
    control_gradient,
    costate_sweep,
    duality_check,
    duality_sweep,
    pointwise_hamiltonian_minimizer,
    solve_costate,
)
from roughassim.cost import (
    QuadraticCostSpec,
    _eval_costs,
    build_minimum_energy,
    build_onsager_machlup,
    coordinate_observation,
    eval_cost,
)
from roughassim.dynamics import (
    ModelSpec,
    integrate_state,
    linear_model,
    lorenz63_model,
    lorenz96_model,
    rk4_sweep,
)
from roughassim.errors import BlowUpError, NoConvergenceError
from roughassim.experiments import (
    _multistart_initials,
    build_cost,
    load_config,
    run_assimilation,
    simulate_truth,
)
from roughassim.grid import SampledPath, TimeGrid
from roughassim.optimizer import OptimizerConfig, minimize, minimize_batch
from roughassim.problem import AssimilationProblem, ControlSetSpec
from roughassim.shooting import (
    hamiltonian_sweep,
    shoot,
    shoot_batch,
    value_probe,
)

from conftest import make_lorenz_twin, scalar_lq, zero_eta
from oracles import (
    cost_central_difference,
    costate_reference,
    duality_reference,
    eval_cost_one_path,
)

L63_ME = {
    "model": {"name": "lorenz63"},
    "grid": {"T": 1.0, "n_steps": 256},
    "truth": {"initial_state": [1.0, 1.0, 25.0]},
    "observation": {"h_indices": "full", "R": 1.0, "noise_scale": 0.1, "seed": 3},
    "assimilation": {"initial_state": [1.5, 0.5, 24.0]},
    "cost": {"kind": "minimum_energy", "S": 50.0},
    "optimizer": {"grad_tol": 0.02, "max_iters": 200, "multistart": 4},
}
L96_OM_BOX = {
    "model": {"name": "lorenz96", "params": {"n": 8, "forcing": 8.0}},
    "grid": {"T": 0.5, "n_steps": 128},
    "truth": {"initial_state": [8.0, 8.5, 7.5, 8.0, 9.0, 7.0, 8.2, 7.8]},
    "observation": {"h_indices": [0, 2, 4, 6], "R": 1.0, "noise_scale": 0.1, "seed": 11},
    "assimilation": {"initial_state": [8.3, 8.1, 7.9, 8.4, 8.6, 7.2, 8.0, 7.5]},
    "cost": {"kind": "onsager_machlup"},
    "control_set": {"kind": "box", "lo": -1.0, "hi": 1.0},
    "optimizer": {"grad_tol": 0.05, "max_iters": 200, "multistart": 4},
}


def assert_same_result(a, b):
    for field in ("x", "u", "lam"):
        assert np.array_equal(getattr(a.triple, field).values, getattr(b.triple, field).values)
    assert a.cost_trace == b.cost_trace
    assert a.grad_norm_trace == b.grad_norm_trace
    assert (a.iterations, a.status, a.mp_residual) == (b.iterations, b.status, b.mp_residual)


@pytest.mark.parametrize("raw", [L63_ME, L96_OM_BOX], ids=["lorenz63_me", "lorenz96_om_box"])
def test_multistart_batch_equals_serial_starts(raw):
    config = load_config(raw)
    _, eta = simulate_truth(config)
    problem = AssimilationProblem(config.model, build_cost(config), eta, config.control_set)
    xi, opt = config.assim_initial_state, config.optimizer
    starts = list(_multistart_initials(config))
    serial = [minimize(problem, xi, u0, opt) for u0 in starts]
    batch = minimize_batch(problem, [(xi, u0) for u0 in starts], opt)
    assert len(batch) == len(serial) == 4
    for a, b in zip(batch, serial):
        assert_same_result(a, b)
    # The starts leave the batch at different iterations (one Lorenz'63
    # start stalls), so the batch shrinks as it goes.
    assert len({r.iterations for r in serial}) > 1
    best = run_assimilation(config, eta)
    assert_same_result(best, min(serial, key=lambda r: r.final_cost))


def riccati_model():
    """xdot = x^2 + u: blows up in finite time once the control pushes x up."""
    return ModelSpec(lambda t, x: x * x, [[1.0]], lambda t, x: 2.0 * x[..., None])


def riccati_problem(slope=2.0):
    h, h_jac = coordinate_observation([0], 1)
    cost = build_minimum_energy(QuadraticCostSpec(h=h, h_jac=h_jac, R=np.eye(1), S=np.eye(1)))
    grid = TimeGrid(1.0, 64)
    # A rising observation path rewards large x, so long trial steps blow up.
    eta = SampledPath(grid, slope * grid.times)
    return AssimilationProblem(riccati_model(), cost, eta)


def test_trial_blow_up_shrinks_only_its_own_step(monkeypatch):
    problem = riccati_problem()
    grid = problem.eta.grid
    xi = np.array([0.5])
    starts = [SampledPath(grid, np.full((grid.n_nodes, 1), c)) for c in (0.0, -1.0, -5.0)]
    config = OptimizerConfig(grad_tol=1e-3, max_iters=200)
    rounds = []
    sweep = optimizer.rk4_sweep

    def spy(*args):
        values, blown = sweep(*args)
        rounds.append(blown.copy())
        return values, blown

    monkeypatch.setattr(optimizer, "rk4_sweep", spy)
    batch = minimize_batch(problem, [(xi, u0) for u0 in starts], config)
    # Some batched round had a member blow up beside a member that did not.
    assert any((r >= 0).any() and (r < 0).any() for r in rounds)
    monkeypatch.undo()
    for u0, result in zip(starts, batch):
        assert_same_result(result, minimize(problem, xi, u0, config))


def test_overflowing_trial_cost_shrinks_the_step():
    # eta = 20 t rewards large x so strongly that long trial steps leave the
    # state finite but overflow its running cost; such a trial is a blow-up
    # (the step shrinks), not a RuntimeWarning escaping minimize.
    problem = riccati_problem(slope=20.0)
    grid = problem.eta.grid
    huge = SampledPath(grid, np.full((grid.n_nodes, 1), 1e200))
    with pytest.raises(BlowUpError):
        eval_cost(problem.cost, huge, SampledPath.zeros(grid, 1), problem.eta)
    result = minimize(problem, np.array([0.5]), SampledPath.zeros(grid, 1), OptimizerConfig())
    assert result.iterations >= 1 and np.all(np.diff(result.cost_trace) < 0)


def test_first_forward_blow_up_raises_the_serial_error():
    problem = riccati_problem()
    model, grid = problem.model, problem.eta.grid
    xi = np.array([0.5])
    # Start 1 blows up on its first forward solve; start 2 blows up earlier
    # in the grid, but the serial order never reaches it.
    starts = [SampledPath(grid, np.full((grid.n_nodes, 1), c)) for c in (0.0, 50.0, 1e4)]
    config = OptimizerConfig(grad_tol=1e-3, max_iters=50)

    def node_of(u0):
        with pytest.raises(BlowUpError) as err:
            integrate_state(model, u0, xi, grid)
        return err.value.node_index

    assert node_of(starts[2]) < node_of(starts[1])
    with pytest.raises(BlowUpError) as serial:
        for u0 in starts:
            minimize(problem, xi, u0, config)
    with pytest.raises(BlowUpError) as batch:
        minimize_batch(problem, [(xi, u0) for u0 in starts], config)
    assert batch.value.node_index == serial.value.node_index == node_of(starts[1])
    assert str(batch.value) == str(serial.value)


@pytest.mark.parametrize("model", [lorenz96_model(9), lorenz63_model()],
                         ids=["lorenz96", "lorenz63"])
def test_rk4_sweep_members_equal_one_member_sweeps(model):
    # A batch always takes the array stepper; a lone Lorenz'63 member takes
    # the float one, so there this also holds the two steppers equal.
    n = model.state_dim
    grid = TimeGrid(0.5, 100)
    rng = np.random.default_rng(4)
    U = rng.normal(size=(5, grid.n_nodes, n))
    U[3] *= 1e80  # this member overflows; the others must not notice
    shared = 8.0 + rng.normal(size=n)
    own = 8.0 + rng.normal(size=(5, n))
    for xi in (shared, own):  # one initial state for all members, or one each
        values, blown = rk4_sweep(model, U, xi, grid)
        for b in range(5):
            xb = xi if xi.ndim == 1 else xi[b]
            alone, node = rk4_sweep(model, U[b], xb, grid)
            assert node == blown[b]
            if node < 0:
                assert values[b].tobytes() == alone.tobytes()
                path = integrate_state(model, SampledPath(grid, U[b]), xb, grid)
                assert values[b].tobytes() == path.values.tobytes()
            else:
                assert values[b, :node].tobytes() == alone[:node].tobytes()
        assert blown[3] > 0 and (np.delete(blown, 3) == -1).all()


def assert_scan_close(lam, ref):
    """The scan's costate within 1e-12 of the oracle's largest entry."""
    assert np.max(np.abs(lam - ref), initial=0.0) <= 1e-12 * np.max(np.abs(ref), initial=0.0)


@pytest.mark.parametrize("block_bytes",
                         [adjoint.COSTATE_BLOCK_BYTES, 1, 8 * 9 * 9 * 37, 8 * 9 * 37])
def test_costate_sweep_equals_the_per_step_loop(monkeypatch, block_bytes):
    # One block, one node per block, and 37-node blocks that do not divide
    # the grid: the scan to rounding, the step loop bit for bit.
    monkeypatch.setattr(adjoint, "COSTATE_BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(adjoint, "_LOOP_BLOCK_BYTES", block_bytes)
    problem, xi, truth = make_lorenz_twin(n_steps=200)
    grid = problem.eta.grid
    u = SampledPath(grid, np.random.default_rng(1).normal(size=(grid.n_nodes, 3)))
    ref = costate_reference(problem, truth, u)
    assert_scan_close(solve_costate(problem, truth, u).values, ref)
    monkeypatch.setattr(adjoint, "COSTATE_SCAN_MAX_DIM", 2)
    assert np.array_equal(solve_costate(problem, truth, u).values, ref)


@st.composite
def costate_cases(draw):
    """A problem of state dimension n on either side of the scan crossover,
    B = 1 or 3 members (one of them possibly huge, so its costate blows
    up), the sweep's crossover and its block in nodes."""
    n = draw(st.sampled_from([1, 3, 4, 9, 12]))
    if n == 1:
        model = linear_model([[draw(st.floats(-3.0, 3.0))]])
    else:
        model = lorenz63_model() if n == 3 else lorenz96_model(n)
    grid = TimeGrid(draw(st.floats(0.01, 1.0)), draw(st.integers(1, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    observed = range(0, n, 2)
    h, h_jac = coordinate_observation(observed, n)
    d = len(observed)
    cost = build_minimum_energy(QuadraticCostSpec(h=h, h_jac=h_jac, R=np.eye(d), S=np.eye(n)))
    problem = AssimilationProblem(model, cost, SampledPath(grid, rng.normal(size=(grid.n_nodes, d))))
    B = draw(st.sampled_from([1, 3]))
    X = (1.0 if n == 3 else 8.0) + rng.normal(size=(B, grid.n_nodes, n))
    X[draw(st.integers(0, B - 1))] *= draw(st.sampled_from([1.0, 1e120]))
    U = rng.normal(size=(B, grid.n_nodes, n))
    crossover = draw(st.sampled_from([adjoint.COSTATE_SCAN_MAX_DIM, 0, 100]))
    block = draw(st.one_of(st.just(None), st.integers(1, 64)))
    return problem, X, U, crossover, block


class TestCostateScan:
    """The costate sweep against :func:`oracles.costate_reference` on both
    sides of the scan crossover, in one block and in many."""

    @given(costate_cases())
    @settings(deadline=None, derandomize=True)
    def test_sweep_equals_the_oracle(self, case):
        problem, X, U, crossover, block = case
        n = problem.model.state_dim
        block_bytes = adjoint.COSTATE_BLOCK_BYTES if block is None else 8 * n * n * block
        loop_bytes = adjoint._LOOP_BLOCK_BYTES if block is None else block_bytes
        scan = n <= crossover
        event("scan" if scan else "loop")
        with mock.patch.object(adjoint, "COSTATE_SCAN_MAX_DIM", crossover), \
                mock.patch.object(adjoint, "COSTATE_BLOCK_BYTES", block_bytes), \
                mock.patch.object(adjoint, "_LOOP_BLOCK_BYTES", loop_bytes):
            lam, blown = costate_sweep(problem, X, U)
            grid = problem.eta.grid
            for b in range(len(X)):
                x, u = SampledPath(grid, X[b]), SampledPath(grid, U[b])
                try:
                    ref = costate_reference(problem, x, u)
                except BlowUpError as err:
                    event("blown up")
                    assert blown[b] == err.node_index
                else:
                    assert blown[b] == -1
                    if scan:
                        assert_scan_close(lam[b], ref)
                    else:
                        assert lam[b].tobytes() == ref.tobytes()
                alone, node = costate_sweep(problem, X[b], U[b])
                assert node == blown[b]
                if node < 0:
                    assert lam[b].tobytes() == alone.tobytes()


@st.composite
def duality_cases(draw):
    """A duality problem in n = 1, 2 or 3 components on up to 512 steps for
    B = 1 to 4 members: random-walk drivers and a coefficient that is zero
    or a smooth random draw per member."""
    n = draw(st.sampled_from([1, 2, 3]))
    grid = TimeGrid(draw(st.floats(0.1, 2.0)), draw(st.integers(1, 512)))
    B = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wave = np.sin(2 * np.pi * grid.times)[:, None, None]
    M = rng.normal(size=(B, 1, n, n)) + wave * rng.normal(size=(B, 1, n, n))
    M *= draw(st.sampled_from([1.0, 0.0]))
    a, b = np.cumsum(rng.normal(size=(2, B, grid.n_nodes, n)), axis=2)
    return grid, M, a, b, rng.normal(size=(B, n)), rng.normal(size=(B, n))


class TestDualityScan:
    """The duality sweep against :func:`oracles.duality_reference`, whose
    Heun loops it composes as affine maps on the scan."""

    @given(duality_cases())
    @settings(deadline=None, derandomize=True)
    def test_sweep_equals_the_oracle(self, case):
        grid, M, a, b, zeta0, lambdaT = case
        resids = duality_sweep(grid, M, a, b, zeta0, lambdaT)
        for k in range(len(M)):
            ref, zeta, lam = duality_reference(grid, M[k], a[k], b[k], zeta0[k], lambdaT[k])
            # The size of the pairings the residual is a difference of.
            scale = np.max(np.abs(np.vecdot(lam, zeta)))
            assert abs(resids[k] - ref) <= 1e-12 * scale
            if not np.any(M[k]):
                # The identity is exact in exact arithmetic: both read rounding.
                event("M = 0")
                rounding = 8 * grid.n_steps * np.finfo(float).eps * scale
                assert max(resids[k], ref) <= rounding


@st.composite
def stacked_cost_cases(draw):
    """A minimum-energy or Onsager-Machlup problem on Lorenz'63, Lorenz'96
    or a linear model with a random G (m = 2 controls on 3 states, or
    3), and B = 1 to 4 members' states, controls and costates; signed zeros
    among them, and possibly one member so huge that its running cost
    overflows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["lorenz63", "lorenz96-4", "lorenz96-9", "linear-2", "linear-3"]))
    if kind.startswith("linear"):
        model = linear_model(rng.normal(size=(3, 3)), rng.normal(size=(3, int(kind[-1]))))
    else:
        model = lorenz63_model() if kind == "lorenz63" else lorenz96_model(int(kind[-1]))
    n, m = model.state_dim, model.control_dim
    grid = TimeGrid(draw(st.floats(0.01, 1.0)), draw(st.integers(1, 200)))
    observed = range(0, n, 2)
    h, h_jac = coordinate_observation(observed, n)
    d = len(observed)
    quad = QuadraticCostSpec(h=h, h_jac=h_jac, R=np.diag(1.0 + rng.random(d)), S=np.eye(m))
    if m == n and draw(st.booleans()):
        cost = build_onsager_machlup(quad, model)
    else:
        cost = build_minimum_energy(quad)
    eta = SampledPath(grid, np.cumsum(rng.normal(size=(grid.n_nodes, d)), axis=0))
    problem = AssimilationProblem(model, cost, eta)
    B = draw(st.integers(1, 4))
    X, U, L = (5.0 * rng.normal(size=(B, grid.n_nodes, k)) for k in (n, m, n))
    for values in (X, U, L):
        values[rng.random(values.shape) < 0.1] = -0.0
    if draw(st.booleans()):
        X[draw(st.integers(0, B - 1)), draw(st.integers(0, grid.n_steps)):] *= 1e200
    return problem, X, U, L


class TestStackedCosts:
    """The stacked cost and control-gradient kernels the optimizer answers a
    round with: each member's row is its own one-path call, bit for bit,
    and its cost the whole-array sums of :func:`oracles.eval_cost_one_path`."""

    @given(stacked_cost_cases())
    @settings(deadline=None, derandomize=True)
    def test_members_equal_their_one_path_calls(self, case):
        problem, X, U, L = case
        grid = problem.eta.grid
        costs, bad = _eval_costs(problem.cost, X, U, problem.eta)
        grads = _control_gradients(problem, grid, X, U, L)
        for b in range(len(X)):
            x, u, lam = (SampledPath(grid, v[b]) for v in (X, U, L))
            alone = control_gradient(problem, x, u, lam).values
            assert grads[b].tobytes() == alone.tobytes()
            try:
                J = eval_cost(problem.cost, x, u, problem.eta)
            except BlowUpError as err:
                event("running cost overflows")
                assert bad[b] == err.node_index >= 0
            else:
                assert bad[b] == -1
                ref = eval_cost_one_path(problem.cost, X[b], U[b], problem.eta)
                assert costs[b].tobytes() == np.float64(J).tobytes() == np.float64(ref).tobytes()

    def test_a_blown_cost_is_answered_alone(self):
        # xdot = 700 x: from x = 1 the RK4 states stay finite to the last
        # node, but x^2 / 2 overflows from some node on; from x = 0 and
        # x = 1e-200 the cost is finite.
        problem = scalar_lq(TimeGrid(1.0, 64), a=700.0)
        grid = problem.eta.grid
        u0 = SampledPath.zeros(grid, 1)
        starts = [np.array([0.0]), np.array([1.0]), np.array([1e-200])]
        requests = [(xi, u0.values) for xi in starts]
        answers = optimizer._solve(optimizer.FORWARD, requests, problem)
        for xi, answer in zip(starts, answers):
            x = integrate_state(problem.model, u0, xi, grid)
            try:
                J = eval_cost(problem.cost, x, u0, problem.eta)
            except BlowUpError as err:
                assert isinstance(answer, BlowUpError)
                assert answer.node_index == err.node_index > 0
                assert str(answer) == str(err)
            else:
                states, cost = answer
                assert states.tobytes() == x.values.tobytes()
                assert cost == J
        assert isinstance(answers[1], BlowUpError)


def test_costate_loop_blocks_keep_the_bytes(monkeypatch):
    # Lorenz'96 n = 40 steps the Heun loop in blocks that keep a member's
    # Jacobians in cache; four members give the same bytes as in one block.
    model = lorenz96_model(40)
    grid = TimeGrid(0.5, 256)
    rng = np.random.default_rng(6)
    h, h_jac = coordinate_observation(range(0, 40, 2), 40)
    quad = QuadraticCostSpec(h=h, h_jac=h_jac, R=np.eye(20), S=np.eye(40))
    eta = SampledPath(grid, np.cumsum(rng.normal(size=(grid.n_nodes, 20)), axis=0))
    problem = AssimilationProblem(model, build_onsager_machlup(quad, model), eta)
    X = 8.0 + 3.0 * rng.normal(size=(4, grid.n_nodes, 40))
    U = rng.uniform(-1.0, 1.0, size=(4, grid.n_nodes, 40))
    assert adjoint._LOOP_BLOCK_BYTES // (8 * 40 * 40) < grid.n_steps // 4
    blocked, blown = costate_sweep(problem, X, U)
    monkeypatch.setattr(adjoint, "_LOOP_BLOCK_BYTES", adjoint.COSTATE_BLOCK_BYTES)
    whole, whole_blown = costate_sweep(problem, X, U)
    assert np.all(blown == -1) and np.all(whole_blown == -1)
    assert blocked.tobytes() == whole.tobytes()


def test_costate_sweep_members_equal_one_member_sweeps():
    model = lorenz96_model(9)
    grid = TimeGrid(0.5, 100)
    rng = np.random.default_rng(2)
    h, h_jac = coordinate_observation(range(0, 9, 2), 9)
    cost = build_minimum_energy(QuadraticCostSpec(h=h, h_jac=h_jac, R=np.eye(5), S=np.eye(9)))
    eta = SampledPath(grid, rng.normal(size=(grid.n_nodes, 5)))
    problem = AssimilationProblem(model, cost, eta)
    X = 8.0 + rng.normal(size=(3, grid.n_nodes, 9))
    X[1] *= 1e120  # its costate overflows
    U = rng.normal(size=(3, grid.n_nodes, 9))
    lam, blown = costate_sweep(problem, X, U)
    for b in range(3):
        alone, node = costate_sweep(problem, X[b], U[b])
        assert node == blown[b]
        if node < 0:
            assert np.array_equal(lam[b], alone)
    assert blown[1] >= 0 and blown[0] == blown[2] == -1


def test_costate_blow_up_reports_the_per_step_node():
    # A huge drift matrix on a coarse grid: the backward sweep overflows
    # after some steps, at the node where the per-step check stopped.
    grid = TimeGrid(100.0, 40)
    problem = scalar_lq(grid, a=1e4)
    x = SampledPath(grid, np.ones((grid.n_nodes, 1)))
    u = SampledPath.zeros(grid, 1)
    with pytest.raises(BlowUpError) as ref:
        costate_reference(problem, x, u)
    with pytest.raises(BlowUpError) as err:
        solve_costate(problem, x, u)
    assert 0 < err.value.node_index == ref.value.node_index < grid.n_steps - 1
    _, blown = costate_sweep(problem, np.stack([x.values] * 2), np.stack([u.values] * 2))
    assert list(blown) == [ref.value.node_index] * 2


def test_costate_stays_zero_under_an_overflowing_product():
    # No forcing: the costate is zero however fast the backward dynamics
    # grow.  The scan's products of 64 step maps overflow, and zero times
    # inf is NaN, so the block must fall back to the step loop rather than
    # report a blow-up the loop never meets.
    grid = TimeGrid(100.0, 128)
    problem = scalar_lq(grid, a=1e4)
    x, u = SampledPath.zeros(grid, 1), SampledPath.zeros(grid, 1)
    assert np.array_equal(costate_reference(problem, x, u), np.zeros((grid.n_nodes, 1)))
    assert np.array_equal(solve_costate(problem, x, u).values, np.zeros((grid.n_nodes, 1)))


def test_single_start_is_a_one_member_batch():
    # One start's forward and costate solves are batches of one member.
    grid = TimeGrid(1.0, 64)
    with mock.patch.object(optimizer, "rk4_sweep", wraps=rk4_sweep) as forward, \
            mock.patch.object(optimizer, "costate_sweep", wraps=costate_sweep) as backward:
        result = minimize(scalar_lq(grid), np.array([1.0]), SampledPath.zeros(grid, 1),
                          OptimizerConfig(grad_tol=1e-3))
    assert result.status == "converged"
    for spy in (forward, backward):
        assert spy.call_count >= 1
        assert all(call.args[1].shape[:-2] == (1,) for call in spy.call_args_list)
    # A Lorenz'63 start steps its forward sweeps in floats, bit for bit the arrays.
    problem, xi, _ = make_lorenz_twin(n_steps=128, T=0.5)
    config = OptimizerConfig(grad_tol=1e-2, max_iters=20)
    u0 = SampledPath.zeros(problem.eta.grid, 3)
    with mock.patch.object(dynamics, "_float_sweep", wraps=dynamics._float_sweep) as spy:
        floats = minimize(problem, xi, u0, config)
    assert spy.call_count >= 1
    array_problem = replace(problem, model=replace(problem.model, float_step=None))
    arrays_ = minimize(array_problem, xi, u0, config)
    for path in ("x", "u", "lam"):
        ours, theirs = getattr(floats.triple, path), getattr(arrays_.triple, path)
        assert ours.values.tobytes() == theirs.values.tobytes()
    assert floats.cost_trace == arrays_.cost_trace
    assert floats.status == arrays_.status


def hamiltonian_reference(problem, xi, lambda0):
    """The per-step Hamiltonian loop the sweep replaced, raising at the first
    node where x or lambda turns non-finite."""
    model, cost, eta = problem.model, problem.cost, problem.eta
    grid = eta.grid
    dt, times, deta = grid.dt, grid.times, eta.increments()
    xs = np.empty((grid.n_nodes, model.state_dim))
    ls = np.empty((grid.n_nodes, model.state_dim))
    us = np.empty((grid.n_nodes, model.control_dim))
    xs[0], ls[0] = xi, lambda0

    def upoint(t, xv, lv):
        return pointwise_hamiltonian_minimizer(problem, t, xv, lv)

    def d2m(t, xv, lv, uv):
        return cost.D2phi(t, xv, uv) + lv @ model.D2f(t, xv)

    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(grid.n_steps):
            t0, t1, x0, l0 = times[i], times[i + 1], xs[i], ls[i]
            us[i] = u0 = upoint(t0, x0, l0)
            x1 = model.rk4_step(t0, x0, u0, dt)
            young = deta[i] @ cost.D2psi(t0, x0)
            r0 = d2m(t0, x0, l0, u0)
            pred = l0 - dt * r0 - young
            r1 = d2m(t1, x1, pred, upoint(t1, x1, pred))
            l1 = l0 - 0.5 * dt * (r0 + r1) - young
            if not (np.all(np.isfinite(x1)) and np.all(np.isfinite(l1))):
                raise BlowUpError(i + 1)
            xs[i + 1], ls[i + 1] = x1, l1
    us[-1] = upoint(times[-1], xs[-1], ls[-1])
    return xs, ls, us


def riccati2_problem():
    """xdot = x * x + u componentwise in two dimensions, phi = |x|^2/2 + |u|^2/2.

    From (0.3, 0.5) shooting converges; raising either coordinate by 0.8
    blows the free solve up, the second coordinate at an earlier node.
    """
    model = ModelSpec(lambda t, x: x * x, np.eye(2), lambda t, x: 2.0 * x[..., None] * np.eye(2))
    h, h_jac = coordinate_observation([0, 1], 2)
    cost = build_minimum_energy(QuadraticCostSpec(h=h, h_jac=h_jac, R=np.eye(2), S=np.eye(2)))
    return AssimilationProblem(model, cost, zero_eta(TimeGrid(1.0, 64), 2))


def assert_same_triple(a, b):
    for field in ("x", "u", "lam"):
        assert np.array_equal(getattr(a, field).values, getattr(b, field).values)


def test_hamiltonian_sweep_members_equal_one_member_runs():
    unconstrained, xi, truth = make_lorenz_twin(n_steps=256, T=0.5)
    rng = np.random.default_rng(5)
    xis = xi + rng.normal(size=(4, 3))
    lams = rng.normal(size=(4, 3))
    lams[2] = 1e200  # this member's control overflows the state
    box = replace(
        unconstrained,
        control_set=ControlSetSpec(kind="box", lo=-np.full(3, 5.0), hi=np.full(3, 5.0)),
    )
    for problem in (unconstrained, box):
        xs, ls, us, blown = hamiltonian_sweep(problem, xis, lams)
        for b in range(4):
            *alone, alone_blown = hamiltonian_sweep(problem, xis[b], lams[b])
            assert blown[b] == alone_blown
            if b == 2 and problem is unconstrained:
                assert alone_blown > 0
                continue
            assert blown[b] == -1
            for batched, values in zip((xs[b], ls[b], us[b]), alone):
                assert np.array_equal(batched, values)
            ref = hamiltonian_reference(problem, xis[b], lams[b])
            for batched, loop in zip((xs[b], ls[b], us[b]), ref):
                assert np.array_equal(batched, loop)
    # One shared initial costate broadcasts against the members' states.
    xs, ls, us, blown = hamiltonian_sweep(unconstrained, xis, lams[0])
    alone = hamiltonian_sweep(unconstrained, xis[3], lams[0])
    assert np.array_equal(ls[3], alone[1]) and (blown == -1).all()


def test_hamiltonian_blow_up_reports_the_per_step_node():
    problem = riccati2_problem()
    xi, lam0 = np.array([0.3, 1.3]), np.zeros(2)
    with pytest.raises(BlowUpError) as ref:
        hamiltonian_reference(problem, xi, lam0)
    blown = hamiltonian_sweep(problem, xi, lam0)[-1]
    assert 0 < blown == ref.value.node_index < problem.eta.grid.n_steps


@pytest.mark.parametrize("case", ["scalar_lq", "lorenz63"])
def test_shoot_batch_equals_per_start_shoot(monkeypatch, case):
    if case == "scalar_lq":
        problem = scalar_lq(TimeGrid(1.0, 1024))
        starts = [np.array([1.3]), np.array([-0.4]), np.array([2.0])]
    else:  # criterion 9's Lorenz'63 window
        problem, xi, truth = make_lorenz_twin(n_steps=256, T=0.5, noise=0.1)
        starts = [xi, xi + np.array([1e-4, 0.0, 0.0]), xi - np.array([0.0, 0.0, 1e-4])]
    sweeps = []
    sweep = shooting._sweep

    def spy(problem, xi, lambda0, first, steps):
        sweeps.append(len(xi))
        return sweep(problem, xi, lambda0, first, steps)

    monkeypatch.setattr(shooting, "_sweep", spy)
    batch = shoot_batch(problem, starts)
    batched_sweeps = len(sweeps)
    serial = [shoot(problem, xi) for xi in starts]
    # The starts shared their sweeps: fewer of them, some with several
    # starts' members.
    assert batched_sweeps < len(sweeps) - batched_sweeps
    assert max(sweeps[:batched_sweeps]) > max(sweeps[batched_sweeps:])
    for a, b in zip(batch, serial):
        assert_same_triple(a, b)
        assert abs(a.lam.values[-1]).max() < 1e-9


@pytest.mark.parametrize("solver", ["shoot", "gradient"])
def test_value_probe_raises_the_first_failing_points_error(solver):
    problem = riccati2_problem()
    xi = np.array([0.3, 0.5])
    h = 0.8 if solver == "shoot" else 0.4
    config = OptimizerConfig(grad_tol=1e-3, max_iters=8)
    points = [xi, xi + [h, 0.0], xi - [h, 0.0], xi + [0.0, h], xi - [0.0, h]]
    failures = {}  # point -> (message, best residual) of its own solve
    for k, z in enumerate(points):
        if solver == "shoot":
            try:
                shoot(problem, z)
            except NoConvergenceError as err:
                failures[k] = (str(err), err.best_residual)
            continue
        result = minimize(problem, z, SampledPath.zeros(problem.eta.grid, 2), config)
        if result.status != "converged":
            message = f"gradient solve did not converge: {result.status}"
            failures[k] = (message, result.grad_norm_trace[-1])
    # Shooting fails at points 1 and 3, point 3 at an earlier grid node;
    # the gradient solve stalls at point 1 and runs out of iterations at
    # point 3 (and 4), after the batch has run every point to its end.
    assert sorted(failures) == ([1, 3] if solver == "shoot" else [1, 3, 4])
    assert failures[1] != failures[3]
    with pytest.raises(NoConvergenceError) as probe:
        value_probe(problem, xi, h=h, solver=solver, opt_config=config)
    assert (str(probe.value), probe.value.best_residual) == failures[1]


def test_gradient_value_probe_is_one_batch_equal_to_serial_solves(monkeypatch):
    problem, xi, truth = make_lorenz_twin(n_steps=256, T=0.5, noise=0.1)
    h, config = 1e-4, OptimizerConfig(grad_tol=1e-3, max_iters=200)
    initial_states = []
    sweep = optimizer.rk4_sweep

    def spy(model, uv, xi, grid):
        initial_states.append(np.shape(xi))
        return sweep(model, uv, xi, grid)

    monkeypatch.setattr(optimizer, "rk4_sweep", spy)
    probe = value_probe(problem, xi, h=h, solver="gradient", opt_config=config)
    monkeypatch.undo()
    # The forward solves ran as member sweeps, each member from its own point.
    assert initial_states[0] == (7, 3) and all(len(s) == 2 for s in initial_states)
    points = [xi]
    for e in h * np.eye(3):
        points.extend([xi + e, xi - e])
    grid = problem.eta.grid
    serial = [minimize(problem, z, SampledPath.zeros(grid, 3), config) for z in points]
    assert all(r.status == "converged" for r in serial)
    values = [r.final_cost for r in serial]
    dv = np.array([(values[1 + 2 * i] - values[2 + 2 * i]) / (2.0 * h) for i in range(3)])
    assert np.array_equal(probe["dV_fd"], dv)
    assert np.array_equal(probe["lambda0"], serial[0].triple.lam.values[0])
    assert probe["value"] == values[0]
    assert probe["max_abs_gap"] == float(np.max(np.abs(dv - probe["lambda0"])))


def test_duality_sweep_members_equal_duality_check():
    grid = TimeGrid(1.0, 64)
    rng = np.random.default_rng(9)
    M = rng.normal(size=(5, 1, 2, 2)) + np.sin(grid.times)[:, None, None] * rng.normal(
        size=(5, 1, 2, 2)
    )
    a = np.cumsum(rng.normal(size=(5, grid.n_nodes, 2)), axis=1)
    b = np.cumsum(rng.normal(size=(5, grid.n_nodes, 2)), axis=1)
    zeta0, lambdaT = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
    resids = duality_sweep(grid, M, a, b, zeta0, lambdaT)
    assert resids.shape == (5,)
    for k in range(5):
        paths = (SampledPath(grid, v) for v in (a[k], b[k]))
        assert resids[k] == duality_check(M[k], *paths, zeta0[k], lambdaT[k])


@pytest.fixture
def paths_built(monkeypatch):
    """A one-item list counting the SampledPaths built from now on."""
    count = [0]
    init = SampledPath.__init__

    def counted(self, grid, values):
        count[0] += 1
        init(self, grid, values)

    monkeypatch.setattr(SampledPath, "__init__", counted)
    return count


class TestPathsStayArrays:
    """Behind the public doors the solvers exchange arrays: a path is built
    only where a door returns one or a door under test takes one."""

    def test_a_batch_builds_only_its_results_paths(self, paths_built):
        config = load_config(L96_OM_BOX)
        _, eta = simulate_truth(config)
        problem = AssimilationProblem(config.model, build_cost(config), eta, config.control_set)
        starts = [(config.assim_initial_state, u0) for u0 in _multistart_initials(config)]
        paths_built[0] = 0
        results = minimize_batch(problem, starts, config.optimizer)
        assert len(results) == 4 and min(r.iterations for r in results) > 1
        assert paths_built[0] == 3 * 4  # each start's triple

    @pytest.mark.parametrize("solver", ["shoot", "gradient"])
    def test_a_value_probe_builds_only_its_solvers_triples(self, paths_built, solver):
        problem = scalar_lq(TimeGrid(1.0, 256))
        paths_built[0] = 0
        value_probe(problem, np.array([0.8]), h=1e-4, solver=solver,
                    opt_config=OptimizerConfig(grad_tol=1e-3))
        # Three solves, at xi and xi +/- h; the gradient solves also take the
        # zero control that minimize_batch, a public door, takes as a path.
        assert paths_built[0] == 3 * 3 + (solver == "gradient")

    def test_the_fd_check_builds_no_path(self, paths_built):
        problem = scalar_lq(TimeGrid(1.0, 64))
        u = SampledPath.zeros(problem.eta.grid, 1)
        paths_built[0] = 0
        checks._central_differences(problem, u, np.array([0.5]), [3, 20], 1e-5)
        assert paths_built[0] == 0

    def test_the_suites_wrap_only_what_a_door_under_test_takes(self, paths_built):
        assert checks.suite_duality(0) and paths_built[0] == 0
        checks.suite_roughpath(0)
        # 50 short walks for p_variation_bruteforce, 4 integrands for
        # young_integral.
        assert paths_built[0] == 50 + 4

    @pytest.mark.parametrize("nodes", [[40, 10], [10, 40]])
    def test_the_fd_check_raises_the_first_entrys_blow_up(self, nodes):
        # xdot = 700 x + u from 0: a probe of 1e200 at node 40 overflows the
        # running cost there while the states stay finite; one at node 10
        # has 54 steps left for the states to overflow.  The entry listed
        # first raises, whichever kind of blow-up it meets.
        problem = scalar_lq(TimeGrid(1.0, 64), a=700.0)
        u, xi = SampledPath.zeros(problem.eta.grid, 1), np.zeros(1)
        with pytest.raises(BlowUpError) as serial:
            for node in nodes:
                cost_central_difference(problem, u, xi, node, 0, 1e200)
        with pytest.raises(BlowUpError) as batch:
            checks._central_differences(problem, u, xi, nodes, 1e200)
        assert (batch.value.node_index, str(batch.value)) == (
            serial.value.node_index, str(serial.value))
