"""The member axis: independent solves stacked along a leading (B, ...) axis
through the RK4, costate, Hamiltonian and duality sweeps, and the lockstep
drivers of the multistart optimizer and of shooting.

A member of a batch must give exactly what it gives alone, so every
comparison here is bit for bit, against the one-member path or against the
per-step costate loop the sweep replaced.
"""

import numpy as np
import pytest

from roughassim import adjoint, optimizer, shooting
from roughassim.adjoint import (
    costate_sweep,
    duality_check,
    duality_sweep,
    pointwise_hamiltonian_minimizer,
    solve_costate,
)
from roughassim.cost import (
    QuadraticCostSpec,
    build_minimum_energy,
    coordinate_observation,
    eval_cost,
)
from roughassim.dynamics import ModelSpec, integrate_state, lorenz96_model, rk4_sweep
from roughassim.errors import BlowUpError, NoConvergenceError
from roughassim.experiments import (
    _multistart_initials,
    build_cost,
    load_config,
    run_assimilation,
    simulate_truth,
)
from roughassim.grid import SampledPath, TimeGrid
from roughassim.optimizer import ControlSetSpec, OptimizerConfig, minimize, minimize_batch
from roughassim.shooting import (
    hamiltonian_sweep,
    integrate_hamiltonian,
    shoot,
    shoot_batch,
    value_probe,
)

from conftest import make_lorenz_twin, scalar_lq, zero_eta

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


def costate_reference(model, cost, x, u, eta):
    """The per-step backward Heun loop, one node at a time, raising at the
    first non-finite costate; the sweep must reproduce it bit for bit."""
    grid = eta.grid
    dt, times = grid.dt, grid.times
    xv, uv, deta = x.values, u.values, eta.increments()
    lam = np.zeros((grid.n_nodes, model.state_dim))
    cur = np.zeros(model.state_dim)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(grid.n_steps - 1, -1, -1):
            r1 = cur @ model.linearization(times[i + 1], xv[i + 1], uv[i]) + cost.D2phi(
                times[i + 1], xv[i + 1], uv[i]
            )
            pred = cur + dt * r1
            r0 = pred @ model.linearization(times[i], xv[i], uv[i]) + cost.D2phi(
                times[i], xv[i], uv[i]
            )
            cur = cur + 0.5 * dt * (r1 + r0) + deta[i] @ cost.D2psi(times[i], xv[i])
            if not np.all(np.isfinite(cur)):
                raise BlowUpError(i)
            lam[i] = cur
    return lam


@pytest.mark.parametrize("raw", [L63_ME, L96_OM_BOX], ids=["lorenz63_me", "lorenz96_om_box"])
def test_multistart_batch_equals_serial_starts(raw):
    config = load_config(raw)
    _, eta = simulate_truth(config)
    cost = build_cost(config)
    starts = list(_multistart_initials(config))
    args = (config.model, cost, eta, config.assim_initial_state)
    tail = (config.control_set, config.optimizer)
    serial = [minimize(*args, u0, *tail) for u0 in starts]
    batch = minimize_batch(*args, starts, *tail)
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
    return ModelSpec(
        1, 1, lambda t, x: x * x, lambda t, x: np.ones(np.shape(x) + (1,)),
        lambda t, x: 2.0 * x[..., None],
    )


def riccati_problem():
    h, h_jac = coordinate_observation([0], 1)
    cost = build_minimum_energy(QuadraticCostSpec(h=h, h_jac=h_jac, R=np.eye(1), S=np.eye(1)))
    grid = TimeGrid(1.0, 64)
    # A rising observation path rewards large x, so long trial steps blow up.
    eta = SampledPath(grid, 2.0 * grid.times)
    return riccati_model(), cost, grid, eta


def test_trial_blow_up_shrinks_only_its_own_step(monkeypatch):
    model, cost, grid, eta = riccati_problem()
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
    batch = minimize_batch(model, cost, eta, xi, starts, ControlSetSpec(), config)
    # Some batched round had a member blow up beside a member that did not.
    assert any((r >= 0).any() and (r < 0).any() for r in rounds)
    monkeypatch.undo()
    for u0, result in zip(starts, batch):
        assert_same_result(result, minimize(model, cost, eta, xi, u0, ControlSetSpec(), config))


def test_overflowing_trial_cost_shrinks_the_step():
    # eta = 20 t rewards large x so strongly that long trial steps leave the
    # state finite but overflow its running cost; such a trial is a blow-up
    # (the step shrinks), not a RuntimeWarning escaping minimize.
    model, cost, grid, _ = riccati_problem()
    eta = SampledPath(grid, 20.0 * grid.times)
    huge = SampledPath(grid, np.full((grid.n_nodes, 1), 1e200))
    with pytest.raises(BlowUpError):
        eval_cost(cost, huge, SampledPath.zeros(grid, 1), eta)
    result = minimize(model, cost, eta, np.array([0.5]), SampledPath.zeros(grid, 1),
                      ControlSetSpec(), OptimizerConfig())
    assert result.iterations >= 1 and np.all(np.diff(result.cost_trace) < 0)


def test_first_forward_blow_up_raises_the_serial_error():
    model, cost, grid, eta = riccati_problem()
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
            minimize(model, cost, eta, xi, u0, ControlSetSpec(), config)
    with pytest.raises(BlowUpError) as batch:
        minimize_batch(model, cost, eta, xi, starts, ControlSetSpec(), config)
    assert batch.value.node_index == serial.value.node_index == node_of(starts[1])
    assert str(batch.value) == str(serial.value)


def test_rk4_sweep_members_equal_one_member_sweeps():
    model = lorenz96_model(9)
    grid = TimeGrid(0.5, 100)
    rng = np.random.default_rng(4)
    U = rng.normal(size=(5, grid.n_nodes, 9))
    U[3] *= 1e80  # this member overflows; the others must not notice
    xi = 8.0 + rng.normal(size=9)
    values, blown = rk4_sweep(model, U, xi, grid)
    for b in range(5):
        alone, node = rk4_sweep(model, U[b], xi, grid)
        assert node == blown[b]
        if node < 0:
            assert np.array_equal(values[b], alone)
            path = integrate_state(model, SampledPath(grid, U[b]), xi, grid)
            assert np.array_equal(values[b], path.values)
    assert blown[3] > 0 and (np.delete(blown, 3) == -1).all()


def state_dependent_g_model():
    """g = (1 + x0^2) I, the D2g convention of test_dynamics, in stacked form."""
    A = np.array([[-1.0, 2.0], [0.5, -3.0]])

    def g(t, x):
        return (1.0 + x[..., 0, None, None] ** 2) * np.eye(2)

    def D2g(t, x):
        out = np.zeros(np.shape(x)[:-1] + (2, 2, 2))
        out[..., :, :, 0] = 2.0 * x[..., 0, None, None] * np.eye(2)
        return out

    return ModelSpec(2, 2, lambda t, x: np.matvec(A, x), g, lambda t, x: A, D2g)


def d2g_problem():
    model = state_dependent_g_model()
    h, h_jac = coordinate_observation([0], 2)
    cost = build_minimum_energy(
        QuadraticCostSpec(h=h, h_jac=h_jac, R=np.eye(1), S=np.eye(2))
    )
    grid = TimeGrid(1.0, 256)
    rng = np.random.default_rng(8)
    u = SampledPath(grid, 0.3 * rng.normal(size=(grid.n_nodes, 2)))
    x = integrate_state(model, u, np.array([0.4, -0.3]), grid)
    eta = SampledPath(grid, np.cumsum(rng.normal(size=(grid.n_nodes, 1)), 0))
    return model, cost, x, u, eta


@pytest.mark.parametrize("block_bytes", [adjoint.COSTATE_BLOCK_BYTES, 1, 8 * 9 * 9 * 37])
def test_costate_sweep_equals_the_per_step_loop(monkeypatch, block_bytes):
    # One block, one node per block, and blocks that do not divide the grid.
    monkeypatch.setattr(adjoint, "COSTATE_BLOCK_BYTES", block_bytes)
    model, grid, cost, xi, truth, eta = make_lorenz_twin(n_steps=200)
    u = SampledPath(grid, np.random.default_rng(1).normal(size=(grid.n_nodes, 3)))
    ref = costate_reference(model, cost, truth, u, eta)
    assert np.array_equal(solve_costate(model, cost, truth, u, eta).values, ref)
    # With D2g the linearization is contracted with the control; the stacked
    # contraction may move the last bit.
    model, cost, x, u, eta = d2g_problem()
    lam = solve_costate(model, cost, x, u, eta).values
    ref = costate_reference(model, cost, x, u, eta)
    np.testing.assert_allclose(lam, ref, rtol=1e-12, atol=1e-12)


def test_costate_sweep_members_equal_one_member_sweeps():
    model = lorenz96_model(9)
    grid = TimeGrid(0.5, 100)
    rng = np.random.default_rng(2)
    h, h_jac = coordinate_observation(range(0, 9, 2), 9)
    cost = build_minimum_energy(QuadraticCostSpec(h=h, h_jac=h_jac, R=np.eye(5), S=np.eye(9)))
    eta = SampledPath(grid, rng.normal(size=(grid.n_nodes, 5)))
    X = 8.0 + rng.normal(size=(3, grid.n_nodes, 9))
    X[1] *= 1e120  # its costate overflows
    U = rng.normal(size=(3, grid.n_nodes, 9))
    lam, blown = costate_sweep(model, cost, X, U, eta)
    for b in range(3):
        alone, node = costate_sweep(model, cost, X[b], U[b], eta)
        assert node == blown[b]
        if node < 0:
            assert np.array_equal(lam[b], alone)
    assert blown[1] >= 0 and blown[0] == blown[2] == -1


def test_costate_blow_up_reports_the_per_step_node():
    # A huge drift matrix on a coarse grid: the backward sweep overflows
    # after some steps, at the node where the per-step check stopped.
    model, cost = scalar_lq(a=1e4)
    grid = TimeGrid(100.0, 40)
    x = SampledPath(grid, np.ones((grid.n_nodes, 1)))
    u = SampledPath.zeros(grid, 1)
    eta = zero_eta(grid)
    with pytest.raises(BlowUpError) as ref:
        costate_reference(model, cost, x, u, eta)
    with pytest.raises(BlowUpError) as err:
        solve_costate(model, cost, x, u, eta)
    assert 0 < err.value.node_index == ref.value.node_index < grid.n_steps - 1
    _, blown = costate_sweep(model, cost, np.stack([x.values] * 2), np.stack([u.values] * 2), eta)
    assert list(blown) == [ref.value.node_index] * 2


def test_single_start_runs_without_member_axis(monkeypatch):
    # One start never reaches the batched sweeps.
    def forbidden(*args):
        raise AssertionError("a batched sweep ran for one member")

    monkeypatch.setattr(optimizer, "rk4_sweep", forbidden)
    monkeypatch.setattr(optimizer, "costate_sweep", forbidden)
    model, cost = scalar_lq()
    grid = TimeGrid(1.0, 64)
    result = minimize(model, cost, zero_eta(grid), np.array([1.0]), SampledPath.zeros(grid, 1),
                      ControlSetSpec(), OptimizerConfig(grad_tol=1e-3))
    assert result.status == "converged"


def hamiltonian_reference(model, cost, eta, xi, lambda0, control_set=ControlSetSpec()):
    """The per-step Hamiltonian loop the sweep replaced, raising at the first
    node where x or lambda turns non-finite."""
    grid = eta.grid
    dt, times, deta = grid.dt, grid.times, eta.increments()
    xs = np.empty((grid.n_nodes, model.state_dim))
    ls = np.empty((grid.n_nodes, model.state_dim))
    us = np.empty((grid.n_nodes, model.control_dim))
    xs[0], ls[0] = xi, lambda0

    def upoint(t, xv, lv):
        return pointwise_hamiltonian_minimizer(cost, model, t, xv, lv, control_set)

    def d2m(t, xv, lv, uv):
        return cost.D2phi(t, xv, uv) + lv @ model.linearization(t, xv, uv)

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
    model = ModelSpec(2, 2, lambda t, x: x * x, lambda t, x: np.eye(2),
                      lambda t, x: 2.0 * x[..., None] * np.eye(2))
    h, h_jac = coordinate_observation([0, 1], 2)
    cost = build_minimum_energy(QuadraticCostSpec(h=h, h_jac=h_jac, R=np.eye(2), S=np.eye(2)))
    return model, cost, zero_eta(TimeGrid(1.0, 64), 2)


def assert_same_triple(a, b):
    for field in ("x", "u", "lam"):
        assert np.array_equal(getattr(a, field).values, getattr(b, field).values)


def test_hamiltonian_sweep_members_equal_one_member_runs():
    model, grid, cost, xi, truth, eta = make_lorenz_twin(n_steps=256, T=0.5)
    rng = np.random.default_rng(5)
    xis = xi + rng.normal(size=(4, 3))
    lams = rng.normal(size=(4, 3))
    lams[2] = 1e200  # this member's control overflows the state
    unconstrained = ControlSetSpec()
    box = ControlSetSpec(kind="box", lo=-np.full(3, 5.0), hi=np.full(3, 5.0))
    for control_set in (unconstrained, box):
        xs, ls, us, blown = hamiltonian_sweep(model, cost, eta, xis, lams, control_set)
        for b in range(4):
            if b == 2 and control_set is unconstrained:
                with pytest.raises(BlowUpError) as err:
                    integrate_hamiltonian(model, cost, eta, xis[b], lams[b], control_set)
                assert blown[b] == err.value.node_index > 0
                continue
            alone = integrate_hamiltonian(model, cost, eta, xis[b], lams[b], control_set)
            assert blown[b] == -1
            for batched, path in zip((xs[b], ls[b], us[b]), alone):
                assert np.array_equal(batched, path.values)
            ref = hamiltonian_reference(model, cost, eta, xis[b], lams[b], control_set)
            for batched, loop in zip((xs[b], ls[b], us[b]), ref):
                assert np.array_equal(batched, loop)
    # One shared initial costate broadcasts against the members' states.
    xs, ls, us, blown = hamiltonian_sweep(model, cost, eta, xis, lams[0])
    alone = integrate_hamiltonian(model, cost, eta, xis[3], lams[0])
    assert np.array_equal(ls[3], alone[1].values) and (blown == -1).all()


def test_hamiltonian_blow_up_reports_the_per_step_node():
    model, cost, eta = riccati2_problem()
    xi, lam0 = np.array([0.3, 1.3]), np.zeros(2)
    with pytest.raises(BlowUpError) as ref:
        hamiltonian_reference(model, cost, eta, xi, lam0)
    with pytest.raises(BlowUpError) as err:
        integrate_hamiltonian(model, cost, eta, xi, lam0)
    assert 0 < err.value.node_index == ref.value.node_index < eta.grid.n_steps


@pytest.mark.parametrize("problem", ["scalar_lq", "lorenz63"])
def test_shoot_batch_equals_per_start_shoot(monkeypatch, problem):
    if problem == "scalar_lq":
        model, cost = scalar_lq()
        eta = zero_eta(TimeGrid(1.0, 1024))
        starts = [np.array([1.3]), np.array([-0.4]), np.array([2.0])]
    else:  # criterion 9's Lorenz'63 window
        model, grid, cost, xi, truth, eta = make_lorenz_twin(n_steps=256, T=0.5, noise=0.1)
        starts = [xi, xi + np.array([1e-4, 0.0, 0.0]), xi - np.array([0.0, 0.0, 1e-4])]
    sweeps = []
    sweep = shooting.hamiltonian_sweep

    def spy(model, cost, eta, xi, lambda0, control_set):
        sweeps.append(np.ndim(lambda0))
        return sweep(model, cost, eta, xi, lambda0, control_set)

    monkeypatch.setattr(shooting, "hamiltonian_sweep", spy)
    batch = shoot_batch(model, cost, eta, starts)
    batched_sweeps = len(sweeps)
    serial = [shoot(model, cost, eta, xi) for xi in starts]
    # The starts shared their sweeps: fewer of them, several with members.
    assert batched_sweeps < len(sweeps) - batched_sweeps
    assert 2 in sweeps[:batched_sweeps]
    for a, b in zip(batch, serial):
        assert_same_triple(a, b)
        assert abs(a.lam.values[-1]).max() < 1e-9


def test_value_probe_raises_the_first_failing_points_error():
    model, cost, eta = riccati2_problem()
    xi, h = np.array([0.3, 0.5]), 0.8
    points = [xi, xi + [h, 0.0], xi - [h, 0.0], xi + [0.0, h], xi - [0.0, h]]
    errors = {}
    for k, z in enumerate(points):
        try:
            shoot(model, cost, eta, z)
        except NoConvergenceError as err:
            errors[k] = err
    # Points 1 and 3 fail, point 3 at an earlier grid node.
    assert sorted(errors) == [1, 3] and str(errors[1]) != str(errors[3])
    with pytest.raises(NoConvergenceError) as probe:
        value_probe(model, cost, eta, xi, h=h)
    assert str(probe.value) == str(errors[1])
    assert probe.value.best_residual == errors[1].best_residual


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
        paths = (SampledPath(grid, v) for v in (M[k], a[k], b[k]))
        assert resids[k] == duality_check(*paths, zeta0[k], lambdaT[k])
