"""Hamiltonian boundary-value formulation solved by single shooting.

The maximum principle turns the assimilation problem into a coupled
forward system for (x, lambda) once the control is eliminated through its
closed-form pointwise minimizer; shooting then root-finds the unknown
initial costate so that lambda(T) = 0.  :func:`hamiltonian_sweep`
integrates that system, one member or a batch along a leading member
axis.  Long chaotic horizons break the Newton iteration (sensitivities
explode); the projected-gradient path covers those, and shooting demos
default to short windows.  Each point a Newton iteration asks for is
swept together with its n forward-difference Jacobian columns, so a step
whose first trial is accepted takes one sweep.  Several starts shoot in
lockstep: each round, the points they ask for share one
:func:`hamiltonian_sweep`, each member from its own initial state.  The
value probe's 2n+1 solves run as one such batch, or, with the gradient
solver, as one :func:`minimize_batch`.
"""

from __future__ import annotations

import numpy as np

from .adjoint import OptimalTriple, pointwise_hamiltonian_minimizer
from .cost import eval_cost
from .dynamics import first_nonfinite, initial_state
from .errors import BlowUpError, InvalidSpecError, NoConvergenceError
from .grid import SampledPath, _positive_number, frozen_array
from .optimizer import OptimizerConfig, lockstep, minimize_batch
from .problem import AssimilationProblem

#: Step of the forward-difference Jacobian of lambda0 -> lambda(T).
FD_STEP = 1e-6
#: Newton iterations before a shooting solve gives up, and the |lambda(T)|
#: that ends one.
NEWTON_MAX_ITERS = 40
NEWTON_TOL = 1e-9


def hamiltonian_sweep(problem: AssimilationProblem, xi, lambda0):
    """Forward integration of the coupled state/costate system, on arrays.

    The control is eliminated pointwise via u = Proj_U(-S^{-1} G' lambda');
    x advances by the RK4 step of ``integrate_state`` with the control
    frozen per step, lambda by a Heun predictor/corrector on
    -(D2 phi + lambda D2f) plus the left-tag Young increment.  For an
    arbitrary lambda0 the terminal costate is generally nonzero.

    ``xi`` and ``lambda0`` are each (n,), shared by every member, or
    (B, n), one row per member, as ``xi`` in :func:`rk4_sweep`; two member
    axes must agree.  Returns the states, costates and controls,
    (..., n_nodes, n | n | m), and per member the first node where x or
    lambda is non-finite, or -1; each member equals its one-member sweep
    bit for bit.  Raises :class:`InvalidSpecError` for any other shape, and
    for a cost outside the quadratic family.
    """
    model, cost, eta = problem.model, problem.cost, problem.eta
    if cost.quad is None:
        raise InvalidSpecError("Hamiltonian integration needs a quadratic-family cost")
    grid = eta.grid
    dt = grid.dt
    times = grid.times
    deta = eta.increments()
    xi, lambda0 = frozen_array(xi, "initial state"), frozen_array(lambda0, "initial costate")
    # The members are those of whichever initial value has a member axis.
    members = xi.shape[:-1] or lambda0.shape[:-1]
    xi = initial_state(model, xi, members)
    lambda0 = initial_state(model, lambda0, members, name="initial costate")
    n, m = model.state_dim, model.control_dim
    out = [np.empty(members + (grid.n_nodes, k)) for k in (n, n, m)]
    # Node-major views: node i of every member is row i.
    xs, ls, us = (np.moveaxis(a, -2, 0) for a in out)
    xs[0], ls[0] = xi, lambda0

    def upoint(t, xv, lv):
        return pointwise_hamiltonian_minimizer(problem, t, xv, lv)

    def d2m(t, xv, lv, uv):
        return cost.D2phi(t, xv, uv) + np.vecmat(lv, model.D2f(t, xv))

    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(grid.n_steps):
            t0, t1 = times[i], times[i + 1]
            x0, l0 = xs[i], ls[i]
            u0 = upoint(t0, x0, l0)
            us[i] = u0
            x1 = model.rk4_step(t0, x0, u0, dt)
            young = np.vecmat(deta[i], cost.D2psi(t0, x0))
            r0 = d2m(t0, x0, l0, u0)
            pred = l0 - dt * r0 - young
            u_pred = upoint(t1, x1, pred)
            r1 = d2m(t1, x1, pred, u_pred)
            xs[i + 1], ls[i + 1] = x1, l0 - 0.5 * dt * (r0 + r1) - young
        us[-1] = upoint(times[-1], xs[-1], ls[-1])
    # A step from a non-finite node stays non-finite, so the first such node
    # after the start is where a per-step check stops.
    blown = first_nonfinite(np.concatenate(out[:2], axis=-1)[..., 1:, :])
    return *out, np.where(blown >= 0, blown + 1, -1)


def _with_fd_columns(lam0: np.ndarray) -> list:
    """``lam0`` and its n FD columns ``lam0 + FD_STEP e_k``, one sweep's request."""
    points = [lam0]
    for k in range(lam0.shape[0]):
        probe = lam0.copy()
        probe[k] += FD_STEP
        points.append(probe)
    return points


def _norm(v) -> float:
    with np.errstate(over="ignore"):  # a huge finite v has an infinite norm
        return float(np.linalg.norm(v))


def _damped_newton(grid, n: int):
    """Damped Newton on F(lambda0) = lambda(T; lambda0) from lambda0 = 0, as a
    generator.

    Each yield is a point with its n FD columns (:func:`_with_fd_columns`):
    first lambda0 = 0, then each line-search trial.  An accepted trial's
    columns give the next Jacobian; a rejected or converged point's are
    dropped.  It is sent, per point, the sweep's (x, lambda, u) arrays or
    its :class:`BlowUpError`, and returns the optimal triple of the
    accepted sweep, so a converged solve is not integrated again.
    """
    lam0 = np.zeros(n)
    sol, *columns = yield _with_fd_columns(lam0)
    if isinstance(sol, BlowUpError):
        raise NoConvergenceError(np.inf, f"shooting blew up at the initial guess: {sol}")
    F = sol[1][-1]
    best = np.inf
    for _ in range(NEWTON_MAX_ITERS):
        res = _norm(F)
        best = min(best, res)
        if res < NEWTON_TOL:
            xs, ls, us = (SampledPath(grid, v) for v in sol)
            return OptimalTriple(x=xs, u=us, lam=ls)
        jac = np.empty((n, n))
        try:
            for k, col in enumerate(columns):
                if isinstance(col, BlowUpError):
                    raise col
                jac[:, k] = (col[1][-1] - F) / FD_STEP
            delta = np.linalg.solve(jac, F)
        except (BlowUpError, np.linalg.LinAlgError) as err:
            raise NoConvergenceError(best, f"shooting Jacobian failed: {err}")
        step = 1.0
        accepted = False
        for _ in range(8):
            trial, *trial_columns = yield _with_fd_columns(lam0 - step * delta)
            if isinstance(trial, BlowUpError):
                step *= 0.5
                continue
            F_new = trial[1][-1]
            if _norm(F_new) < res:
                lam0 = lam0 - step * delta
                F, sol, columns = F_new, trial, trial_columns
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    raise NoConvergenceError(best, "shooting Newton did not reach tolerance")


def shoot(problem: AssimilationProblem, xi) -> OptimalTriple:
    """Damped Newton on F(lambda0) = lambda(T; lambda0) from lambda0 = 0, FD Jacobian.

    Returns the optimal triple on success (|lambda(T)| < ``NEWTON_TOL``);
    raises :class:`NoConvergenceError` carrying the best residual seen.
    """
    return shoot_batch(problem, [xi])[0]


def shoot_batch(problem: AssimilationProblem, starts) -> list:
    """:func:`shoot` from each initial state in ``starts``, in one lockstep batch.

    Each start's Newton iteration is a generator; each round, the points
    every unfinished start asks for, each with its FD columns, share one
    :func:`hamiltonian_sweep`.  Each start solves its own Newton system
    and its result equals :func:`shoot` from it bit for bit.  When a start
    raises, the starts after it stop and the first raiser's error is
    raised.
    """
    model = problem.model
    try:
        xis = [initial_state(model, xi) for xi in starts]
    except TypeError:  # not iterable
        message = f"starts must be a list of initial states, got {starts!r}"
        raise InvalidSpecError(message) from None
    solvers = [_damped_newton(problem.eta.grid, model.state_dim) for _ in xis]

    def answer(requests):
        points = [(k, lam) for k, lams in requests.items() for lam in lams]
        xi = np.stack([xis[k] for k, _ in points])
        lam0 = np.stack([lam for _, lam in points])
        answers = {k: [] for k in requests}
        for (k, _), x, lam, u, node in zip(points, *hamiltonian_sweep(problem, xi, lam0)):
            answers[k].append(BlowUpError(int(node)) if node >= 0 else (x, lam, u))
        return answers

    return lockstep(solvers, answer)


def value_probe(
    problem: AssimilationProblem,
    xi,
    h: float,
    solver: str = "shoot",
    opt_config: OptimizerConfig = OptimizerConfig(),
) -> dict:
    """Compare the finite-difference value gradient against lambda(0).

    Runs 2n+1 fresh solves, at xi and xi +/- h e_i, as one lockstep batch:
    one :func:`shoot_batch`, or with ``solver="gradient"`` one
    :func:`minimize_batch` from the zero control, each start with its own
    initial state.  Each value is the index of its solve's triple.  Returns
    the componentwise central difference, lambda(0) from the solve at xi,
    and the maximum absolute gap.  Gap smallness is consistency evidence
    for the sensitivity identity, never an assertion of uniqueness.  A
    solve that raises stops the batch and its error is raised, the first
    point's when several raise; failing that, a gradient solve that did not
    converge raises :class:`NoConvergenceError`, again the first point's.
    """
    h = _positive_number(h, "h")
    if not (isinstance(solver, str) and solver in ("gradient", "shoot")):
        raise InvalidSpecError(f"unknown solver {solver!r}")
    model, cost, eta = problem.model, problem.cost, problem.eta
    xi = initial_state(model, xi)
    n = model.state_dim
    points = [xi]
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        points.extend([xi + e, xi - e])
    if solver == "shoot":
        triples = shoot_batch(problem, points)
    else:
        u0 = SampledPath.zeros(eta.grid, model.control_dim)
        results = minimize_batch(problem, [(z, u0) for z in points], opt_config)
        for result in results:
            if result.status != "converged":
                message = f"gradient solve did not converge: {result.status}"
                raise NoConvergenceError(result.grad_norm_trace[-1], message)
        triples = [result.triple for result in results]
    values = [eval_cost(cost, t.x, t.u, eta) for t in triples]
    lam0 = triples[0].lam.values[0]
    dv = np.empty(n)
    for i in range(n):
        dv[i] = (values[1 + 2 * i] - values[2 + 2 * i]) / (2.0 * h)
    gap = float(np.max(np.abs(dv - lam0)))
    return {"dV_fd": dv, "lambda0": lam0.copy(), "max_abs_gap": gap, "value": values[0]}
