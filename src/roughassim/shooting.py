"""Hamiltonian boundary-value formulation solved by multiple shooting.

The maximum principle turns the assimilation problem into a coupled
forward system for (x, lambda) once the control is eliminated through its
closed-form pointwise minimizer, with x(0) = xi and lambda(T) = 0.
:func:`hamiltonian_sweep` integrates that system, one member or a batch
along a leading member axis.  Shooting splits [0, T] into segments of
``SEGMENT_STEPS`` steps (Bock and Plitt, IFAC 1984), and damped Newton
finds lambda(0) and each later segment's starting (x, lambda) such that
the segments join and lambda(T) = 0; one segment is single shooting.
Short segments keep Newton's Jacobians off the exploding products of long
chaotic sweeps, but a root on a long window may be an extremal far from
the minimum, which the projected-gradient path finds.  Each point Newton
asks for is swept with all its segments and their forward-difference
Jacobian columns as members of one batch, each from its own segment's
first node; several starts, such as the value probe's 2n+1, share each
such sweep in lockstep.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .adjoint import OptimalTriple
from .cost import _cost_blowup, _eval_costs
from .dynamics import first_nonfinite, initial_state
from .errors import BlowUpError, InvalidSpecError, NoConvergenceError
from .grid import SampledPath, _positive_number, frozen_array
from .optimizer import OptimizerConfig, lockstep, minimize_batch
from .problem import AssimilationProblem

#: Step of the forward-difference Jacobian columns.
FD_STEP = 1e-6
#: Newton iterations before a shooting solve gives up, and the residual
#: norm that ends one.
NEWTON_MAX_ITERS = 40
NEWTON_TOL = 1e-9
#: Grid steps per shooting segment.
SEGMENT_STEPS = 64
#: Bytes that one start's dense Newton system, and the state Jacobians of
#: one sweep step, may each take: longer segments keep the first within it,
#: and a round sweeps its members in chunks that keep the second.
SHOOTING_BYTES = 1 << 24


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
    xi, lambda0 = frozen_array(xi, "initial state"), frozen_array(lambda0, "initial costate")
    # The members are those of whichever initial value has a member axis.
    members = xi.shape[:-1] or lambda0.shape[:-1]
    xi = initial_state(problem.model, xi, members)
    lambda0 = initial_state(problem.model, lambda0, members, name="initial costate")
    return _sweep(problem, xi, lambda0, 0, problem.eta.grid.n_steps)


def _sweep(problem: AssimilationProblem, xi, lambda0, first, steps: int):
    """:func:`hamiltonian_sweep` for ``steps`` steps from node ``first``, one
    int or one per member (B,), on checked initial values.

    Returns (..., steps + 1, k) arrays, local node i being grid node
    first + i, and the first non-finite local node among the grid's nodes,
    or -1.  A member run past the last node repeats it with a zero
    increment of eta; those rows mean nothing.
    """
    model, cost, eta = problem.model, problem.cost, problem.eta
    if cost.quad is None:
        raise InvalidSpecError("Hamiltonian integration needs a quadratic-family cost")
    grid = eta.grid
    dt, last = grid.dt, grid.n_steps
    nodes = np.minimum(np.add.outer(first, np.arange(steps + 1)), last)
    # Node-major: step i of every member reads row i.
    times = np.moveaxis(grid.times[nodes], -1, 0)
    deta = np.concatenate((eta.increments(), np.zeros((1, eta.dim))))
    deta = np.moveaxis(deta[nodes[..., :-1]], -2, 0)
    members = xi.shape[:-1] or lambda0.shape[:-1]
    n, m = model.state_dim, model.control_dim
    out = [np.empty(members + (steps + 1, k)) for k in (n, n, m)]
    xs, ls, us = (np.moveaxis(a, -2, 0) for a in out)
    xs[0], ls[0] = xi, lambda0
    gain, project = problem.control_gain, problem.control_set.project_values
    D2f, D2phi, D2psi = model.D2f, cost.D2phi, cost.D2psi

    with np.errstate(over="ignore", invalid="ignore"):
        jac0 = D2f(times[0], xs[0])
        for i in range(steps):
            t0, t1 = times[i], times[i + 1]
            x0, l0 = xs[i], ls[i]
            us[i] = u0 = project(np.matvec(gain, l0))
            x1 = model.rk4_step(t0, x0, u0, dt)
            young = np.vecmat(deta[i], D2psi(t0, x0))
            r0 = D2phi(t0, x0, u0) + np.vecmat(l0, jac0)
            pred = l0 - dt * r0 - young
            jac1 = D2f(t1, x1)  # the next step's start Jacobian too
            r1 = D2phi(t1, x1, project(np.matvec(gain, pred))) + np.vecmat(pred, jac1)
            xs[i + 1], ls[i + 1] = x1, l0 - 0.5 * dt * (r0 + r1) - young
            jac0 = jac1
        us[-1] = project(np.matvec(gain, ls[-1]))
    # A step from a non-finite node stays non-finite, so the first such node
    # after the start is where a per-step check stops.
    blown = first_nonfinite(np.concatenate(out[:2], axis=-1)[..., 1:, :])
    return *out, np.where((blown >= 0) & (blown < last - first), blown + 1, -1)


def _norm(v) -> float:
    with np.errstate(over="ignore"):  # a huge finite v has an infinite norm
        return float(np.linalg.norm(v))


def _damped_newton(grid, xi, firsts, steps: int):
    """Damped Newton from ``xi`` on the segments starting at ``firsts``, as
    a generator.

    The segments' starts (x_k, lambda_k) are the rows of a (K, 2n) array;
    all but its first n entries, xi, are the unknowns z, first guessed as
    x_k = xi and lambda_k = 0.  The residual F(z) is each segment's end
    minus the next one's start, then lambda(T).  Each yield asks for one
    point, the first guess or a line-search trial: the first nodes, states
    and costates of its K segments, then of one forward-difference column
    per unknown.  It is sent the point's :func:`_sweep` arrays.  An
    accepted point's columns give the next Jacobian, solved densely: the
    column differences, and -1 at each unknown's own defect entry.  Returns
    the accepted point's optimal triple, so a converged solve is not
    integrated again.

    A point below ``NEWTON_TOL`` takes one more full step if that lowers
    its residual, unless the residual is already at the rounding floor:
    sqrt(steps) eps times the norm of the point's starts, what a segment
    end's per-step roundings leave of an exact root.
    """
    n, K, last = xi.shape[0], len(firsts), grid.n_steps
    size = (2 * K - 1) * n
    unknowns = np.arange(size)
    seg, comp = np.divmod(n + unknowns, 2 * n)
    owner = np.concatenate((np.arange(K), seg))  # each member's segment
    first = firsts[owner]
    end = np.minimum(firsts + steps, last)[owner] - first  # its segment's last local node
    rows = np.arange(len(owner))
    # Of the segment ends (K, 2n) flattened, the entries the residual reads.
    keep = np.r_[: 2 * n * K - 2 * n, 2 * n * K - n : 2 * n * K]

    def point(z):
        starts = np.concatenate((xi, z)).reshape(K, 2 * n)
        probes = starts[seg]
        probes[unknowns, comp] += FD_STEP
        both = np.concatenate((starts, probes))
        return first, both[:, :n], both[:, n:]

    def outcome(z, sweep):
        """The point's residual and member ends, or the BlowUpError of its
        first segment member, then of its first column, to turn non-finite."""
        xs, ls, _, blown = sweep
        bad = np.flatnonzero(blown >= 0)
        error = BlowUpError(int(first[bad[0]] + blown[bad[0]])) if len(bad) else None
        if len(bad) and bad[0] < K:
            return error, None, None
        ends = np.concatenate((xs[rows, end], ls[rows, end]), axis=-1)
        starts = np.concatenate((xi, z)).reshape(K, 2 * n)
        F = np.concatenate(((ends[: K - 1] - starts[1:]).ravel(), ends[K - 1, n:]))
        return F, ends, error

    def triple(sweep):
        """Each segment's nodes before its end, then the last one's to T."""
        x, lam, u = (
            SampledPath(grid, np.concatenate((v[: K - 1, :steps].reshape(-1, v.shape[-1]),
                                              v[K - 1, : last - firsts[-1] + 1])))
            for v in sweep[:3]
        )
        return OptimalTriple(x=x, u=u, lam=lam)

    floor = np.sqrt(steps) * np.finfo(float).eps
    guess = np.zeros((K, 2 * n))
    guess[:, :n] = xi
    z = guess.ravel()[n:]
    sweep = yield point(z)
    F, ends, column_error = outcome(z, sweep)
    if isinstance(F, BlowUpError):
        raise NoConvergenceError(np.inf, f"shooting blew up at the initial guess: {F}")
    best = np.inf
    for _ in range(NEWTON_MAX_ITERS):
        res = _norm(F)
        best = min(best, res)
        # A segment defect moves the value at first order, so a point below
        # the tolerance takes one more full step if that lowers the
        # residual; one at the rounding floor stops.
        final = res < NEWTON_TOL
        if final and res <= floor * _norm(np.concatenate((xi, z))):
            return triple(sweep)
        try:
            if column_error is not None:
                raise column_error
            jac = np.zeros((K, 2 * n, size))
            jac[seg, :, unknowns] = (ends[K:] - ends[seg]) / FD_STEP
            jac = jac.reshape(2 * n * K, size)[keep]
            jac[unknowns[:-n], unknowns[n:]] = -1.0
            delta = np.linalg.solve(jac, F)
        except (BlowUpError, np.linalg.LinAlgError) as err:
            if final:
                return triple(sweep)
            raise NoConvergenceError(best, f"shooting Jacobian failed: {err}")
        step = 1.0
        accepted = False
        for _ in range(1 if final else 8):
            trial_z = z - step * delta
            trial = yield point(trial_z)
            F_new, trial_ends, trial_error = outcome(trial_z, trial)
            if not isinstance(F_new, BlowUpError) and _norm(F_new) < res:
                z, F, ends, sweep, column_error = trial_z, F_new, trial_ends, trial, trial_error
                accepted = True
                break
            step *= 0.5
        if final:
            return triple(sweep)
        if not accepted:
            break
    raise NoConvergenceError(best, "shooting Newton did not reach tolerance")


def shoot(problem: AssimilationProblem, xi) -> OptimalTriple:
    """Multiple shooting from xi, by damped Newton with forward-difference
    Jacobian columns, from lambda = 0 and every segment state xi.

    Returns the optimal triple on success (residual norm below
    ``NEWTON_TOL``); raises :class:`NoConvergenceError` carrying the best
    residual seen.
    """
    return shoot_batch(problem, [xi])[0]


def shoot_batch(problem: AssimilationProblem, starts) -> list:
    """:func:`shoot` from each initial state in ``starts``, in one lockstep batch.

    Each start's Newton iteration is a generator; each round, the points
    every unfinished start asks for, each with all its segments and FD
    columns, share one :func:`_sweep` of the segments' steps, in member
    chunks if the state Jacobians of one step would outgrow
    ``SHOOTING_BYTES``.  Each start solves its own Newton system and its
    result equals :func:`shoot` from it bit for bit.  When a start raises,
    the starts after it stop and the first raiser's error is raised.
    """
    model = problem.model
    try:
        xis = [initial_state(model, xi) for xi in starts]
    except TypeError:  # not iterable
        message = f"starts must be a list of initial states, got {starts!r}"
        raise InvalidSpecError(message) from None
    grid, n = problem.eta.grid, model.state_dim
    # Segments of SEGMENT_STEPS steps, the last one shorter, or longer ones if
    # the dense Newton system of K segments, assembled from 2nK rows, would
    # take more than SHOOTING_BYTES.
    most = max(1, isqrt(SHOOTING_BYTES // 8) // (2 * n))
    steps = min(max(SEGMENT_STEPS, -(-grid.n_steps // most)), grid.n_steps)
    firsts = np.arange(0, grid.n_steps, steps)
    solvers = [_damped_newton(grid, xi, firsts, steps) for xi in xis]
    chunk = max(1, SHOOTING_BYTES // (8 * n * n))

    def answer(requests):
        first, xi, lam0 = (np.concatenate(parts) for parts in zip(*requests.values()))
        cuts = [np.s_[lo : lo + chunk] for lo in range(0, len(first), chunk)]
        sweeps = [_sweep(problem, xi[c], lam0[c], first[c], steps) for c in cuts]
        bounds = np.cumsum([len(request[0]) for request in requests.values()])[:-1]
        parts = [np.split(np.concatenate(arrays), bounds) for arrays in zip(*sweeps)]
        return {k: tuple(p[i] for p in parts) for i, k in enumerate(requests)}

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
    initial state.  Each value is the index of its solve's triple, all from
    one stacked cost evaluation.  Returns the componentwise central
    difference, lambda(0) from the solve at xi, and the maximum absolute
    gap.  Gap smallness is consistency evidence for the sensitivity
    identity, never an assertion of uniqueness.  A solve that raises stops
    the batch and its error is raised, the first point's when several
    raise; failing that, a gradient solve that did not converge raises
    :class:`NoConvergenceError`, then a cost that blows up its
    :class:`BlowUpError`, each the first point's.
    """
    h = _positive_number(h, "h")
    if not (isinstance(solver, str) and solver in ("gradient", "shoot")):
        raise InvalidSpecError(f"unknown solver {solver!r}")
    model = problem.model
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
        u0 = SampledPath.zeros(problem.eta.grid, model.control_dim)
        results = minimize_batch(problem, [(z, u0) for z in points], opt_config)
        for result in results:
            if result.status != "converged":
                message = f"gradient solve did not converge: {result.status}"
                raise NoConvergenceError(result.grad_norm_trace[-1], message)
        triples = [result.triple for result in results]
    xs = np.stack([t.x.values for t in triples])
    us = np.stack([t.u.values for t in triples])
    costs, bad = _eval_costs(problem.cost, xs, us, problem.eta)
    if np.any(bad >= 0):  # the first point's blow-up
        raise _cost_blowup(bad[bad >= 0][0])
    lam0 = triples[0].lam.values[0]
    dv = (costs[1::2] - costs[2::2]) / (2.0 * h)
    gap = float(np.max(np.abs(dv - lam0)))
    return {"dV_fd": dv, "lambda0": lam0.copy(), "max_abs_gap": gap, "value": float(costs[0])}
