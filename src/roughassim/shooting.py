"""Hamiltonian boundary-value formulation solved by single shooting.

The maximum principle turns the assimilation problem into a coupled
forward system for (x, lambda) once the control is eliminated through its
closed-form pointwise minimizer; shooting then root-finds the unknown
initial costate so that lambda(T) = 0.  Long chaotic horizons break the
Newton iteration (sensitivities explode); the projected-gradient path
covers those, and shooting demos default to short windows.  Several starts
shoot in lockstep: each round, the terminal costates they ask for share one
Hamiltonian sweep along a leading member axis.
"""

from __future__ import annotations

import numpy as np

from .adjoint import OptimalTriple, pointwise_hamiltonian_minimizer
from .cost import CostSpec, eval_cost
from .dynamics import ModelSpec, first_nonfinite, initial_state
from .errors import BlowUpError, InvalidSpecError, NoConvergenceError, UnsupportedCostError
from .grid import SampledPath
from .optimizer import (
    ControlSetSpec,
    OptimizerConfig,
    lockstep,
    minimize,
    positive_finite,
)

#: Step of the forward-difference Jacobian of lambda0 -> lambda(T).
FD_STEP = 1e-6
#: Newton iterations before a shooting solve gives up, and the |lambda(T)|
#: that ends one.
NEWTON_MAX_ITERS = 40
NEWTON_TOL = 1e-9


def hamiltonian_sweep(
    model: ModelSpec,
    cost: CostSpec,
    eta: SampledPath,
    xi,
    lambda0,
    control_set: ControlSetSpec = ControlSetSpec(),
):
    """Forward integration of the coupled state/costate system, on arrays.

    The control is eliminated pointwise via u = Proj_U(-S^{-1} g' lambda');
    x advances by the RK4 step of ``integrate_state`` with the control
    frozen per step, lambda by a Heun predictor/corrector on -D2m plus the
    left-tag Young increment.  For an arbitrary lambda0 the terminal
    costate is generally nonzero.

    ``xi`` and ``lambda0`` (n,) may carry a leading member axis (B, n), as
    in :func:`rk4_sweep`.  Returns the states, costates and controls,
    (..., n_nodes, n | n | m), and per member the first node where x or
    lambda is non-finite, or -1; each member equals its one-member sweep
    bit for bit.
    """
    if cost.quad is None:
        raise UnsupportedCostError("Hamiltonian integration needs a quadratic-family cost")
    grid = eta.grid
    dt = grid.dt
    times = grid.times
    deta = eta.increments()
    xi = initial_state(model, xi, members=True)
    lambda0 = initial_state(model, lambda0, members=True, name="initial costate")
    members = np.broadcast_shapes(xi.shape[:-1], lambda0.shape[:-1])
    n, m = model.state_dim, model.control_dim
    out = [np.empty(members + (grid.n_nodes, k)) for k in (n, n, m)]
    # Node-major views: node i of every member is row i.
    xs, ls, us = (np.moveaxis(a, -2, 0) for a in out)
    xs[0], ls[0] = xi, lambda0

    def upoint(t, xv, lv):
        return pointwise_hamiltonian_minimizer(cost, model, t, xv, lv, control_set)

    def d2m(t, xv, lv, uv):
        return cost.D2phi(t, xv, uv) + np.vecmat(lv, model.linearization(t, xv, uv))

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


def integrate_hamiltonian(
    model: ModelSpec,
    cost: CostSpec,
    eta: SampledPath,
    xi,
    lambda0,
    control_set: ControlSetSpec = ControlSetSpec(),
):
    """The (x, lambda, u) paths of one :func:`hamiltonian_sweep`.

    Raises :class:`BlowUpError` at the first node where x or lambda turns
    non-finite.
    """
    xs, ls, us, blown = hamiltonian_sweep(model, cost, eta, xi, lambda0, control_set)
    if blown >= 0:
        raise BlowUpError(int(blown))
    return tuple(SampledPath(eta.grid, v) for v in (xs, ls, us))


def _damped_newton(grid, n: int):
    """Damped Newton on F(lambda0) = lambda(T; lambda0) from lambda0 = 0, as a
    generator.

    Each yield is a list of initial costates: first F's point, then per
    Newton step the n FD columns together and the line-search trials one
    at a time.  It is sent, per point, the sweep's (x, lambda, u) arrays
    or its :class:`BlowUpError`, and returns the optimal triple of the
    accepted sweep, so a converged solve is not integrated again.
    """
    lam0 = np.zeros(n)
    (sol,) = yield [lam0]
    if isinstance(sol, BlowUpError):
        raise NoConvergenceError(np.inf, f"shooting blew up at the initial guess: {sol}")
    F = sol[1][-1]
    best = np.inf
    for _ in range(NEWTON_MAX_ITERS):
        res = float(np.linalg.norm(F))
        best = min(best, res)
        if res < NEWTON_TOL:
            xs, ls, us = (SampledPath(grid, v) for v in sol)
            return OptimalTriple(x=xs, u=us, lam=ls)
        probes = [lam0.copy() for _ in range(n)]
        for k, probe in enumerate(probes):
            probe[k] += FD_STEP
        columns = yield probes
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
            (trial,) = yield [lam0 - step * delta]
            if isinstance(trial, BlowUpError):
                step *= 0.5
                continue
            F_new = trial[1][-1]
            if np.linalg.norm(F_new) < res:
                lam0 = lam0 - step * delta
                F, sol = F_new, trial
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    raise NoConvergenceError(best, "shooting Newton did not reach tolerance")


def shoot(
    model: ModelSpec,
    cost: CostSpec,
    eta: SampledPath,
    xi,
    control_set: ControlSetSpec = ControlSetSpec(),
) -> OptimalTriple:
    """Damped Newton on F(lambda0) = lambda(T; lambda0) from lambda0 = 0, FD Jacobian.

    Returns the optimal triple on success (|lambda(T)| < ``NEWTON_TOL``);
    raises :class:`NoConvergenceError` carrying the best residual seen.
    """
    return shoot_batch(model, cost, eta, [xi], control_set)[0]


def shoot_batch(
    model: ModelSpec,
    cost: CostSpec,
    eta: SampledPath,
    starts,
    control_set: ControlSetSpec = ControlSetSpec(),
) -> list:
    """:func:`shoot` from each initial state in ``starts``, in one lockstep batch.

    Each start's Newton iteration is a generator; each round, the terminal
    costates every unfinished start asks for (its FD columns included)
    share one :func:`hamiltonian_sweep`, one request alone runs with no
    member axis.  Each start solves its own Newton system and its result
    equals :func:`shoot` from it bit for bit.  When a start raises, the
    starts after it stop and the first raiser's error is raised.
    """
    xis = [initial_state(model, xi) for xi in starts]
    solvers = [_damped_newton(eta.grid, model.state_dim) for _ in xis]

    def answer(requests):
        points = [(k, lam) for k, lams in requests.items() for lam in lams]
        xi = np.stack([xis[k] for k, _ in points])
        lam0 = np.stack([lam for _, lam in points])
        if len(points) == 1:  # no member axis, which is faster
            swept = hamiltonian_sweep(model, cost, eta, xi[0], lam0[0], control_set)
            swept = [a[None] for a in swept]
        else:
            swept = hamiltonian_sweep(model, cost, eta, xi, lam0, control_set)
        answers = {k: [] for k in requests}
        for (k, _), x, lam, u, node in zip(points, *swept):
            answers[k].append(BlowUpError(int(node)) if node >= 0 else (x, lam, u))
        return answers

    return lockstep(solvers, answer)


def value_probe(
    model: ModelSpec,
    cost: CostSpec,
    eta: SampledPath,
    xi,
    h: float,
    solver: str = "shoot",
    control_set: ControlSetSpec = ControlSetSpec(),
    opt_config: OptimizerConfig = OptimizerConfig(),
) -> dict:
    """Compare the finite-difference value gradient against lambda(0).

    Runs 2n+1 fresh solves (at xi and xi +/- h e_i; with ``solver="shoot"``
    as one :func:`shoot_batch`, otherwise one after another) and returns the
    componentwise central difference, lambda(0) from the solve at xi, and
    the maximum absolute gap.  Gap smallness is consistency evidence for
    the sensitivity identity, never an assertion of uniqueness.  A solve
    that does not converge raises :class:`NoConvergenceError`.
    """
    if not positive_finite(h):
        raise InvalidSpecError(f"h must be positive and finite, got {h!r}")
    if solver not in ("gradient", "shoot"):
        raise InvalidSpecError(f"unknown solver {solver!r}")
    xi = initial_state(model, xi)
    n = model.state_dim
    u_template = SampledPath.zeros(eta.grid, model.control_dim)
    points = [xi]
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        points.extend([xi + e, xi - e])
    if solver == "shoot":
        triples = shoot_batch(model, cost, eta, points, control_set=control_set)
        values = [eval_cost(cost, t.x, t.u, eta) for t in triples]
    else:
        values, triples = [], []
        for z in points:
            result = minimize(model, cost, eta, z, u_template, control_set, opt_config)
            if result.status != "converged":
                message = f"gradient solve did not converge: {result.status}"
                raise NoConvergenceError(result.grad_norm_trace[-1], message)
            values.append(result.final_cost)
            triples.append(result.triple)
    lam0 = triples[0].lam.values[0]
    dv = np.empty(n)
    for i in range(n):
        dv[i] = (values[1 + 2 * i] - values[2 + 2 * i]) / (2.0 * h)
    gap = float(np.max(np.abs(dv - lam0)))
    return {"dV_fd": dv, "lambda0": lam0.copy(), "max_abs_gap": gap, "value": values[0]}
