"""Hamiltonian boundary-value formulation solved by single shooting.

The maximum principle turns the assimilation problem into a coupled
forward system for (x, lambda) once the control is eliminated through its
closed-form pointwise minimizer; shooting then root-finds the unknown
initial costate so that lambda(T) = 0.  Long chaotic horizons break the
Newton iteration (sensitivities explode); the projected-gradient path
covers those, and shooting demos default to short windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import OptimalTriple, pointwise_hamiltonian_minimizer
from .cost import CostSpec, eval_cost
from .dynamics import ModelSpec
from .errors import BlowUpError, InvalidSpecError, NoConvergenceError, UnsupportedCostError
from .grid import ObservationPath, SampledPath
from .optimizer import (
    AssimilationResult,
    ControlSetSpec,
    OptimizerConfig,
    minimize,
    positive_finite,
)

#: Step of the forward-difference Jacobian of lambda0 -> lambda(T).
FD_STEP = 1e-6


@dataclass(frozen=True)
class ShootingConfig:
    newton_max_iters: int = 40
    newton_tol: float = 1e-9

    def __post_init__(self):
        if not (type(self.newton_max_iters) is int and self.newton_max_iters >= 1):
            raise InvalidSpecError("newton_max_iters must be a positive integer")
        if not positive_finite(self.newton_tol):
            raise InvalidSpecError(
                f"newton_tol must be positive and finite, got {self.newton_tol!r}"
            )


def integrate_hamiltonian(
    model: ModelSpec,
    cost: CostSpec,
    eta: ObservationPath,
    xi,
    lambda0,
    control_set: ControlSetSpec | None = None,
):
    """Forward integration of the coupled state/costate system.

    The control is eliminated pointwise via u = Proj_U(-S^{-1} g' lambda');
    x advances by the RK4 step of ``integrate_state`` with the control
    frozen per step, lambda by a Heun predictor/corrector on -D2m plus the
    left-tag Young increment.  For an arbitrary lambda0 the terminal
    costate is generally nonzero.
    """
    if cost.quad is None:
        raise UnsupportedCostError("Hamiltonian integration needs a quadratic-family cost")
    grid = eta.grid
    dt = grid.dt
    times = grid.times
    deta = eta.increments()
    n, m = model.state_dim, model.control_dim
    xs = np.empty((grid.n_nodes, n))
    ls = np.empty((grid.n_nodes, n))
    us = np.empty((grid.n_nodes, m))
    xs[0] = np.asarray(xi, dtype=float)
    ls[0] = np.asarray(lambda0, dtype=float)

    def upoint(t, xv, lv):
        return pointwise_hamiltonian_minimizer(cost, model, t, xv, lv, control_set)

    def d2m(t, xv, lv, uv):
        return cost.D2phi(t, xv, uv) + lv @ model.linearization(t, xv, uv)

    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(grid.n_steps):
            t0, t1 = times[i], times[i + 1]
            x0, l0 = xs[i], ls[i]
            u0 = upoint(t0, x0, l0)
            us[i] = u0
            x1 = model.rk4_step(t0, x0, u0, dt)
            young = deta[i] @ cost.D2psi(t0, x0)
            r0 = d2m(t0, x0, l0, u0)
            pred = l0 - dt * r0 - young
            u_pred = upoint(t1, x1, pred)
            r1 = d2m(t1, x1, pred, u_pred)
            l1 = l0 - 0.5 * dt * (r0 + r1) - young
            if not (np.all(np.isfinite(x1)) and np.all(np.isfinite(l1))):
                raise BlowUpError(i + 1)
            xs[i + 1], ls[i + 1] = x1, l1
    us[-1] = upoint(times[-1], xs[-1], ls[-1])
    return SampledPath(grid, xs), SampledPath(grid, ls), SampledPath(grid, us)


def shoot(
    model: ModelSpec,
    cost: CostSpec,
    eta: ObservationPath,
    xi,
    config: ShootingConfig = ShootingConfig(),
    control_set: ControlSetSpec | None = None,
) -> OptimalTriple:
    """Damped Newton on F(lambda0) = lambda(T; lambda0) from lambda0 = 0, FD Jacobian.

    Returns the optimal triple on success (|lambda(T)| < newton_tol);
    raises :class:`NoConvergenceError` carrying the best residual seen.
    """
    n = model.state_dim
    lam0 = np.zeros(n)

    def terminal(l0):
        _, ls, _ = integrate_hamiltonian(model, cost, eta, xi, l0, control_set)
        return ls.values[-1]

    best = np.inf
    try:
        F = terminal(lam0)
    except BlowUpError as err:
        raise NoConvergenceError(np.inf, f"shooting blew up at the initial guess: {err}")
    for _ in range(config.newton_max_iters):
        res = float(np.linalg.norm(F))
        best = min(best, res)
        if res < config.newton_tol:
            xs, ls, us = integrate_hamiltonian(model, cost, eta, xi, lam0, control_set)
            return OptimalTriple(x=xs, u=us, lam=ls)
        jac = np.empty((n, n))
        try:
            for k in range(n):
                probe = lam0.copy()
                probe[k] += FD_STEP
                jac[:, k] = (terminal(probe) - F) / FD_STEP
            delta = np.linalg.solve(jac, F)
        except (BlowUpError, np.linalg.LinAlgError) as err:
            raise NoConvergenceError(best, f"shooting Jacobian failed: {err}")
        step = 1.0
        accepted = False
        for _ in range(8):
            try:
                F_new = terminal(lam0 - step * delta)
            except BlowUpError:
                step *= 0.5
                continue
            if np.linalg.norm(F_new) < res:
                lam0 = lam0 - step * delta
                F = F_new
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    raise NoConvergenceError(best, "shooting Newton did not reach tolerance")


def _solve_value(model, cost, eta, xi, solver, control_set, opt_config, u_template):
    if solver == "shoot":
        triple = shoot(model, cost, eta, xi, control_set=control_set)
        value = eval_cost(cost, triple.x, triple.u, eta)
        return value, triple
    result: AssimilationResult = minimize(
        model, cost, eta, xi, u_template, control_set, opt_config
    )
    if result.status == "stalled":
        raise NoConvergenceError(result.grad_norm_trace[-1], "gradient solve stalled")
    return result.final_cost, result.triple


def value_probe(
    model: ModelSpec,
    cost: CostSpec,
    eta: ObservationPath,
    xi,
    h: float,
    solver: str = "shoot",
    control_set: ControlSetSpec | None = None,
    opt_config: OptimizerConfig = OptimizerConfig(),
) -> dict:
    """Compare the finite-difference value gradient against lambda(0).

    Runs 2n+1 fresh solves (at xi and xi +/- h e_i) and returns the
    componentwise central difference, lambda(0) from the solve at xi, and
    the maximum absolute gap.  Gap smallness is consistency evidence for
    the sensitivity identity, never an assertion of uniqueness.
    """
    if not positive_finite(h):
        raise InvalidSpecError(f"h must be positive and finite, got {h!r}")
    if solver not in ("gradient", "shoot"):
        raise InvalidSpecError(f"unknown solver {solver!r}")
    control_set = control_set or ControlSetSpec()
    xi = np.asarray(xi, dtype=float)
    n = model.state_dim
    u_template = SampledPath.zeros(eta.grid, model.control_dim)
    points = [xi]
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        points.extend([xi + e, xi - e])
    solved = [
        _solve_value(model, cost, eta, z, solver, control_set, opt_config, u_template)
        for z in points
    ]
    v_center, triple = solved[0]
    lam0 = triple.lam.values[0]
    dv = np.empty(n)
    for i in range(n):
        v_plus, _ = solved[1 + 2 * i]
        v_minus, _ = solved[2 + 2 * i]
        dv[i] = (v_plus - v_minus) / (2.0 * h)
    gap = float(np.max(np.abs(dv - lam0)))
    return {"dV_fd": dv, "lambda0": lam0.copy(), "max_abs_gap": gap, "value": v_center}
