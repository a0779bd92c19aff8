"""Costate recursion, Hamiltonian, control gradient, optimality residuals.

The costate solves the backward integral equation driven by a Lebesgue
term (Heun-corrected) and a left-tag Young term against the observation
increments, with lambda(T) = 0.  The pointwise Hamiltonian gradient
D3 phi + lambda g is the L2 gradient of the discretized index with respect
to the piecewise-constant control values, up to the dt weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import CostSpec, eval_cost
from .dynamics import ModelSpec, integrate_state
from .errors import BlowUpError, InvalidParameterError
from .grid import ObservationPath, SampledPath, require_same_grid
from .roughpath import wiener_rng


@dataclass(frozen=True)
class OptimalTriple:
    """State, control, and costate on one shared grid."""

    x: SampledPath
    u: SampledPath
    lam: SampledPath

    def __post_init__(self):
        require_same_grid(self.x, self.u, self.lam)


def solve_costate(
    model: ModelSpec, cost: CostSpec, x: SampledPath, u: SampledPath, eta: ObservationPath
) -> SampledPath:
    """Backward Heun recursion for the costate with lambda(T) = 0.

    Per step: predictor/corrector on lambda' = -(lambda M + D2 phi) with
    M = D2f + (D2g) u (control frozen at the interval's left value), plus
    the Young increment D2 psi(t_i, x_i) (eta_{i+1} - eta_i).
    """
    grid = require_same_grid(x, u, eta)
    dt = grid.dt
    times = grid.times
    xv, uv = x.values, u.values
    deta = eta.increments()
    n = model.state_dim
    lam = np.zeros((grid.n_nodes, n))
    cur = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(grid.n_steps - 1, -1, -1):
            ui = uv[i]
            t0, t1 = times[i], times[i + 1]

            def rate(t, xval, lval):
                M = model.linearization(t, xval, ui)
                return lval @ M + cost.D2phi(t, xval, ui)

            r1 = rate(t1, xv[i + 1], cur)
            pred = cur + dt * r1
            r0 = rate(t0, xv[i], pred)
            young = deta[i] @ cost.D2psi(t0, xv[i])
            cur = cur + 0.5 * dt * (r1 + r0) + young
            if not np.all(np.isfinite(cur)):
                raise BlowUpError(i)
            lam[i] = cur
    return SampledPath(grid, lam)


def hamiltonian(cost: CostSpec, model: ModelSpec, t, x, lam, v) -> float:
    """H(t, x, lambda, v) = phi(t, x, v) + lambda . (f(t, x) + g(t, x) v)."""
    return float(cost.phi(t, x, v)) + float(lam @ model.drift(t, x, v))


def control_gradient(
    model: ModelSpec, cost: CostSpec, x: SampledPath, u: SampledPath, lam: SampledPath
) -> SampledPath:
    """Pointwise Hamiltonian u-gradient G(t_i) = D3 phi + lambda g."""
    grid = require_same_grid(x, u, lam)
    times = grid.times
    G = np.empty((grid.n_nodes, model.control_dim))
    for i in range(grid.n_nodes):
        t = times[i]
        G[i] = cost.D3phi(t, x.values[i], u.values[i]) + lam.values[i] @ model.g(t, x.values[i])
    return SampledPath(grid, G)


def pointwise_hamiltonian_minimizer(
    cost: CostSpec, model: ModelSpec, t, x, lam, control_set=None
):
    """Closed-form arg min over v of H for the quadratic family.

    u* = Proj_U(-S(t)^{-1} g(t, x)' lambda'); requires ``cost.quad``.
    """
    if cost.quad is None:
        raise InvalidParameterError("closed-form minimizer needs a quadratic cost")
    raw = -np.linalg.solve(cost.quad.S(t), model.g(t, x).T @ lam)
    if control_set is not None:
        raw = control_set.project_point(raw)
    return raw


#: Samples per node when the Hamiltonian minimum has no closed form.
MP_PROBE_SAMPLES = 256


def max_principle_residual(
    triple: OptimalTriple,
    cost: CostSpec,
    model: ModelSpec,
    control_set=None,
) -> float:
    """max over nodes of H(u(t)) - min_v H(v); nonnegative by construction.

    The minimum is in closed form when ``cost.quad`` is set; otherwise it
    is probed by ``MP_PROBE_SAMPLES`` seeded uniform samples of the control
    set within a ball of radius 10 (1 + |u(t)|) (heuristic residual only).
    """
    grid = require_same_grid(triple.x, triple.u, triple.lam)
    times = grid.times
    worst = 0.0
    rng = wiener_rng(0, stream=7)
    for i in range(grid.n_nodes):
        t, xv, lv, uv = times[i], triple.x.values[i], triple.lam.values[i], triple.u.values[i]
        h_at_u = hamiltonian(cost, model, t, xv, lv, uv)
        if cost.quad is not None:
            vstar = pointwise_hamiltonian_minimizer(cost, model, t, xv, lv, control_set)
            h_min = hamiltonian(cost, model, t, xv, lv, vstar)
        else:
            radius = 10.0 * (1.0 + float(np.linalg.norm(uv)))
            h_min = h_at_u
            for _ in range(MP_PROBE_SAMPLES):
                v = uv + radius * rng.uniform(-1.0, 1.0, size=model.control_dim)
                if control_set is not None:
                    v = control_set.project_point(v)
                h_min = min(h_min, hamiltonian(cost, model, t, xv, lv, v))
        worst = max(worst, h_at_u - h_min)
    return max(worst, 0.0)


def _midpoint_sum(z: np.ndarray, dw: np.ndarray) -> float:
    """sum of midpoint-tagged pairings <z, dw> over steps."""
    mids = 0.5 * (z[:-1] + z[1:])
    return float(np.sum(mids * dw))


def duality_check(M: SampledPath, a: SampledPath, b: SampledPath, zeta0, lambdaT) -> float:
    """Residual of the forward/backward duality identity.

    Solves zeta(t) = zeta(0) + int_0^t M zeta ds + [a(t) - a(0)] forward and
    lambda(t) = lambda(T) + int_t^T lambda M ds + [b(t) - b(T)] backward by
    Heun steps with exact driver increments, then returns
    |lambda(T) zeta(T) - lambda(0) zeta(0) - int zeta db - int lambda da|.
    The pairing integrals use the midpoint tag, which makes the identity
    exact to rounding when M = 0.
    """
    grid = require_same_grid(M, a, b)
    dt = grid.dt
    Mv = M.values
    av, bv = a.values, b.values
    n = av.shape[1]
    zeta = np.empty((grid.n_nodes, n))
    zeta[0] = np.asarray(zeta0, dtype=float)
    for i in range(grid.n_steps):
        da = av[i + 1] - av[i]
        pred = zeta[i] + dt * (Mv[i] @ zeta[i]) + da
        zeta[i + 1] = zeta[i] + 0.5 * dt * (Mv[i] @ zeta[i] + Mv[i + 1] @ pred) + da
    lam = np.empty((grid.n_nodes, n))
    lam[-1] = np.asarray(lambdaT, dtype=float)
    for i in range(grid.n_steps - 1, -1, -1):
        db = bv[i] - bv[i + 1]
        pred = lam[i + 1] + dt * (lam[i + 1] @ Mv[i + 1]) + db
        lam[i] = lam[i + 1] + 0.5 * dt * (lam[i + 1] @ Mv[i + 1] + pred @ Mv[i]) + db
    lhs = float(lam[-1] @ zeta[-1] - lam[0] @ zeta[0])
    rhs = _midpoint_sum(zeta, np.diff(bv, axis=0)) + _midpoint_sum(lam, np.diff(av, axis=0))
    return abs(lhs - rhs)


def _central_difference(model, cost, u, xi, eta, node, component, h) -> float:
    """d(cost)/d u[node, component] by a central difference of forward + cost."""
    grid = u.grid

    def cost_at(delta):
        vals = u.values.copy()
        vals[node, component] += delta
        up = SampledPath(grid, vals)
        return eval_cost(cost, integrate_state(model, up, xi, grid), up, eta)

    return (cost_at(h) - cost_at(-h)) / (2.0 * h)


def gradient_fd_gap(
    model: ModelSpec,
    cost: CostSpec,
    u: SampledPath,
    xi,
    eta: ObservationPath,
    node: int,
    component: int = 0,
    h: float = 1e-5,
) -> dict:
    """Central finite difference of the full forward+cost pipeline at one node.

    Returns the adjoint prediction dt * G(t_k), the FD value, and their
    relative gap; the computable shadow of the first-order cost expansion.
    """
    grid = u.grid
    if not (0 < node < grid.n_steps):
        raise InvalidParameterError("perturb an interior node")
    fd = _central_difference(model, cost, u, xi, eta, node, component, h)
    x = integrate_state(model, u, xi, grid)
    lam = solve_costate(model, cost, x, u, eta)
    G = control_gradient(model, cost, x, u, lam)
    pred = grid.dt * G.values[node, component]
    rel = abs(fd - pred) / max(abs(fd), abs(pred), 1e-12)
    return {"fd": fd, "adjoint": pred, "rel_gap": rel}
