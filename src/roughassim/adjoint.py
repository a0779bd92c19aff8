"""Costate recursion, Hamiltonian, control gradient, optimality residuals.

The costate solves the backward integral equation driven by a Lebesgue
term (Heun-corrected) and a left-tag Young term against the observation
increments, with lambda(T) = 0.  The pointwise Hamiltonian gradient
D3 phi + lambda g is the L2 gradient of the discretized index with respect
to the piecewise-constant control values, up to the dt weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import CostSpec
from .dynamics import ModelSpec, first_nonfinite
from .errors import BlowUpError, InvalidParameterError
from .grid import SampledPath, require_same_grid
from .roughpath import wiener_rng


@dataclass(frozen=True)
class OptimalTriple:
    """State, control, and costate on one shared grid."""

    x: SampledPath
    u: SampledPath
    lam: SampledPath

    def __post_init__(self):
        require_same_grid(self.x, self.u, self.lam)


#: Bytes of state Jacobians the costate sweep holds at once.  A block of
#: nodes is evaluated in one stacked call; the block shrinks as n^2 and the
#: member count grow, so the sweep's memory does not grow with the grid.
COSTATE_BLOCK_BYTES = 1 << 24


def costate_sweep(model: ModelSpec, cost: CostSpec, xv, uv, eta: SampledPath):
    """Backward Heun recursion for the costate with lambda(T) = 0, on arrays.

    Per step: predictor/corrector on lambda' = -(lambda M + D2 phi) with
    M = D2f + (D2g) u (control frozen at the interval's left value), plus
    the Young increment D2 psi(t_i, x_i) (eta_{i+1} - eta_i).  The node
    terms are evaluated in stacked calls, a block of nodes at a time, so
    the step loop does only the Heun arithmetic.

    ``xv`` (n_nodes, n) and ``uv`` (n_nodes, m) may carry a leading member
    axis (B, ...), as in :func:`rk4_sweep`; ``eta`` is shared.  Returns the
    costate values, (..., n_nodes, n), and per member the node where the
    sweep first met a non-finite costate, or -1.
    """
    grid = eta.grid
    dt = grid.dt
    n = model.state_dim
    members = xv.shape[:-2]
    times = np.broadcast_to(grid.times, xv.shape[:-1])
    deta = eta.increments()
    lam = np.zeros(members + (grid.n_nodes, n))
    out = np.moveaxis(lam, -2, 0)
    cur = out[-1]
    node_bytes = 8 * n * n * math.prod(members) * (1 if model.D2g is None else 2)
    block = max(1, COSTATE_BLOCK_BYTES // node_bytes)
    with np.errstate(over="ignore", invalid="ignore"):
        for hi in range(grid.n_steps, 0, -block):
            lo = max(hi - block, 0)
            t0, x0, u0 = times[..., lo:hi], xv[..., lo:hi, :], uv[..., lo:hi, :]
            t1, x1 = times[..., lo + 1 : hi + 1], xv[..., lo + 1 : hi + 1, :]
            vectors = x0.shape  # a constant result comes back unstacked
            matrices = vectors + (n,)
            if model.D2g is None:  # one Jacobian per node serves both steps it bounds
                nodes = xv[..., lo : hi + 1, :]
                M = np.broadcast_to(model.D2f(times[..., lo : hi + 1], nodes), nodes.shape + (n,))
                M0, M1 = M[..., :-1, :, :], M[..., 1:, :, :]
            else:
                M0 = np.broadcast_to(model.linearization(t0, x0, u0), matrices)
                M1 = np.broadcast_to(model.linearization(t1, x1, u0), matrices)
            P0 = np.broadcast_to(cost.D2phi(t0, x0, u0), vectors)
            P1 = np.broadcast_to(cost.D2phi(t1, x1, u0), vectors)
            young = np.broadcast_to(np.vecmat(deta[lo:hi], cost.D2psi(t0, x0)), vectors)
            # Node-major views: node k of every member is row k.
            M0, M1 = np.moveaxis(M0, -3, 0), np.moveaxis(M1, -3, 0)
            P0, P1, young = (np.moveaxis(a, -2, 0) for a in (P0, P1, young))
            for k in range(hi - lo - 1, -1, -1):
                r1 = np.vecmat(cur, M1[k]) + P1[k]
                pred = cur + dt * r1
                r0 = np.vecmat(pred, M0[k]) + P0[k]
                cur = cur + 0.5 * dt * (r1 + r0) + young[k]
                out[lo + k] = cur
    return lam, first_nonfinite(lam, backward=True)


def solve_costate(
    model: ModelSpec, cost: CostSpec, x: SampledPath, u: SampledPath, eta: SampledPath
) -> SampledPath:
    """The costate of :func:`costate_sweep` with lambda(T) = 0 as a path.

    Raises :class:`BlowUpError` at the node where the backward sweep first
    turns non-finite.
    """
    grid = require_same_grid(x, u, eta)
    lam, blown = costate_sweep(model, cost, x.values, u.values, eta)
    if blown >= 0:
        raise BlowUpError(int(blown))
    return SampledPath(grid, lam)


def hamiltonian(cost: CostSpec, model: ModelSpec, t, x, lam, v):
    """H(t, x, lambda, v) = phi(t, x, v) + lambda . (f(t, x) + g(t, x) v)."""
    return cost.phi(t, x, v) + np.vecdot(lam, model.drift(t, x, v))


def control_gradient(
    model: ModelSpec, cost: CostSpec, x: SampledPath, u: SampledPath, lam: SampledPath
) -> SampledPath:
    """Pointwise Hamiltonian u-gradient G(t_i) = D3 phi + lambda g."""
    grid = require_same_grid(x, u, lam)
    t = grid.times
    G = cost.D3phi(t, x.values, u.values) + np.vecmat(lam.values, model.g(t, x.values))
    return SampledPath(grid, G)


def pointwise_hamiltonian_minimizer(cost: CostSpec, model: ModelSpec, t, x, lam, control_set):
    """Closed-form arg min over v of H for the quadratic family.

    u* = Proj_U(-S(t)^{-1} g(t, x)' lambda') with U the
    :class:`~roughassim.optimizer.ControlSetSpec` ``control_set``;
    requires ``cost.quad``.
    """
    if cost.quad is None:
        raise InvalidParameterError("closed-form minimizer needs a quadratic cost")
    # One column per node: np.linalg.solve reads a 2-D right-hand side as a matrix.
    raw = -np.linalg.solve(cost.quad.S(t), np.vecmat(lam, model.g(t, x))[..., None])[..., 0]
    return control_set.project_values(raw)


#: Samples per node when the Hamiltonian minimum has no closed form.
MP_PROBE_SAMPLES = 256


def max_principle_residual(
    triple: OptimalTriple, cost: CostSpec, model: ModelSpec, control_set
) -> float:
    """max over nodes of H(u(t)) - min_v H(v); nonnegative by construction.

    The minimum is in closed form when ``cost.quad`` is set; otherwise it
    is probed by ``MP_PROBE_SAMPLES`` seeded uniform draws, each covering
    every node, of the control set within a ball of radius 10 (1 + |u(t)|)
    (heuristic residual only).
    """
    grid = require_same_grid(triple.x, triple.u, triple.lam)
    t, x, lam, u = grid.times, triple.x.values, triple.lam.values, triple.u.values
    h_at_u = hamiltonian(cost, model, t, x, lam, u)
    if cost.quad is not None:
        vstar = pointwise_hamiltonian_minimizer(cost, model, t, x, lam, control_set)
        h_min = hamiltonian(cost, model, t, x, lam, vstar)
    else:
        rng = wiener_rng(0, stream=7)
        radius = 10.0 * (1.0 + np.linalg.norm(u, axis=-1, keepdims=True))
        h_min = h_at_u
        for _ in range(MP_PROBE_SAMPLES):
            v = control_set.project_values(u + radius * rng.uniform(-1.0, 1.0, size=u.shape))
            h_min = np.minimum(h_min, hamiltonian(cost, model, t, x, lam, v))
    return max(float(np.max(h_at_u - h_min)), 0.0)


def _midpoint_sum(z: np.ndarray, dw: np.ndarray) -> float:
    """sum of midpoint-tagged pairings <z, dw> over steps."""
    mids = 0.5 * (z[:-1] + z[1:])
    return float(np.sum(mids * dw))


def duality_sweep(grid, Mv, av, bv, zeta0, lambdaT) -> np.ndarray:
    """Residuals of the forward/backward duality identity, on arrays.

    ``Mv`` (n_nodes, n, n), ``av`` and ``bv`` (n_nodes, n), ``zeta0`` and
    ``lambdaT`` (n,) may carry a leading member axis (B, ...); each member
    runs the Heun steps of :func:`duality_check` and gets its residual, bit
    for bit the one it gets alone.
    """
    dt = grid.dt
    # Node-major views: node i of every member is row i.
    Ms = np.moveaxis(Mv, -3, 0)
    As, Bs = np.moveaxis(av, -2, 0), np.moveaxis(bv, -2, 0)
    zeta, lam = np.empty(av.shape), np.empty(bv.shape)
    zs, ls = np.moveaxis(zeta, -2, 0), np.moveaxis(lam, -2, 0)
    zs[0] = zeta0
    for i in range(grid.n_steps):
        da = As[i + 1] - As[i]
        Mz = np.matvec(Ms[i], zs[i])
        pred = zs[i] + dt * Mz + da
        zs[i + 1] = zs[i] + 0.5 * dt * (Mz + np.matvec(Ms[i + 1], pred)) + da
    ls[-1] = lambdaT
    for i in range(grid.n_steps - 1, -1, -1):
        db = Bs[i] - Bs[i + 1]
        lM = np.vecmat(ls[i + 1], Ms[i + 1])
        pred = ls[i + 1] + dt * lM + db
        ls[i] = ls[i + 1] + 0.5 * dt * (lM + np.vecmat(pred, Ms[i])) + db
    out = np.empty(av.shape[:-2])
    for k in np.ndindex(out.shape):  # one pairing sum per member, in node order
        z, l, a, b = zeta[k], lam[k], av[k], bv[k]
        lhs = float(l[-1] @ z[-1] - l[0] @ z[0])
        rhs = _midpoint_sum(z, np.diff(b, axis=0)) + _midpoint_sum(l, np.diff(a, axis=0))
        out[k] = abs(lhs - rhs)
    return out


def duality_check(M: SampledPath, a: SampledPath, b: SampledPath, zeta0, lambdaT) -> float:
    """Residual of the forward/backward duality identity.

    Solves zeta(t) = zeta(0) + int_0^t M zeta ds + [a(t) - a(0)] forward and
    lambda(t) = lambda(T) + int_t^T lambda M ds + [b(t) - b(T)] backward by
    Heun steps with exact driver increments, then returns
    |lambda(T) zeta(T) - lambda(0) zeta(0) - int zeta db - int lambda da|.
    The pairing integrals use the midpoint tag, which makes the identity
    exact to rounding when M = 0.  :func:`duality_sweep` runs it on arrays.
    """
    grid = require_same_grid(M, a, b)
    return float(duality_sweep(grid, M.values, a.values, b.values, zeta0, lambdaT))
