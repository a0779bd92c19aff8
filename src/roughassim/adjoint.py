"""Costate recursion, Hamiltonian, control gradient, optimality residuals.

The costate solves the backward integral equation driven by a Lebesgue
term (Heun-corrected) and a left-tag Young term against the observation
increments, with lambda(T) = 0.  The pointwise Hamiltonian gradient
D3 phi + lambda G is the L2 gradient of the discretized index with respect
to the piecewise-constant control values, up to the dt weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import first_nonfinite
from .errors import BlowUpError, InvalidSpecError
from .grid import SampledPath, frozen_array, require_same_grid
from .problem import AssimilationProblem
from .roughpath import wiener_rng


@dataclass(frozen=True)
class OptimalTriple:
    """State, control, and costate on one shared grid."""

    x: SampledPath
    u: SampledPath
    lam: SampledPath

    def __post_init__(self):
        require_same_grid(self.x, self.u, self.lam)


#: Bytes of state Jacobians the costate sweep holds at once for one member.
#: A block of nodes is evaluated in one stacked call; the block shrinks as
#: n^2 grows, so the sweep's memory does not grow with the grid.  It does
#: not shrink with the member count, so a member's block, and with it its
#: costate, is the one it gets alone.
COSTATE_BLOCK_BYTES = 1 << 24

#: Largest state dimension whose costate is composed by :func:`_affine_scan`;
#: a larger state steps the Heun loop, which does O(n^2) work per step
#: against the scan's O(n^3).
COSTATE_SCAN_MAX_DIM = 10

# The Heun loop's blocks hold this many bytes of Jacobians per member, so a
# block's Jacobians are still in cache when its steps read them.  The loop's
# bytes do not depend on its blocks; the scan's do, so it keeps
# COSTATE_BLOCK_BYTES.
_LOOP_BLOCK_BYTES = 1 << 18


def costate_sweep(problem: AssimilationProblem, xv, uv):
    """Backward Heun recursion for the costate with lambda(T) = 0, on arrays.

    Per step: predictor/corrector on lambda' = -(lambda D2f + D2 phi)
    (control frozen at the interval's left value), plus the Young
    increment D2 psi(t_i, x_i) (eta_{i+1} - eta_i).  The node terms are
    evaluated in stacked calls, a block of nodes at a time.  The step is
    affine in the costate, lambda_k = lambda_{k+1} A_k + c_k with

        A_k = I + (dt/2) (M_k + M_{k+1} + dt M_{k+1} M_k),
        c_k = (dt/2) (P0_k + P1_k + dt P1_k M_k) + young_k,

    M the state Jacobians and P0, P1 the D2 phi terms, so up to
    ``COSTATE_SCAN_MAX_DIM`` states a block is composed by
    :func:`_affine_scan` from the costate at its top.  A larger state, or a
    member whose scanned block holds a non-finite value, steps the Heun
    loop, so a blow-up is met at the node the loop meets it.

    ``xv`` (n_nodes, n) and ``uv`` (n_nodes, m) may carry a leading member
    axis (B, ...), as in :func:`rk4_sweep`; the problem's eta is shared.
    Each member's costate equals its own one-member sweep bit for bit.
    Returns the costate values, (..., n_nodes, n), and per member the node
    where the sweep first met a non-finite costate, or -1.  The arrays are
    checked by :meth:`AssimilationProblem.check_paths`.
    """
    model, cost, eta = problem.model, problem.cost, problem.eta
    n = model.state_dim
    members = problem.check_paths(state=xv, control=uv)
    grid = eta.grid
    dt = grid.dt
    # One flat member axis, so a member whose scan blew up can be picked out.
    xv = xv.reshape((-1,) + xv.shape[-2:])
    uv = uv.reshape((-1,) + uv.shape[-2:])
    times = np.broadcast_to(grid.times, xv.shape[:-1])
    deta = eta.increments()
    lam = np.zeros(xv.shape[:-1] + (n,))
    out = np.moveaxis(lam, -2, 0)
    scan = n <= COSTATE_SCAN_MAX_DIM
    block = max(1, (COSTATE_BLOCK_BYTES if scan else _LOOP_BLOCK_BYTES) // (8 * n * n))
    with np.errstate(over="ignore", invalid="ignore"):
        for hi in range(grid.n_steps, 0, -block):
            lo = max(hi - block, 0)
            t0, x0, u0 = times[..., lo:hi], xv[..., lo:hi, :], uv[..., lo:hi, :]
            t1, x1 = times[..., lo + 1 : hi + 1], xv[..., lo + 1 : hi + 1, :]
            vectors = x0.shape  # a constant result comes back unstacked
            # One Jacobian per node serves both steps it bounds.
            nodes = xv[..., lo : hi + 1, :]
            M = np.broadcast_to(model.D2f(times[..., lo : hi + 1], nodes), nodes.shape + (n,))
            P0 = np.broadcast_to(cost.D2phi(t0, x0, u0), vectors)
            P1 = np.broadcast_to(cost.D2phi(t1, x1, u0), vectors)
            young = np.broadcast_to(np.vecmat(deta[lo:hi], cost.D2psi(t0, x0)), vectors)
            # Node-major views: node k of every member is row k.
            M = np.moveaxis(M, -3, 0)
            P0, P1, young = (np.moveaxis(a, -2, 0) for a in (P0, P1, young))
            span = out[lo : hi + 1]
            if not scan:
                _heun_steps(span, M, P0, P1, young, dt)
                continue
            A = _heun_maps(M, dt)
            c = 0.5 * dt * (P0 + P1 + dt * np.vecmat(P1, M[:-1])) + young
            span[:-1] = _affine_scan(A, c, span[-1])
            blown = ~np.all(np.isfinite(span[:-1]), axis=(0, -1))
            if np.any(blown):
                redo = span[:, blown]
                _heun_steps(redo, *(a[:, blown] for a in (M, P0, P1, young)), dt)
                span[:, blown] = redo
    lam = lam.reshape(members + lam.shape[-2:])
    return lam, first_nonfinite(lam, backward=True)


def _heun_maps(M, dt):
    """Every Heun step's map A_k = I + (dt/2) (M_k + M_{k+1} + dt M_{k+1} M_k),
    from node-major Jacobians M (K + 1, ..., n, n)."""
    return np.eye(M.shape[-1]) + 0.5 * dt * (M[:-1] + M[1:] + dt * np.matmul(M[1:], M[:-1]))


def _heun_steps(lam, M, P0, P1, young, dt) -> None:
    """The backward Heun steps on node-major arrays, one step at a time:
    fills ``lam[:-1]`` down from ``lam[-1]``."""
    cur = lam[-1]
    for k in range(len(P0) - 1, -1, -1):
        r1 = np.vecmat(cur, M[k + 1]) + P1[k]
        pred = cur + dt * r1
        r0 = np.vecmat(pred, M[k]) + P0[k]
        cur = cur + 0.5 * dt * (r1 + r0) + young[k]
        lam[k] = cur


def _affine_scan(A, c, top):
    """Every lambda_k of lambda_k = lambda_{k+1} A_k + c_k, k < K, from
    lambda_K = ``top``, with A (K, ..., n, n) and c (K, ..., n) node-major.

    Blelloch's work-efficient scan (CMU-CS-90-190): the up-sweep composes
    neighbouring maps pairwise, K - 1 compositions in ceil(log2 K) stacked
    levels; the down-sweep hands each composed map the costate at its top,
    one vector-matrix product per map.
    """
    levels = [(A, c)]
    while len(A) > 1:
        pairs = len(A) // 2
        lower, upper = slice(0, 2 * pairs, 2), slice(1, 2 * pairs, 2)
        # Apply the upper map first: lambda A_up A_low + (c_up A_low + c_low).
        pA = np.matmul(A[upper], A[lower])
        pc = np.vecmat(c[upper], A[lower]) + c[lower]
        if len(A) % 2:  # the top map has no partner on this level
            pA, pc = np.concatenate([pA, A[-1:]]), np.concatenate([pc, c[-1:]])
        A, c = pA, pc
        levels.append((A, c))
    tops = top[None]  # the costate at the top of each map on a level
    for A, c in reversed(levels[:-1]):
        pairs = len(A) // 2
        lower, upper = slice(0, 2 * pairs, 2), slice(1, 2 * pairs, 2)
        below = np.empty((len(A),) + tops.shape[1:])
        below[upper] = tops[:pairs]  # an upper map starts at its pair's top
        below[lower] = np.vecmat(tops[:pairs], A[upper]) + c[upper]
        below[2 * pairs :] = tops[pairs:]  # the unpaired top map, if any
        tops = below
    A, c = levels[0]
    return np.vecmat(tops, A) + c


def solve_costate(problem: AssimilationProblem, x: SampledPath, u: SampledPath) -> SampledPath:
    """The costate of :func:`costate_sweep` with lambda(T) = 0 as a path.

    Raises :class:`BlowUpError` at the node where the backward sweep first
    turns non-finite.
    """
    grid = require_same_grid(x, u, problem.eta)
    lam, blown = costate_sweep(problem, x.values, u.values)
    if blown >= 0:
        raise BlowUpError(int(blown))
    return SampledPath(grid, lam)


def hamiltonian(problem: AssimilationProblem, t, x, lam, v):
    """H(t, x, lambda, v) = phi(t, x, v) + lambda . (f(t, x) + G v)."""
    return problem.cost.phi(t, x, v) + np.vecdot(lam, problem.model.drift(t, x, v))


def control_gradient(
    problem: AssimilationProblem, x: SampledPath, u: SampledPath, lam: SampledPath
) -> SampledPath:
    """Pointwise Hamiltonian u-gradient D3 phi + lambda G at every node.

    The paths are checked by :meth:`AssimilationProblem.check_paths`.
    """
    grid = require_same_grid(x, u, lam)
    problem.check_paths(state=x.values, control=u.values, costate=lam.values)
    return SampledPath(grid, _control_gradients(problem, grid, x.values, u.values, lam.values))


def _control_gradients(problem: AssimilationProblem, grid, xv, uv, lamv):
    """:func:`control_gradient` of stacked, unchecked arrays on ``grid``, xv
    and lamv (..., n_nodes, n) and uv (..., n_nodes, m); each member's
    gradient equals its own call bit for bit."""
    t = np.broadcast_to(grid.times, xv.shape[:-1])
    return problem.cost.D3phi(t, xv, uv) + np.vecmat(lamv, problem.model.G)


def pointwise_hamiltonian_minimizer(problem: AssimilationProblem, t, x, lam):
    """Closed-form arg min over v of H for the quadratic family.

    u* = Proj_U(-S^{-1} G' lambda') with U the problem's control
    set, the gain -S^{-1} G' read from
    :attr:`AssimilationProblem.control_gain`; requires a quadratic-family
    cost (``cost.quad``).
    """
    if problem.cost.quad is None:
        raise InvalidSpecError("closed-form minimizer needs a quadratic cost")
    return problem.control_set.project_values(np.matvec(problem.control_gain, lam))


#: Samples per node when the Hamiltonian minimum has no closed form.
MP_PROBE_SAMPLES = 256


def max_principle_residual(triple: OptimalTriple, problem: AssimilationProblem) -> float:
    """max over nodes of H(u(t)) - min_v H(v); nonnegative by construction.

    The minimum is in closed form when ``cost.quad`` is set; otherwise it
    is probed by ``MP_PROBE_SAMPLES`` seeded uniform draws, each covering
    every node, of the control set within a ball of radius 10 (1 + |u(t)|)
    (heuristic residual only).  The triple's paths are checked by
    :meth:`AssimilationProblem.check_paths`.
    """
    grid = require_same_grid(triple.x, triple.u, triple.lam)
    t, x, lam, u = grid.times, triple.x.values, triple.lam.values, triple.u.values
    problem.check_paths(state=x, control=u, costate=lam)
    h_at_u = hamiltonian(problem, t, x, lam, u)
    if problem.cost.quad is not None:
        vstar = pointwise_hamiltonian_minimizer(problem, t, x, lam)
        h_min = hamiltonian(problem, t, x, lam, vstar)
    else:
        rng = wiener_rng(0, stream=7)
        radius = 10.0 * (1.0 + np.linalg.norm(u, axis=-1, keepdims=True))
        h_min = h_at_u
        for _ in range(MP_PROBE_SAMPLES):
            v = problem.control_set.project_values(
                u + radius * rng.uniform(-1.0, 1.0, size=u.shape)
            )
            h_min = np.minimum(h_min, hamiltonian(problem, t, x, lam, v))
    return max(float(np.max(h_at_u - h_min)), 0.0)


def duality_sweep(grid, Mv, av, bv, zeta0, lambdaT) -> np.ndarray:
    """Residuals of the forward/backward duality identity, on arrays.

    ``Mv`` (n_nodes, n, n), ``av`` and ``bv`` (n_nodes, n), ``zeta0`` and
    ``lambdaT`` (n,) may carry a leading member axis (B, ...); each member
    gets its residual, bit for bit the one it gets alone.  The Heun steps
    run the maps A_k of :func:`_heun_maps` on :func:`_affine_scan`:
    lambda_k = lambda_{k+1} A_k + beta_k backward and, transposed,
    zeta_{k+1}' = zeta_k' A_k' + alpha_k' from the last node down.
    """
    dt = grid.dt
    zeta, lam = np.empty(av.shape), np.empty(bv.shape)
    # Node-major views: node k of every member is row k.
    M, zs, ls = np.moveaxis(Mv, -3, 0), np.moveaxis(zeta, -2, 0), np.moveaxis(lam, -2, 0)
    da, db = np.diff(av, axis=-2), np.diff(bv, axis=-2)
    dak, dbk = np.moveaxis(da, -2, 0), -np.moveaxis(db, -2, 0)  # dbk = b_k - b_{k+1}
    with np.errstate(over="ignore", invalid="ignore"):
        A = _heun_maps(M, dt)
        alpha = dak + 0.5 * dt * np.matvec(M[1:], dak)
        beta = dbk + 0.5 * dt * np.vecmat(dbk, M[:-1])
        zs[0], ls[-1] = zeta0, lambdaT
        zs[:0:-1] = _affine_scan(np.swapaxes(A, -1, -2)[::-1], alpha[::-1], zs[0])
        ls[:-1] = _affine_scan(A, beta, ls[-1])
        lhs = np.vecdot(ls[-1], zs[-1]) - np.vecdot(ls[0], zs[0])
        mid_z, mid_l = (0.5 * (v[..., :-1, :] + v[..., 1:, :]) for v in (zeta, lam))
        rhs = np.sum(mid_z * db, axis=(-2, -1)) + np.sum(mid_l * da, axis=(-2, -1))
        return np.abs(lhs - rhs)


def duality_check(M, a: SampledPath, b: SampledPath, zeta0, lambdaT) -> float:
    """Residual of the forward/backward duality identity.

    Solves zeta(t) = zeta(0) + int_0^t M zeta ds + [a(t) - a(0)] forward and
    lambda(t) = lambda(T) + int_t^T lambda M ds + [b(t) - b(T)] backward by
    Heun steps with exact driver increments, then returns
    |lambda(T) zeta(T) - lambda(0) zeta(0) - int zeta db - int lambda da|.
    The pairing integrals use the midpoint tag, which makes the identity
    exact to rounding when M = 0.  :func:`duality_sweep` runs it on arrays.
    M is an array of finite numbers, one n x n matrix per node of a's and
    b's grid, where a and b have n components, and zeta0 and lambdaT are
    finite n-vectors.
    """
    grid = require_same_grid(a, b)
    n = a.dim
    if b.dim != n:
        raise InvalidSpecError(f"a has {n} components, b {b.dim}")
    checked = []
    for label, value, shape in (("M", M, (grid.n_nodes, n, n)), ("zeta0", zeta0, (n,)),
                                ("lambdaT", lambdaT, (n,))):
        value = frozen_array(value, label)
        if value.shape != shape:
            raise InvalidSpecError(f"{label} must have shape {shape}, got {value.shape}")
        if not np.all(np.isfinite(value)):
            raise InvalidSpecError(f"{label} must be finite")
        checked.append(value)
    M, zeta0, lambdaT = checked
    return float(duality_sweep(grid, M, a.values, b.values, zeta0, lambdaT))
