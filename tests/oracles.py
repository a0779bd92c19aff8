"""Independent reference implementations used only by the tests.

Everything here is deliberately written against a different method than
the library (closed forms, exhaustive enumeration, classical quadrature,
Riccati ODEs, finite differences, one node at a time) so that agreement is
evidence, not tautology.
The last few are diagnostics only the tests read: set containment, the
Lorenz'63 quadratic part and the energy ratios.
"""

from __future__ import annotations

import itertools

import numpy as np

from roughassim.cost import eval_cost
from roughassim.dynamics import ModelSpec, integrate_state
from roughassim.errors import BlowUpError
from roughassim.grid import SampledPath, require_same_grid
from roughassim.roughpath import wiener_rng


def riccati_lq(a: float, q: float, r: float, T: float, n_steps: int) -> np.ndarray:
    """Terminal-value scalar Riccati solution on the uniform grid.

    Pdot = -2 a P - q + P^2 / r with P(T) = 0, integrated backward by RK4;
    returns P at every grid node.  For the LQ problem
    xdot = a x + u, J = 1/2 int (q x^2 + r u^2) dt the optimal feedback is
    u = -P x / r, the costate is lambda = P x, and V(xi) = 1/2 P(0) xi^2.
    """
    P = np.zeros(n_steps + 1)
    dt = T / n_steps

    def rate(p):
        return -2.0 * a * p - q + p * p / r

    for i in range(n_steps - 1, -1, -1):
        k1 = rate(P[i + 1])
        k2 = rate(P[i + 1] - 0.5 * dt * k1)
        k3 = rate(P[i + 1] - 0.5 * dt * k2)
        k4 = rate(P[i + 1] - dt * k3)
        P[i] = P[i + 1] - (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return P


def cost_central_difference(problem, u, xi, node, component, h) -> float:
    """d(cost)/d u[node, component] by a central difference of forward + cost.

    Only the two perturbed forward solves: no costate, no adjoint gradient.
    """
    grid = u.grid

    def cost_at(delta):
        vals = u.values.copy()
        vals[node, component] += delta
        up = SampledPath(grid, vals)
        x = integrate_state(problem.model, up, xi, grid)
        return eval_cost(problem.cost, x, up, problem.eta)

    return (cost_at(h) - cost_at(-h)) / (2.0 * h)


def costate_reference(problem, x, u):
    """The costate by the per-step backward Heun loop, one node at a time,
    raising :class:`BlowUpError` at the first non-finite costate.

    Reference for ``adjoint.costate_sweep``: its step loop must reproduce
    it bit for bit, its affine scan to rounding and at the same blow-up node.
    """
    model, cost, eta = problem.model, problem.cost, problem.eta
    grid = eta.grid
    dt, times = grid.dt, grid.times
    xv, uv, deta = x.values, u.values, eta.increments()
    lam = np.zeros((grid.n_nodes, model.state_dim))
    cur = np.zeros(model.state_dim)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(grid.n_steps - 1, -1, -1):
            r1 = cur @ model.D2f(times[i + 1], xv[i + 1]) + cost.D2phi(
                times[i + 1], xv[i + 1], uv[i]
            )
            pred = cur + dt * r1
            r0 = pred @ model.D2f(times[i], xv[i]) + cost.D2phi(times[i], xv[i], uv[i])
            cur = cur + 0.5 * dt * (r1 + r0) + deta[i] @ cost.D2psi(times[i], xv[i])
            if not np.all(np.isfinite(cur)):
                raise BlowUpError(i)
            lam[i] = cur
    return lam


def eval_cost_one_path(cost, xv, uv, eta) -> float:
    """The index of one path's arrays, xv (n_nodes, n) and uv (n_nodes, m),
    with each sum taken over the path's whole array.

    Reference for ``cost._eval_costs``, whose sums along a member axis must
    give each member these bytes.
    """
    grid = eta.grid
    phis = cost.phi(grid.times, xv, uv)
    psis = cost.psi(grid.times[:-1], xv[:-1])
    trapezoid = grid.dt * (np.sum(phis) - 0.5 * (phis[0] + phis[-1]))
    return float(trapezoid) + float(np.sum(psis * eta.increments()))


def _midpoint_sum(z: np.ndarray, dw: np.ndarray) -> float:
    """sum of midpoint-tagged pairings <z, dw> over steps."""
    mids = 0.5 * (z[:-1] + z[1:])
    return float(np.sum(mids * dw))


def duality_reference(grid, M, a, b, zeta0, lambdaT):
    """The duality residual of one member by the forward and backward Heun
    loops, one node at a time, and midpoint-tagged pairing sums: M
    (n_nodes, n, n), a and b (n_nodes, n), zeta0 and lambdaT (n,).

    Reference for ``adjoint.duality_sweep``, which composes the same steps
    as affine maps on a prefix scan.  Returns the residual and the zeta and
    lambda it pairs.
    """
    dt = grid.dt
    zs, ls = np.empty(a.shape), np.empty(b.shape)
    zs[0] = zeta0
    for i in range(grid.n_steps):
        da = a[i + 1] - a[i]
        Mz = np.matvec(M[i], zs[i])
        pred = zs[i] + dt * Mz + da
        zs[i + 1] = zs[i] + 0.5 * dt * (Mz + np.matvec(M[i + 1], pred)) + da
    ls[-1] = lambdaT
    for i in range(grid.n_steps - 1, -1, -1):
        db = b[i] - b[i + 1]
        lM = np.vecmat(ls[i + 1], M[i + 1])
        pred = ls[i + 1] + dt * lM + db
        ls[i] = ls[i + 1] + 0.5 * dt * (lM + np.vecmat(pred, M[i])) + db
    lhs = float(ls[-1] @ zs[-1] - ls[0] @ zs[0])
    rhs = _midpoint_sum(zs, np.diff(b, axis=0)) + _midpoint_sum(ls, np.diff(a, axis=0))
    return abs(lhs - rhs), zs, ls


def four_drift_step(model, t, x, u, dt):
    """One RK4 step with G u formed inside each of its four ``drift`` calls.

    Reference for ``ModelSpec.rk4_step``, which forms G u once per step and
    must reproduce this bit for bit.
    """
    k1 = model.drift(t, x, u)
    k2 = model.drift(t + 0.5 * dt, x + 0.5 * dt * k1, u)
    k3 = model.drift(t + 0.5 * dt, x + 0.5 * dt * k2, u)
    k4 = model.drift(t + dt, x + dt * k3, u)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def lorenz96_gathered(n: int, forcing: float = 8.0) -> ModelSpec:
    """Lorenz'96 with its cyclic neighbours gathered by fancy indexing and
    its Jacobian built by in-place adds onto -I.

    Reference for ``dynamics.lorenz96_model``, whose slices and writes must
    give the same bytes.
    """
    idx = np.arange(n)
    ip1, im1, im2 = (idx + 1) % n, (idx - 1) % n, (idx - 2) % n

    def f(t, x):
        return (x[..., ip1] - x[..., im2]) * x[..., im1] - x + forcing

    def D2f(t, x):
        jac = np.broadcast_to(-np.eye(n), np.shape(x) + (n,)).copy()
        jac[..., idx, ip1] += x[..., im1]
        jac[..., idx, im2] += -x[..., im1]
        jac[..., idx, im1] += x[..., ip1] - x[..., im2]
        return jac

    return ModelSpec(f, np.eye(n), D2f)


def pvar_exhaustive(values: np.ndarray, p: float) -> float:
    """p-variation by enumerating every dissection (both endpoints fixed)."""
    n = values.shape[0]
    interior = range(1, n - 1)
    best = 0.0
    for k in range(n - 1):
        for combo in itertools.combinations(interior, k):
            idx = (0, *combo, n - 1)
            total = 0.0
            for s, t in zip(idx[:-1], idx[1:]):
                total += float(np.linalg.norm(values[t] - values[s])) ** p
            best = max(best, total)
    return best ** (1.0 / p)


def pvar_full_dp(values: np.ndarray, p: float) -> float:
    """p-variation by the O(N^2) dynamic program over every node.

    best[j] is the largest sum of |increment|^p over dissections of nodes
    0..j ending at j; no node is dropped first, whatever the path or p.
    """
    values = values.reshape(values.shape[0], -1)
    n = values.shape[0]
    if n < 2:
        return 0.0
    best = np.zeros(n)
    for j in range(1, n):
        dist = np.linalg.norm(values[:j] - values[j], axis=1)
        best[j] = np.max(best[:j] + dist**p)
    return float(best[n - 1]) ** (1.0 / p)


def pvar_bruteforce_loop(values: np.ndarray, p: float) -> float:
    """p-variation by a Python loop over every dissection, one norm each.

    Reference for ``roughpath.p_variation_bruteforce``, which enumerates the
    same dissections as arrays and must reproduce these sums bit for bit.
    """
    values = values.reshape(values.shape[0], -1)
    n = values.shape[0]
    if n < 2:
        return 0.0
    interior = range(1, n - 1)
    best = 0.0
    for k in range(len(interior) + 1):
        for subset in itertools.combinations(interior, k):
            nodes = values[[0, *subset, n - 1]]
            s = float(np.sum(np.linalg.norm(np.diff(nodes, axis=0), axis=1) ** p))
            best = max(best, s)
    return best ** (1.0 / p)


def oscillation_all_pairs(values: np.ndarray) -> float:
    """Largest distance between two nodes, from the full (n, n, d) difference array."""
    values = values.reshape(values.shape[0], -1)
    diffs = values[:, None, :] - values[None, :, :]
    return float(np.max(np.linalg.norm(diffs, axis=-1)))


def trapezoid_integral(f, T: float, n: int) -> float:
    """Plain trapezoid quadrature of a scalar function on [0, T]."""
    t = np.linspace(0.0, T, n + 1)
    y = np.array([f(ti) for ti in t])
    return float(np.trapezoid(y, t))


def random_walk(grid, dim, seed, stream, scale=1.0):
    """A random walk from 0 with N(0, scale^2) steps from stream ``stream``
    of ``seed``, one path drawn on its own: the per-trial oracle of the
    diagnostic suites' stacked draws (scale sqrt(dt) for a Wiener path)."""
    rng = wiener_rng(seed, stream)
    steps = rng.normal(0.0, scale, size=(grid.n_steps, dim))
    vals = np.vstack([np.zeros((1, dim)), np.cumsum(steps, axis=0)])
    return SampledPath(grid, vals)


def smooth_random(grid, dim, seed, stream, n_modes=4):
    """Random trigonometric polynomial sampled on the grid (piecewise linear),
    its coefficients drawn one mode at a time: the per-trial oracle of the
    diagnostic suites' stacked draws."""
    rng = wiener_rng(seed, stream)
    t = grid.times / grid.T
    vals = np.zeros((grid.n_nodes, dim))
    for k in range(1, n_modes + 1):
        vals += rng.normal(size=dim) * np.sin(2 * np.pi * k * t)[:, None]
        vals += rng.normal(size=dim) * np.cos(2 * np.pi * k * t)[:, None]
    return SampledPath(grid, vals)


def young_sum_reference(x_vals, y_vals, tag: str) -> float:
    """Riemann-Stieltjes sum with an explicit tag, written independently."""
    total = 0.0
    n = x_vals.shape[0] - 1
    for i in range(n):
        if tag == "left":
            xv = x_vals[i]
        else:
            xv = 0.5 * (x_vals[i] + x_vals[i + 1])
        total += float(xv @ (y_vals[i + 1] - y_vals[i]))
    return total


def contains(control_set, values: np.ndarray, tol: float = 1e-12) -> bool:
    """Whether every control in ``values`` lies in ``control_set``, to ``tol``."""
    return bool(np.max(np.abs(values - control_set.project_values(values))) <= tol)


def lorenz63_quadratic_part(state) -> np.ndarray:
    """The bilinear term f2 of Lorenz'63 in the shifted form of
    ``lorenz63_drift``; satisfies state . f2(state) = 0 identically."""
    x, y, z = state
    return np.array([0.0, -x * z, x * y])


def energy_diagnostic(x: SampledPath, u: SampledPath) -> dict:
    """Empirical boundedness ratios for the energy and nonlinearity estimates.

    sup_ratio = ||x||_inf / (1 + ||u||_2), nonlin_ratio = ||xdot||_2 /
    (1 + ||u||_2^2), with xdot the per-step slope.  For the energy-conserving
    quadratic class these stay bounded across control ensembles (gamma = 1,
    beta = 2 with r = 2).
    """
    grid = require_same_grid(x, u)
    dt = grid.dt
    u_l2 = float(np.sqrt(dt * np.sum(np.linalg.norm(u.values[:-1], axis=1) ** 2)))
    x_sup = float(np.max(np.linalg.norm(x.values, axis=1)))
    slopes = x.increments() / dt
    xdot_l2 = float(np.sqrt(dt * np.sum(np.linalg.norm(slopes, axis=1) ** 2)))
    return {
        "sup_ratio": x_sup / (1.0 + u_l2),
        "nonlin_ratio": xdot_l2 / (1.0 + u_l2**2),
    }
