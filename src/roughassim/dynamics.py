"""Controlled state equation xdot = f(t,x) + g(t,x) u and its linearization.

Models are plain callables bundled in a :class:`ModelSpec`; controls are
piecewise constant on [t_i, t_{i+1}) using the left node value, which makes
the classical RK4 step exact in the control.  The rank-3 Jacobian of g uses
the convention ``D2g[i, j, k] = d g[i, j] / d x[k]``; every built-in model
has a state-independent g and leaves it out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, GridMismatchError, InvalidSpecError
from .grid import SampledPath, TimeGrid, require_same_grid


@dataclass(frozen=True)
class Lorenz63Params:
    sigma: float = 10.0
    r: float = 28.0
    b: float = 8.0 / 3.0

    def __post_init__(self):
        if not all(0 < p < np.inf for p in (self.sigma, self.r, self.b)):  # NaN fails too
            raise InvalidSpecError("Lorenz'63 parameters must be positive and finite")


@dataclass(frozen=True)
class ModelSpec:
    """Dynamics f, g and their state Jacobians.

    f(t, x) -> (n,), g(t, x) -> (n, m), D2f(t, x) -> (n, n),
    D2g(t, x) -> (n, m, n), or None (the default) when g does not depend
    on x.

    Every callable, and :meth:`drift` and :meth:`linearization`, also
    takes stacked nodes, x (..., n), u (..., m) and t a scalar or an array
    of the leading shape, and returns row k equal to the call on node k (a
    constant may come back unstacked).  The sweeps rely on it: the costate
    evaluates its Jacobians for a block of nodes in one call, and a leading
    member axis runs independent solves through one RK4 step.
    """

    state_dim: int
    control_dim: int
    f: callable
    g: callable
    D2f: callable
    D2g: callable | None = None

    def drift(self, t, x, u):
        return self.f(t, x) + np.matvec(self.g(t, x), u)

    def linearization(self, t, x, u):
        """M(t) = D2f + (D2g) u, the coefficient of the variational equation."""
        if self.D2g is None:
            return self.D2f(t, x)
        # sum_j D2g[..., i, j, k] u[..., j], one row i at a time.
        return self.D2f(t, x) + np.vecmat(np.expand_dims(u, -2), self.D2g(t, x))

    def divergence(self, t, x) -> float:
        """Divergence of the drift f: the trace of its state Jacobian."""
        return float(np.trace(self.D2f(t, x)))

    def rk4_step(self, t, x, u, dt):
        """One classical RK4 step from (t, x) with the control frozen at u."""
        k1 = self.drift(t, x, u)
        k2 = self.drift(t + 0.5 * dt, x + 0.5 * dt * k1, u)
        k3 = self.drift(t + 0.5 * dt, x + 0.5 * dt * k2, u)
        k4 = self.drift(t + dt, x + dt * k3, u)
        return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def lorenz63_drift(state, params: Lorenz63Params = Lorenz63Params()) -> np.ndarray:
    """Stable-linear plus energy-conserving quadratic split of Lorenz'63."""
    x, y, z = np.asarray(state).T  # one node (3,) or stacked nodes (..., 3)
    s, r, b = params.sigma, params.r, params.b
    return np.array([-s * x + s * y, -s * x - y - x * z, -b * z - b * (r + s) + x * y]).T


def lorenz63_quadratic_part(state) -> np.ndarray:
    """The bilinear term f2; satisfies state . f2(state) = 0 identically."""
    x, y, z = state
    return np.array([0.0, -x * z, x * y])


def lorenz63_model(params: Lorenz63Params = Lorenz63Params()) -> ModelSpec:
    s, b = params.sigma, params.b

    def f(t, state):
        return lorenz63_drift(state, params)

    def D2f(t, state):
        x, y, z = np.moveaxis(state, -1, 0)
        jac = np.empty(np.shape(state) + (3,))
        jac[...] = [[-s, s, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -b]]
        jac[..., 1, 0] = -s - z
        jac[..., 1, 2] = -x
        jac[..., 2, 0] = y
        jac[..., 2, 1] = x
        return jac

    return ModelSpec(3, 3, f, _constant_g(3), D2f)


def lorenz96_model(n: int = 40, forcing: float = 8.0) -> ModelSpec:
    """Cyclic Lorenz'96: dx_i = (x_{i+1} - x_{i-2}) x_{i-1} - x_i + F."""
    if n < 4:
        raise InvalidSpecError("Lorenz'96 needs at least 4 variables")
    if not np.isfinite(forcing):
        raise InvalidSpecError(f"Lorenz'96 forcing must be finite, got {forcing!r}")
    # Cyclic neighbours, gathered along the last axis (np.roll would mix nodes).
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

    return ModelSpec(n, n, f, _constant_g(n), D2f)


def linear_model(A, B=None) -> ModelSpec:
    """xdot = A x + B u with constant matrices (B defaults to identity)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    if A.shape != (n, n):
        raise InvalidSpecError("A must be square")
    B = np.eye(n) if B is None else np.atleast_2d(np.asarray(B, dtype=float))
    if B.shape[0] != n:
        raise InvalidSpecError("B must have n rows")
    m = B.shape[1]
    return ModelSpec(n, m, lambda t, x: np.matvec(A, x), lambda t, x: B, lambda t, x: A)


def _constant_g(n):
    G = np.eye(n)

    def g(t, x):
        return G

    return g


def first_nonfinite(values, backward: bool = False):
    """Per member, the node a sweep meets first holding a non-finite entry, or -1.

    ``values`` is (..., n_nodes, n); a forward sweep meets node 0 first, a
    backward one the last node.  The RK4 and costate updates add to the
    previous value, so once a member turns non-finite it stays so: this
    node is where a per-step check would have stopped.
    """
    bad = ~np.all(np.isfinite(values), axis=-1)
    if backward:
        bad = bad[..., ::-1]
    node = np.argmax(bad, axis=-1)
    if backward:
        node = bad.shape[-1] - 1 - node
    return np.where(np.any(bad, axis=-1), node, -1)


def initial_state(model: ModelSpec, xi, members: bool = False, name: str = "initial state"):
    """``xi`` as floats of shape (n,), or (B, n) where ``members`` allows it."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1:] != (model.state_dim,) or xi.ndim > (2 if members else 1):
        raise InvalidSpecError(f"{name} must have shape ({model.state_dim},)")
    return xi


def rk4_sweep(model: ModelSpec, uv: np.ndarray, xi, grid: TimeGrid):
    """RK4 states at every node with the control frozen at its left node value.

    ``uv`` holds the control values, (n_nodes, m), or (B, n_nodes, m) with
    a leading member axis that takes B independent solves through each
    step together; ``xi`` (n,) is their initial state.  Returns the states,
    (..., n_nodes, n), and :func:`first_nonfinite` per member: a member
    that blows up stays in the sweep and does not stop the others.  Each
    member's states equal its own one-member sweep bit for bit.
    """
    xi = initial_state(model, xi)
    dt = grid.dt
    times = grid.times
    out = np.empty(uv.shape[:-1] + (model.state_dim,))
    # Node-major views: node i of every member is row i.
    us, xs = np.moveaxis(uv, -2, 0), np.moveaxis(out, -2, 0)
    xs[0] = xi
    x = xs[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(grid.n_steps):
            x = model.rk4_step(times[i], x, us[i], dt)
            xs[i + 1] = x
    return out, first_nonfinite(out)


def integrate_state(model: ModelSpec, u: SampledPath, xi, grid: TimeGrid) -> SampledPath:
    """RK4 over each step with the control frozen at its left node value.

    Raises :class:`BlowUpError` at the first non-finite node.
    """
    if not u.grid.matches(grid):
        raise GridMismatchError(f"grids differ: {u.grid} vs {grid}")
    values, blown = rk4_sweep(model, u.values, xi, grid)
    if blown >= 0:
        raise BlowUpError(int(blown))
    return SampledPath(grid, values)


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
