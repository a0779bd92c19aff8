"""Controlled state equation xdot = f(t,x) + g(t,x) u and its linearization.

Models are plain callables bundled in a :class:`ModelSpec`; controls are
piecewise constant on [t_i, t_{i+1}) using the left node value, which makes
the classical RK4 step exact in the control.  The rank-3 Jacobian of g uses
the convention ``D2g[i, j, k] = d g[i, j] / d x[k]``.
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
        if min(self.sigma, self.r, self.b) <= 0:
            raise InvalidSpecError("Lorenz'63 parameters must be positive")


@dataclass(frozen=True)
class ModelSpec:
    """Dynamics f, g and their state Jacobians.

    f(t, x) -> (n,), g(t, x) -> (n, m), D2f(t, x) -> (n, n),
    D2g(t, x) -> (n, m, n).
    """

    state_dim: int
    control_dim: int
    f: callable
    g: callable
    D2f: callable
    D2g: callable
    name: str = "model"

    def drift(self, t, x, u):
        return self.f(t, x) + self.g(t, x) @ u

    def linearization(self, t, x, u):
        """M(t) = D2f + (D2g) u, the coefficient of the variational equation."""
        return self.D2f(t, x) + np.einsum("ijk,j->ik", self.D2g(t, x), u)

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
    x, y, z = state
    s, r, b = params.sigma, params.r, params.b
    f1 = np.array([-s * x + s * y, -s * x - y, -b * z - b * (r + s)])
    f2 = np.array([0.0, -x * z, x * y])
    return f1 + f2


def lorenz63_quadratic_part(state) -> np.ndarray:
    """The bilinear term f2; satisfies state . f2(state) = 0 identically."""
    x, y, z = state
    return np.array([0.0, -x * z, x * y])


def lorenz63_model(params: Lorenz63Params = Lorenz63Params()) -> ModelSpec:
    s, b = params.sigma, params.b

    def f(t, state):
        return lorenz63_drift(state, params)

    def D2f(t, state):
        x, y, z = state
        return np.array(
            [
                [-s, s, 0.0],
                [-s - z, -1.0, -x],
                [y, x, -b],
            ]
        )

    return ModelSpec(3, 3, f, _constant_g(3), D2f, _zero_D2g(3, 3), name="lorenz63")


def lorenz96_model(n: int = 40, forcing: float = 8.0) -> ModelSpec:
    """Cyclic Lorenz'96: dx_i = (x_{i+1} - x_{i-2}) x_{i-1} - x_i + F."""
    if n < 4:
        raise InvalidSpecError("Lorenz'96 needs at least 4 variables")

    def f(t, x):
        return (np.roll(x, -1) - np.roll(x, 2)) * np.roll(x, 1) - x + forcing

    def D2f(t, x):
        jac = -np.eye(n)
        idx = np.arange(n)
        jac[idx, (idx + 1) % n] += np.roll(x, 1)
        jac[idx, (idx - 2) % n] += -np.roll(x, 1)
        jac[idx, (idx - 1) % n] += np.roll(x, -1) - np.roll(x, 2)
        return jac

    return ModelSpec(n, n, f, _constant_g(n), D2f, _zero_D2g(n, n), name="lorenz96")


def linear_model(A, B=None, name: str = "linear") -> ModelSpec:
    """xdot = A x + B u with constant matrices (B defaults to identity)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    if A.shape != (n, n):
        raise InvalidSpecError("A must be square")
    B = np.eye(n) if B is None else np.atleast_2d(np.asarray(B, dtype=float))
    if B.shape[0] != n:
        raise InvalidSpecError("B must have n rows")
    m = B.shape[1]
    return ModelSpec(
        n,
        m,
        lambda t, x: A @ x,
        lambda t, x: B,
        lambda t, x: A,
        _zero_D2g(n, m),
        name=name,
    )


def _constant_g(n):
    G = np.eye(n)

    def g(t, x):
        return G

    return g


def _zero_D2g(n, m):
    Z = np.zeros((n, m, n))

    def D2g(t, x):
        return Z

    return D2g


def _check_finite(x, node):
    if not np.all(np.isfinite(x)):
        raise BlowUpError(node)


def integrate_state(model: ModelSpec, u: SampledPath, xi, grid: TimeGrid) -> SampledPath:
    """RK4 over each step with the control frozen at its left node value."""
    if not u.grid.matches(grid):
        raise GridMismatchError(f"grids differ: {u.grid} vs {grid}")
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (model.state_dim,):
        raise InvalidSpecError(f"initial state must have shape ({model.state_dim},)")
    dt = grid.dt
    times = grid.times
    uv = u.values
    out = np.empty((grid.n_nodes, model.state_dim))
    out[0] = xi
    x = xi
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(grid.n_steps):
            x = model.rk4_step(times[i], x, uv[i], dt)
            _check_finite(x, i + 1)
            out[i + 1] = x
    return SampledPath(grid, out)


def integrate_variation(model: ModelSpec, x: SampledPath, u: SampledPath, v0, forcing=None) -> SampledPath:
    """Linearized flow: zdot = [D2f + (D2g)u] z + forcing, z(0) = v0.

    RK4 per step; the coefficient matrix at the half step uses the average
    of the endpoint states (second-order accurate, the data available on
    the grid).  Forcing is sampled at step endpoints and interpolated the
    same way; pass None for the homogeneous equation.
    """
    grid = require_same_grid(x, u)
    dt = grid.dt
    times = grid.times
    xv, uv = x.values, u.values
    fv = None if forcing is None else forcing.values
    if fv is not None:
        require_same_grid(x, forcing)
    z = np.asarray(v0, dtype=float).copy()
    out = np.empty((grid.n_nodes, model.state_dim))
    out[0] = z
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(grid.n_steps):
            ui = uv[i]
            M0 = model.linearization(times[i], xv[i], ui)
            M1 = model.linearization(times[i + 1], xv[i + 1], ui)
            Mh = model.linearization(times[i] + 0.5 * dt, 0.5 * (xv[i] + xv[i + 1]), ui)
            if fv is None:
                F0 = F1 = Fh = 0.0
            else:
                F0, F1 = fv[i], fv[i + 1]
                Fh = 0.5 * (F0 + F1)
            k1 = M0 @ z + F0
            k2 = Mh @ (z + 0.5 * dt * k1) + Fh
            k3 = Mh @ (z + 0.5 * dt * k2) + Fh
            k4 = M1 @ (z + dt * k3) + F1
            z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            _check_finite(z, i + 1)
            out[i + 1] = z
    return SampledPath(grid, out)


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
