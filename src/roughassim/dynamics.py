"""Controlled state equation xdot = f(t, x) + G u with a constant matrix G.

Models are plain callables bundled with G in a :class:`ModelSpec`;
controls are piecewise constant on [t_i, t_{i+1}) using the left node
value, which makes the classical RK4 step exact in the control.  G does not
depend on x, so the variational equation's coefficient is D2f alone.

A forward sweep of one member, with or without a member axis, of a model
that gives its RK4 step in Python floats (``ModelSpec.float_step``, set by
Lorenz'63) steps in floats, not numpy arrays, whose call overhead is most
of a step on a small state; its states are the array stepper's, bit for
bit.  Batches of two or more members and every other model step numpy
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, InvalidSpecError
from .grid import SampledPath, TimeGrid, _count, _number, _positive_number, frozen_array
from .grid import frozen_matrix


@dataclass(frozen=True)
class ModelSpec:
    """Drift f with its state Jacobian, and the constant control matrix G.

    f(t, x) -> (n,), D2f(t, x) -> (n, n); G, checked by
    :func:`~roughassim.grid.frozen_matrix` and kept as a read-only copy, is
    (n, m), and the model's ``state_dim`` and ``control_dim`` are n and m.

    f, D2f and :meth:`drift` also take stacked nodes, x (..., n), u
    (..., m) and t a scalar or an array of the leading shape, and return
    row k equal to the call on node k (a constant may come back unstacked).
    The sweeps rely on it: the costate evaluates its Jacobians for a block
    of nodes in one call, and a leading member axis runs independent solves
    through one RK4 step.

    ``float_step(t, x, u, dt)`` is optional: one RK4 step in Python floats.
    It takes x and u as lists of floats and returns a list of n floats
    equal, bit for bit, to ``rk4_step(t, x, u, dt)`` for every finite
    control.  Only a sweep of one member calls it (see
    :func:`rk4_sweep`); None, the default, is always correct.
    """

    f: callable
    G: np.ndarray
    D2f: callable
    float_step: callable | None = None

    def __post_init__(self):
        object.__setattr__(self, "G", frozen_matrix(self.G, "G"))

    @property
    def state_dim(self) -> int:
        return self.G.shape[0]

    @property
    def control_dim(self) -> int:
        return self.G.shape[1]

    def drift(self, t, x, u):
        return self.f(t, x) + np.matvec(self.G, u)

    def rk4_step(self, t, x, u, dt):
        """One classical RK4 step from (t, x) with the control frozen at u."""
        return self._rk4_step(t, x, np.matvec(self.G, u), dt)

    def _rk4_step(self, t, x, gu, dt):
        """:meth:`rk4_step` given G u, the control term of all four stages."""
        k1 = self.f(t, x) + gu
        k2 = self.f(t + 0.5 * dt, x + 0.5 * dt * k1) + gu
        k3 = self.f(t + 0.5 * dt, x + 0.5 * dt * k2) + gu
        k4 = self.f(t + dt, x + dt * k3) + gu
        return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def lorenz63_drift(state, sigma=10.0, r=28.0, b=8.0 / 3.0) -> np.ndarray:
    """Stable-linear plus energy-conserving quadratic split of Lorenz'63."""
    x, y, z = np.asarray(state).T  # one node (3,) or stacked nodes (..., 3)
    s = sigma
    return np.array([-s * x + s * y, -s * x - y - x * z, -b * z - b * (r + s) + x * y]).T


def lorenz63_model(sigma=10.0, r=28.0, b=8.0 / 3.0) -> ModelSpec:
    """Lorenz'63 in the shifted form of :func:`lorenz63_drift`, controlled in every state."""
    sigma = _positive_number(sigma, "sigma")
    r, b = _positive_number(r, "r"), _positive_number(b, "b")
    s, brs = sigma, b * (r + sigma)

    def f(t, state):
        return lorenz63_drift(state, s, r, b)

    def D2f(t, state):
        x, y, z = np.moveaxis(state, -1, 0)
        jac = np.empty(np.shape(state) + (3,))
        jac[...] = [[-s, s, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -b]]
        jac[..., 1, 0] = -s - z
        jac[..., 1, 2] = -x
        jac[..., 2, 0] = y
        jac[..., 2, 1] = x
        return jac

    def float_step(t, state, u, dt):
        # rk4_step on drift = lorenz63_drift + np.matvec(eye(3), u), one
        # operation at a time in their order.  The matvec sums from +0.0, so
        # its row i is u_i + 0.0: -0.0 becomes +0.0.
        x, y, z = state
        u0, u1, u2 = u[0] + 0.0, u[1] + 0.0, u[2] + 0.0
        half, sixth = 0.5 * dt, dt / 6.0
        k1x = -s * x + s * y + u0
        k1y = -s * x - y - x * z + u1
        k1z = -b * z - brs + x * y + u2
        px, py, pz = x + half * k1x, y + half * k1y, z + half * k1z
        k2x = -s * px + s * py + u0
        k2y = -s * px - py - px * pz + u1
        k2z = -b * pz - brs + px * py + u2
        px, py, pz = x + half * k2x, y + half * k2y, z + half * k2z
        k3x = -s * px + s * py + u0
        k3y = -s * px - py - px * pz + u1
        k3z = -b * pz - brs + px * py + u2
        px, py, pz = x + dt * k3x, y + dt * k3y, z + dt * k3z
        k4x = -s * px + s * py + u0
        k4y = -s * px - py - px * pz + u1
        k4z = -b * pz - brs + px * py + u2
        return [
            x + sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
            y + sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y),
            z + sixth * (k1z + 2.0 * k2z + 2.0 * k3z + k4z),
        ]

    return ModelSpec(f, np.eye(3), D2f, float_step=float_step)


def lorenz96_model(n: int = 40, forcing: float = 8.0) -> ModelSpec:
    """Cyclic Lorenz'96: dx_i = (x_{i+1} - x_{i-2}) x_{i-1} - x_i + F."""
    n = _count(n, "n")
    if n < 4:
        raise InvalidSpecError(f"Lorenz'96 needs n >= 4 variables, got {n}")
    if not np.isfinite(_number(forcing, "forcing")):
        raise InvalidSpecError(f"Lorenz'96 forcing must be finite, got {forcing!r}")
    # Cyclic neighbours, gathered along the last axis (np.roll would mix nodes).
    idx = np.arange(n)
    ip1, im1, im2 = (idx + 1) % n, (idx - 1) % n, (idx - 2) % n

    def f(t, x):
        # (x[i+1] - x[i-2]) x[i-1] - x + F, each operation in place on the
        # first gather's fresh buffer.
        out = x.take(ip1, axis=-1)
        out -= x.take(im2, axis=-1)
        out *= x.take(im1, axis=-1)
        out -= x
        out += forcing
        return out

    def D2f(t, x):
        # The written entries of -eye(n) hold -0.0, and -0.0 + v is v.
        jac = np.broadcast_to(-np.eye(n), np.shape(x) + (n,)).copy()
        xm1 = x[..., im1]
        jac[..., idx, ip1] = xm1
        jac[..., idx, im2] = -xm1
        jac[..., idx, im1] = x[..., ip1] - x[..., im2]
        return jac

    return ModelSpec(f, np.eye(n), D2f)


def linear_model(A, B=None) -> ModelSpec:
    """xdot = A x + B u with constant matrices (B defaults to identity).

    A and B are checked and kept as read-only float copies; B is the
    model's G.
    """
    A = frozen_matrix(np.atleast_2d(frozen_array(A, "A")), "A", square=True)
    n = A.shape[0]
    B = np.atleast_2d(frozen_array(np.eye(n) if B is None else B, "B"))
    if B.shape[0] != n:
        raise InvalidSpecError(f"B must have {n} rows, got {B.shape[0]}")
    return ModelSpec(lambda t, x: np.matvec(A, x), B, lambda t, x: A)


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


def initial_state(model: ModelSpec, xi, members: tuple = (), name: str = "initial state"):
    """``xi`` as finite floats of shape (n,), shared by every member of a sweep,
    or ``members + (n,)``, one row per member: the one rule for a start."""
    xi = frozen_array(xi, name)
    n = (model.state_dim,)
    if xi.shape not in (n, members + n):
        shapes = " or ".join(str(s) for s in dict.fromkeys((n, members + n)))
        raise InvalidSpecError(f"{name} must have shape {shapes}")
    if not np.all(np.isfinite(xi)):
        raise InvalidSpecError(f"{name} must be finite")
    return xi


def check_paths(n: int, m: int, n_nodes=None, *, state=None, control=None, costate=None):
    """The member shape that a sweep's paths, each (..., n_nodes, k) or None, share.

    Raises :class:`InvalidSpecError` unless the state and the costate have
    n components, the control m, each ``n_nodes`` nodes (None skips that
    check) and all one member shape: the one rule for a batch of paths.
    """
    members = None
    for name, values, k in (("state", state, n), ("control", control, m), ("costate", costate, n)):
        if values is None:
            continue
        if values.shape[-1] != k:
            raise InvalidSpecError(f"{name} has {values.shape[-1]} components, not {k}")
        if n_nodes is not None and values.shape[-2] != n_nodes:
            raise InvalidSpecError(f"{name} has {values.shape[-2]} nodes, the grid {n_nodes}")
        if members is None:
            members = values.shape[:-2]
        elif values.shape[:-2] != members:
            raise InvalidSpecError(f"{name} has member shape {values.shape[:-2]}, not {members}")
    return members


def rk4_sweep(model: ModelSpec, uv: np.ndarray, xi, grid: TimeGrid):
    """RK4 states at every node with the control frozen at its left node value.

    ``uv`` holds the control values, (n_nodes, m), or (B, n_nodes, m) with
    a leading member axis that takes B independent solves through each
    step together; ``xi`` is their initial state, (n,) shared by every
    member or (B, n) one row per member, as in ``hamiltonian_sweep``.
    Returns the states, (..., n_nodes, n), and :func:`first_nonfinite` per
    member: a member that blows up stays in the sweep and does not stop the
    others.  Each member's states equal its own one-member sweep bit for
    bit.

    A sweep of one member, with or without a member axis, of a model that
    sets ``float_step`` steps in Python floats (:func:`_float_sweep`), with
    the same states up to the first non-finite node.
    """
    members = check_paths(model.state_dim, model.control_dim, grid.n_nodes, control=uv)
    xi = initial_state(model, xi, members)
    if model.float_step is not None and math.prod(members) == 1:
        out = _float_sweep(model.float_step, uv.reshape(uv.shape[-2:]), xi.reshape(-1), grid)
        out = out.reshape(members + out.shape)
        return out, first_nonfinite(out)
    dt = grid.dt
    times = grid.times
    out = np.empty(uv.shape[:-1] + (model.state_dim,))
    with np.errstate(over="ignore", invalid="ignore"):
        # G u at every node in one stacked call; node-major views: node i
        # of every member is row i.
        gus, xs = np.moveaxis(np.matvec(model.G, uv), -2, 0), np.moveaxis(out, -2, 0)
        xs[0] = xi
        x = xs[0]
        for i in range(grid.n_steps):
            x = model._rk4_step(times[i], x, gus[i], dt)
            xs[i + 1] = x
    return out, first_nonfinite(out)


def _float_sweep(float_step, uv, xi, grid: TimeGrid) -> np.ndarray:
    """One member's RK4 states, (n_nodes, n), from a model's
    ``float_step``, so each state equals the array stepper's bit for bit."""
    dt = grid.dt
    x = xi.tolist()
    rows = [x]
    for t, u in zip(grid.times.tolist(), uv[:-1].tolist()):
        x = float_step(t, x, u, dt)
        rows.append(x)
    return np.array(rows)


def integrate_state(model: ModelSpec, u: SampledPath, xi, grid: TimeGrid) -> SampledPath:
    """RK4 over each step with the control frozen at its left node value.

    Raises :class:`BlowUpError` at the first non-finite node.
    """
    if not u.grid.matches(grid):
        raise InvalidSpecError(f"grids differ: {u.grid} vs {grid}")
    values, blown = rk4_sweep(model, u.values, xi, grid)
    if blown >= 0:
        raise BlowUpError(int(blown))
    return SampledPath(grid, values)
