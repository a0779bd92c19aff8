"""Running costs and the full performance index.

The index is  A(x, u) = int phi(t, x, u) dt + int psi(t, x) d eta,  with the
deterministic part integrated by the trapezoid rule (control left-sampled,
exact for piecewise-constant controls) and the stochastic part as a
left-tag Young sum against the observation increments.  The quadratic
family  phi = h'Rh/2 + u'Su/2, psi = -h'R  covers minimum-energy (weak
4D-VAR) estimation; the Onsager-Machlup variant adds a -div f correction
for constant g, where the curvature term vanishes identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .dynamics import ModelSpec
from .errors import BlowUpError, InvalidSpecError, UnsupportedCostError
from .grid import ObservationPath, SampledPath, require_same_grid


@dataclass(frozen=True)
class CostSpec:
    """Deterministic cost phi with derivatives, stochastic cost psi.

    phi(t, x, u) -> float, D2phi -> (n,), D3phi -> (m,),
    psi(t, x) -> (d,) row covector on observation increments,
    D2psi -> (d, n), D1psi -> (d,) or None when the time derivative is
    unavailable.  ``quad`` carries the quadratic structure (if any) so the
    pointwise Hamiltonian minimizer stays in closed form downstream.
    """

    phi: Callable
    D2phi: Callable
    D3phi: Callable
    psi: Callable
    D2psi: Callable
    obs_dim: int
    control_dim: int
    D1psi: Optional[Callable] = None
    quad: Optional["QuadraticCostSpec"] = None


def _as_matrix_callable(value, shape, label):
    if callable(value):
        return value
    M = np.asarray(value, dtype=float)
    if M.shape != shape:
        raise InvalidSpecError(f"{label} must have shape {shape}, got {M.shape}")

    def const(t):
        return M

    return const


@dataclass(frozen=True)
class QuadraticCostSpec:
    """Observation operator h with Jacobian, plus weights R(t), S(t).

    R must be symmetric nonnegative definite and S uniformly positive
    definite (smallest eigenvalue >= s_min > 0).  Constant matrices may be
    passed directly; they are wrapped as callables of t.  ``h_dt`` and
    ``R_dt`` are time derivatives (None means identically zero), needed
    only by the integration-by-parts cross-evaluator.
    """

    h: Callable
    h_jac: Callable
    R: Callable = field(default=None)
    S: Callable = field(default=None)
    obs_dim: int = 1
    control_dim: int = 1
    h_dt: Optional[Callable] = None
    R_dt: Optional[Callable] = None

    def __post_init__(self):
        object.__setattr__(
            self, "R", _as_matrix_callable(self.R, (self.obs_dim, self.obs_dim), "R")
        )
        object.__setattr__(
            self, "S", _as_matrix_callable(self.S, (self.control_dim, self.control_dim), "S")
        )
        R0, S0 = self.R(0.0), self.S(0.0)
        if not np.allclose(S0, S0.T):
            raise InvalidSpecError("S must be symmetric")
        if not np.allclose(R0, R0.T):
            raise InvalidSpecError("R must be symmetric")
        s_min = float(np.min(np.linalg.eigvalsh(S0)))
        if s_min <= 0:
            raise InvalidSpecError(f"S must be positive definite, min eigenvalue {s_min}")
        if float(np.min(np.linalg.eigvalsh(R0))) < -1e-12:
            raise InvalidSpecError("R must be nonnegative definite")
        object.__setattr__(self, "s_min", s_min)


def coordinate_observation(indices, state_dim: int):
    """h projecting onto the listed state coordinates, with its Jacobian."""
    indices = list(indices)
    if any(i < 0 or i >= state_dim for i in indices):
        raise InvalidSpecError(f"observation indices out of range for n={state_dim}")
    P = np.zeros((len(indices), state_dim))
    P[np.arange(len(indices)), indices] = 1.0

    def h(t, x):
        return P @ x

    def h_jac(t, x):
        return P

    return h, h_jac


def build_minimum_energy(q: QuadraticCostSpec) -> CostSpec:
    """phi = h'Rh/2 + u'Su/2 and psi = -h'R, derivatives by chain rule."""

    def phi(t, x, u):
        hv = q.h(t, x)
        return 0.5 * float(hv @ q.R(t) @ hv) + 0.5 * float(u @ q.S(t) @ u)

    def D2phi(t, x, u):
        return (q.R(t) @ q.h(t, x)) @ q.h_jac(t, x)

    def D3phi(t, x, u):
        return q.S(t) @ u

    def psi(t, x):
        return -(q.h(t, x) @ q.R(t))

    def D2psi(t, x):
        return -(q.R(t).T @ q.h_jac(t, x))

    def D1psi(t, x):
        out = np.zeros(q.obs_dim)
        if q.h_dt is not None:
            out -= q.h_dt(t, x) @ q.R(t)
        if q.R_dt is not None:
            out -= q.h(t, x) @ q.R_dt(t)
        return out

    return CostSpec(
        phi=phi,
        D2phi=D2phi,
        D3phi=D3phi,
        psi=psi,
        D2psi=D2psi,
        D1psi=D1psi,
        obs_dim=q.obs_dim,
        control_dim=q.control_dim,
        quad=q,
    )


@dataclass(frozen=True)
class OnsagerMachlupSpec:
    """Quadratic base plus model with constant g and the drift divergence.

    ``div_f(t, x)`` is the divergence of the full drift; ``div_f_grad`` is
    its state gradient and defaults to zero (the divergence of the
    quadratic geophysical class is constant).  The curvature correction of
    the trajectory MAP functional vanishes for constant g and is omitted.
    """

    base: QuadraticCostSpec
    model: ModelSpec
    div_f: Callable
    div_f_grad: Optional[Callable] = None


MAX_METRIC_CONDITION = 1e8


def _check_constant_g(model: ModelSpec):
    rng = np.random.default_rng(0)
    g0 = np.asarray(model.g(0.0, np.zeros(model.state_dim)), dtype=float)
    for _ in range(8):
        t = float(rng.uniform(0.0, 1.0))
        x = rng.normal(size=model.state_dim)
        if not np.allclose(np.asarray(model.g(t, x), dtype=float), g0):
            raise UnsupportedCostError("Onsager-Machlup variant requires constant g")
    return g0


def build_onsager_machlup(om: OnsagerMachlupSpec) -> CostSpec:
    """phi = h'Rh/2 + u'Gamma u/2 - div f with Gamma = (g g')^{-1}."""
    g0 = _check_constant_g(om.model)
    gg = g0 @ g0.T
    if np.linalg.cond(gg) >= MAX_METRIC_CONDITION:
        raise InvalidSpecError("g g' is ill-conditioned; metric inverse unreliable")
    gamma = np.linalg.inv(gg)
    gamma = 0.5 * (gamma + gamma.T)
    me = build_minimum_energy(replace(om.base, S=gamma, control_dim=om.model.control_dim))

    def phi(t, x, u):
        return me.phi(t, x, u) - float(om.div_f(t, x))

    def D2phi(t, x, u):
        out = me.D2phi(t, x, u)
        if om.div_f_grad is not None:
            out = out - om.div_f_grad(t, x)
        return out

    return replace(me, phi=phi, D2phi=D2phi)


def _node_phis(cost: CostSpec, x: SampledPath, u: SampledPath):
    times = x.times
    phis = np.array(
        [cost.phi(times[i], x.values[i], u.values[i]) for i in range(len(times))]
    )
    bad = np.flatnonzero(~np.isfinite(phis))
    if bad.size:
        raise BlowUpError(int(bad[0]), f"non-finite running cost at node {bad[0]}")
    return phis


def _trapezoid(values: np.ndarray, dt: float) -> float:
    return float(dt * (np.sum(values) - 0.5 * (values[0] + values[-1])))


def eval_cost(cost: CostSpec, x: SampledPath, u: SampledPath, eta: ObservationPath) -> float:
    """A(x, u): trapezoid deterministic part + left-tag Young stochastic part."""
    grid = require_same_grid(x, u, eta)
    det = _trapezoid(_node_phis(cost, x, u), grid.dt)
    times = grid.times
    psis = np.array([cost.psi(times[i], x.values[i]) for i in range(grid.n_steps)])
    stoch = float(np.sum(psis * eta.increments()))
    return det + stoch


def eval_cost_by_parts(
    cost: CostSpec, model: ModelSpec, x: SampledPath, u: SampledPath, eta: ObservationPath
) -> float:
    """A(x, u) via the classical reformulation after integration by parts.

    Running cost  phi - {D1 psi + D2 psi (f + g u)} . eta(t)  plus the
    boundary term psi(T, x(T)) . eta(T) - psi(0, x(0)) . eta(0); agrees
    with :func:`eval_cost` under grid refinement for smooth psi.
    """
    if cost.D1psi is None:
        raise UnsupportedCostError("eval_cost_by_parts needs the time derivative of psi")
    grid = require_same_grid(x, u, eta)
    times = grid.times
    etav = eta.values
    tilde = np.empty(grid.n_nodes)
    for i in range(grid.n_nodes):
        t, xv, uv = times[i], x.values[i], u.values[i]
        rate = cost.D1psi(t, xv) + cost.D2psi(t, xv) @ model.drift(t, xv, uv)
        tilde[i] = cost.phi(t, xv, uv) - float(rate @ etav[i])
    if not np.all(np.isfinite(tilde)):
        raise BlowUpError(int(np.flatnonzero(~np.isfinite(tilde))[0]))
    boundary = float(cost.psi(times[-1], x.values[-1]) @ etav[-1]) - float(
        cost.psi(times[0], x.values[0]) @ etav[0]
    )
    return _trapezoid(tilde, grid.dt) + boundary
