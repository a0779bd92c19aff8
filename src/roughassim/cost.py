"""Running costs and the full performance index.

The index is  A(x, u) = int phi(t, x, u) dt + int psi(t, x) d eta,  with the
deterministic part integrated by the trapezoid rule (control left-sampled,
exact for piecewise-constant controls) and the stochastic part as a
left-tag Young sum against the observation increments.  The quadratic
family  phi = h'Rh/2 + u'Su/2, psi = -h'R  covers minimum-energy (weak
4D-VAR) estimation; the Onsager-Machlup variant adds a -div f correction
for constant g, where the curvature term vanishes identically.

Every node-wise product is an ``np.matvec``, ``np.vecmat`` or ``np.vecdot``,
which computes each of a stack of nodes exactly as the one-node ``@`` does;
``einsum`` or ``np.sum`` would move the last bit of the artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .dynamics import ModelSpec
from .errors import BlowUpError, InvalidSpecError, UnsupportedCostError
from .grid import SampledPath, require_same_grid


@dataclass(frozen=True)
class CostSpec:
    """Deterministic cost phi with derivatives, stochastic cost psi.

    phi(t, x, u) -> float, D2phi -> (n,), D3phi -> (m,),
    psi(t, x) -> (d,) row covector on observation increments,
    D2psi -> (d, n), D1psi -> (d,) or None when the time derivative is
    unavailable.  ``quad`` carries the quadratic structure (if any) so the
    pointwise Hamiltonian minimizer stays in closed form downstream.

    Every callable also takes stacked nodes as :class:`ModelSpec` does,
    with a leading node axis on each result; so do a
    :class:`QuadraticCostSpec`'s h, h_jac, R and S.
    """

    phi: Callable
    D2phi: Callable
    D3phi: Callable
    psi: Callable
    D2psi: Callable
    D1psi: Optional[Callable] = None
    quad: Optional["QuadraticCostSpec"] = None


def _as_matrix_callable(value):
    if callable(value):
        return value
    M = np.asarray(value, dtype=float)

    def const(t):
        return M

    return const


@dataclass(frozen=True)
class QuadraticCostSpec:
    """Observation operator h with Jacobian, plus weights R(t), S(t).

    R must be symmetric nonnegative definite and S uniformly positive
    definite.  Constant matrices may be passed directly; they are wrapped
    as callables of t.  The observation and control dimensions are the
    sizes of R(0) and S(0).  ``h_dt`` and ``R_dt`` are time derivatives
    (None means identically zero), needed only by the integration-by-parts
    cross-evaluator.
    """

    h: Callable
    h_jac: Callable
    R: Callable
    S: Callable
    h_dt: Optional[Callable] = None
    R_dt: Optional[Callable] = None

    def __post_init__(self):
        object.__setattr__(self, "R", _as_matrix_callable(self.R))
        object.__setattr__(self, "S", _as_matrix_callable(self.S))
        R0, S0 = self.R(0.0), self.S(0.0)
        for label, M in (("R", R0), ("S", S0)):
            if np.ndim(M) != 2 or M.shape[0] != M.shape[1]:
                raise InvalidSpecError(f"{label} must be a square matrix, got shape {np.shape(M)}")
        if not np.allclose(S0, S0.T):
            raise InvalidSpecError("S must be symmetric")
        if not np.allclose(R0, R0.T):
            raise InvalidSpecError("R must be symmetric")
        s_min = float(np.min(np.linalg.eigvalsh(S0)))
        if s_min <= 0:
            raise InvalidSpecError(f"S must be positive definite, min eigenvalue {s_min}")
        if float(np.min(np.linalg.eigvalsh(R0))) < -1e-12:
            raise InvalidSpecError("R must be nonnegative definite")

    @property
    def obs_dim(self) -> int:
        return self.R(0.0).shape[0]

    @property
    def control_dim(self) -> int:
        return self.S(0.0).shape[0]


def coordinate_observation(indices, state_dim: int):
    """h projecting onto the listed state coordinates, with its Jacobian."""
    indices = list(indices)
    if any(i < 0 or i >= state_dim for i in indices):
        raise InvalidSpecError(f"observation indices out of range for n={state_dim}")
    P = np.zeros((len(indices), state_dim))
    P[np.arange(len(indices)), indices] = 1.0

    def h(t, x):
        return np.matvec(P, x)

    def h_jac(t, x):
        return P

    return h, h_jac


def build_minimum_energy(q: QuadraticCostSpec) -> CostSpec:
    """phi = h'Rh/2 + u'Su/2 and psi = -h'R, derivatives by chain rule."""

    def phi(t, x, u):
        hv = q.h(t, x)
        hR, uS = np.vecmat(hv, q.R(t)), np.vecmat(u, q.S(t))
        return 0.5 * np.vecdot(hR, hv) + 0.5 * np.vecdot(uS, u)

    def D2phi(t, x, u):
        return np.vecmat(np.matvec(q.R(t), q.h(t, x)), q.h_jac(t, x))

    def D3phi(t, x, u):
        return np.matvec(q.S(t), u)

    def psi(t, x):
        return -np.vecmat(q.h(t, x), q.R(t))

    def D2psi(t, x):
        return -(q.R(t).T @ q.h_jac(t, x))

    def D1psi(t, x):
        out = np.zeros(np.shape(x)[:-1] + (q.obs_dim,))
        if q.h_dt is not None:
            out -= np.vecmat(q.h_dt(t, x), q.R(t))
        if q.R_dt is not None:
            out -= np.vecmat(q.h(t, x), q.R_dt(t))
        return out

    return CostSpec(
        phi=phi,
        D2phi=D2phi,
        D3phi=D3phi,
        psi=psi,
        D2psi=D2psi,
        D1psi=D1psi,
        quad=q,
    )


MAX_METRIC_CONDITION = 1e8


def _constant_g_and_divergence(model: ModelSpec):
    """g and the drift divergence at (0, 0), checked constant at seeded points."""
    rng = np.random.default_rng(0)
    x0 = np.zeros(model.state_dim)
    g0 = np.asarray(model.g(0.0, x0), dtype=float)
    div0 = model.divergence(0.0, x0)
    for _ in range(8):
        t = float(rng.uniform(0.0, 1.0))
        x = rng.normal(size=model.state_dim)
        if not np.allclose(np.asarray(model.g(t, x), dtype=float), g0):
            raise UnsupportedCostError("Onsager-Machlup variant requires constant g")
        if not np.isclose(model.divergence(t, x), div0):
            raise UnsupportedCostError(
                "Onsager-Machlup variant requires a constant drift divergence"
            )
    return g0, div0


def build_onsager_machlup(base: QuadraticCostSpec, model: ModelSpec) -> CostSpec:
    """phi = h'Rh/2 + u'Gamma u/2 - div f with Gamma = (g g')^{-1}.

    The base's S is replaced by Gamma.  g and the divergence of the drift f
    are read off the model and must be constant (checked at seeded points):
    the cost's state gradient ``D2phi`` is the base's, as for the quadratic
    geophysical class, whose divergence is constant.  The curvature
    correction of the trajectory MAP functional vanishes for constant g and
    is omitted.
    """
    g0, div = _constant_g_and_divergence(model)
    gg = g0 @ g0.T
    if np.linalg.cond(gg) >= MAX_METRIC_CONDITION:
        raise InvalidSpecError("g g' is ill-conditioned; metric inverse unreliable")
    m = model.control_dim
    if gg.shape != (m, m):
        raise InvalidSpecError(
            f"the metric (g g')^-1 is {gg.shape[0]}x{gg.shape[0]}, "
            f"but the model has {m} controls"
        )
    gamma = np.linalg.inv(gg)
    gamma = 0.5 * (gamma + gamma.T)
    me = build_minimum_energy(replace(base, S=gamma))

    def phi(t, x, u):
        return me.phi(t, x, u) - div

    return replace(me, phi=phi)


def _trapezoid(values: np.ndarray, dt: float) -> float:
    return float(dt * (np.sum(values) - 0.5 * (values[0] + values[-1])))


def eval_cost(cost: CostSpec, x: SampledPath, u: SampledPath, eta: SampledPath) -> float:
    """A(x, u): trapezoid deterministic part + left-tag Young stochastic part.

    Raises :class:`InvalidSpecError` when eta's dimension is not psi's.
    """
    grid = require_same_grid(x, u, eta)
    # A finite but huge state may overflow phi; that is a blow-up, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        phis = cost.phi(grid.times, x.values, u.values)
        psis = cost.psi(grid.times[:-1], x.values[:-1])
    deta = eta.increments()
    # A constant psi may come back unstacked, so only the last axes must agree.
    if psis.shape[-1:] != deta.shape[-1:]:
        raise InvalidSpecError(
            f"eta has {deta.shape[-1]} components, the cost observes {psis.shape[-1]}"
        )
    bad = np.flatnonzero(~np.isfinite(phis))
    if bad.size:
        raise BlowUpError(int(bad[0]), f"non-finite running cost at node {bad[0]}")
    return _trapezoid(phis, grid.dt) + float(np.sum(psis * deta))


def eval_cost_by_parts(
    cost: CostSpec, model: ModelSpec, x: SampledPath, u: SampledPath, eta: SampledPath
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
    xv, uv = x.values, u.values
    rate = cost.D1psi(times, xv) + np.matvec(cost.D2psi(times, xv), model.drift(times, xv, uv))
    tilde = cost.phi(times, xv, uv) - np.vecdot(rate, etav)
    if not np.all(np.isfinite(tilde)):
        raise BlowUpError(int(np.flatnonzero(~np.isfinite(tilde))[0]))
    ends = np.vecdot(cost.psi(times[[0, -1]], xv[[0, -1]]), etav[[0, -1]])
    return _trapezoid(tilde, grid.dt) + float(ends[1] - ends[0])
