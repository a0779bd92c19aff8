"""Running costs and the full performance index.

The index is  A(x, u) = int phi(t, x, u) dt + int psi(t, x) d eta,  with the
deterministic part integrated by the trapezoid rule (control left-sampled,
exact for piecewise-constant controls) and the stochastic part as a
left-tag Young sum against the observation increments.  The quadratic
family  phi = h'Rh/2 + u'Su/2, psi = -h'R, with R and S constant
matrices, covers minimum-energy (weak 4D-VAR) estimation; the
Onsager-Machlup variant adds a -div f correction, and the model's constant
control matrix G makes the curvature term vanish identically.

Every node-wise product is an ``np.matvec``, ``np.vecmat`` or ``np.vecdot``,
which computes each of a stack of nodes exactly as the one-node ``@`` does;
``einsum`` or ``np.sum`` would move the last bit of the artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .dynamics import ModelSpec, check_paths, first_nonfinite
from .errors import BlowUpError, InvalidSpecError
from .grid import SampledPath, _count, _positive_count, frozen_matrix, require_same_grid

if TYPE_CHECKING:  # problem.py imports this module
    from .problem import AssimilationProblem


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
    :class:`QuadraticCostSpec`'s h and h_jac.
    """

    phi: Callable
    D2phi: Callable
    D3phi: Callable
    psi: Callable
    D2psi: Callable
    D1psi: Optional[Callable] = None
    quad: Optional["QuadraticCostSpec"] = None


@dataclass(frozen=True)
class QuadraticCostSpec:
    """Observation operator h with Jacobian, plus constant weight matrices R and S.

    R must be symmetric nonnegative definite and S symmetric positive
    definite, both nonempty square matrices of finite numbers; anything
    else, a callable included, raises :class:`InvalidSpecError`.  The
    constructor checks and keeps read-only float copies, so a caller's later
    write to its array changes nothing.  The observation and control
    dimensions are the sizes of R and S.  ``h_dt`` is h's time derivative
    (None means identically zero), needed only by the integration-by-parts
    cross-evaluator.
    """

    h: Callable
    h_jac: Callable
    R: np.ndarray
    S: np.ndarray
    h_dt: Optional[Callable] = None

    def __post_init__(self):
        for label in ("R", "S"):
            M = frozen_matrix(getattr(self, label), label, square=True)
            object.__setattr__(self, label, M)
        R, S = self.R, self.S
        if not np.allclose(S, S.T):
            raise InvalidSpecError("S must be symmetric")
        if not np.allclose(R, R.T):
            raise InvalidSpecError("R must be symmetric")
        s_min = float(np.min(np.linalg.eigvalsh(S)))
        if s_min <= 0:
            raise InvalidSpecError(f"S must be positive definite, min eigenvalue {s_min}")
        if float(np.min(np.linalg.eigvalsh(R))) < -1e-12:
            raise InvalidSpecError("R must be nonnegative definite")

    @property
    def obs_dim(self) -> int:
        return self.R.shape[0]

    @property
    def control_dim(self) -> int:
        return self.S.shape[0]


def coordinate_observation(indices, state_dim: int):
    """h projecting onto the listed state coordinates, with its Jacobian."""
    state_dim = _positive_count(state_dim, "state_dim")
    try:
        indices = [_count(i, "an observation index") for i in indices]
    except TypeError:  # not iterable
        raise InvalidSpecError(f"observation indices must be a list, got {indices!r}") from None
    if any(not 0 <= i < state_dim for i in indices):
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
        hR, uS = np.vecmat(hv, q.R), np.vecmat(u, q.S)
        return 0.5 * np.vecdot(hR, hv) + 0.5 * np.vecdot(uS, u)

    def D2phi(t, x, u):
        return np.vecmat(np.matvec(q.R, q.h(t, x)), q.h_jac(t, x))

    def D3phi(t, x, u):
        return np.matvec(q.S, u)

    def psi(t, x):
        return -np.vecmat(q.h(t, x), q.R)

    def D2psi(t, x):
        return -(q.R.T @ q.h_jac(t, x))

    def D1psi(t, x):
        out = np.zeros(np.shape(x)[:-1] + (q.obs_dim,))
        if q.h_dt is not None:
            out -= np.vecmat(q.h_dt(t, x), q.R)
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


def _constant_divergence(model: ModelSpec) -> float:
    """The drift divergence, the trace of D2f, at (0, 0), checked constant
    at seeded points."""
    rng = np.random.default_rng(0)
    div0 = float(np.trace(model.D2f(0.0, np.zeros(model.state_dim))))
    for _ in range(8):
        t = float(rng.uniform(0.0, 1.0))
        x = rng.normal(size=model.state_dim)
        if not np.isclose(float(np.trace(model.D2f(t, x))), div0):
            raise InvalidSpecError("Onsager-Machlup variant requires a constant drift divergence")
    return div0


def build_onsager_machlup(base: QuadraticCostSpec, model: ModelSpec) -> CostSpec:
    """phi = h'Rh/2 + u'Gamma u/2 - div f with Gamma = (G G')^{-1}.

    The base's S is replaced by Gamma, read off the model's G.  The
    divergence of the drift f is the trace of D2f and must be constant
    (checked at seeded points): the cost's state gradient ``D2phi`` is the
    base's, as for the quadratic geophysical class, whose divergence is
    constant.  The curvature correction of the trajectory MAP functional
    vanishes for a constant G and is omitted.
    """
    div = _constant_divergence(model)
    gg = model.G @ model.G.T
    if np.linalg.cond(gg) >= MAX_METRIC_CONDITION:
        raise InvalidSpecError("G G' is ill-conditioned; metric inverse unreliable")
    m = model.control_dim
    if gg.shape != (m, m):
        raise InvalidSpecError(
            f"the metric (G G')^-1 is {gg.shape[0]}x{gg.shape[0]}, "
            f"but the model has {m} controls"
        )
    gamma = np.linalg.inv(gg)
    gamma = 0.5 * (gamma + gamma.T)
    me = build_minimum_energy(replace(base, S=gamma))

    def phi(t, x, u):
        return me.phi(t, x, u) - div

    return replace(me, phi=phi)


def _trapezoid(values: np.ndarray, dt: float):
    """Trapezoid sums along the last axis."""
    return dt * (np.sum(values, axis=-1) - 0.5 * (values[..., 0] + values[..., -1]))


def check_observation(cost: CostSpec, eta: SampledPath, x0) -> None:
    """Raise :class:`InvalidSpecError` unless eta has psi's dimension.

    psi is evaluated at the first node of eta's grid and the initial state
    ``x0``, one (n,) or stacked (..., n).  The
    :class:`~roughassim.problem.AssimilationProblem` constructor calls this,
    and so does :func:`eval_cost`, the one function that takes eta alone, so
    a wrong eta is named here instead of failing in a numpy contraction.
    """
    # Only the shape is read, and a constant psi may come back unstacked, so
    # only its last axis counts.
    with np.errstate(over="ignore", invalid="ignore"):
        observed = np.shape(cost.psi(eta.grid.times[0], x0))[-1]
    if eta.dim != observed:
        raise InvalidSpecError(f"eta has {eta.dim} components, the cost observes {observed}")


def eval_cost(cost: CostSpec, x: SampledPath, u: SampledPath, eta: SampledPath) -> float:
    """A(x, u): trapezoid deterministic part + left-tag Young stochastic part.

    Raises :class:`InvalidSpecError` when eta's dimension is not psi's and,
    for a quadratic-family cost, when x has not as many components as h's
    Jacobian has columns or u not as many as S has rows.
    """
    grid = require_same_grid(x, u, eta)
    quad = cost.quad
    if quad is not None:
        n = np.shape(quad.h_jac(grid.times[0], x.values[0]))[-1]
        check_paths(n, quad.control_dim, state=x.values, control=u.values)
    check_observation(cost, eta, x.values[0])
    J, bad = _eval_costs(cost, x.values, u.values, eta)
    if bad >= 0:
        raise _cost_blowup(bad)
    return float(J)


def _cost_blowup(node) -> BlowUpError:
    """The error of a running cost first non-finite at ``node``."""
    node = int(node)
    return BlowUpError(node, f"non-finite running cost at node {node}")


def _eval_costs(cost: CostSpec, xv, uv, eta: SampledPath):
    """:func:`eval_cost` of stacked, unchecked paths on eta's grid, xv
    (..., n_nodes, n) and uv (..., n_nodes, m): per member, the cost and
    the first node whose running cost is non-finite, or -1, where the cost
    means nothing.  Each member's cost equals its own call bit for bit.
    """
    grid = eta.grid
    times = np.broadcast_to(grid.times, xv.shape[:-1])
    # A finite but huge state may overflow phi, a blow-up, and finite terms
    # their sums, a non-finite cost; neither is a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        phis = cost.phi(times, xv, uv)
        psis = cost.psi(times[..., :-1], xv[..., :-1, :])
        young = np.sum(psis * eta.increments(), axis=(-2, -1))
        return _trapezoid(phis, grid.dt) + young, first_nonfinite(phis[..., None])


def eval_cost_by_parts(problem: AssimilationProblem, x: SampledPath, u: SampledPath) -> float:
    """A(x, u) via the classical reformulation after integration by parts.

    Running cost  phi - {D1 psi + D2 psi (f + G u)} . eta(t)  plus the
    boundary term psi(T, x(T)) . eta(T) - psi(0, x(0)) . eta(0); agrees
    with :func:`eval_cost` under grid refinement for smooth psi.  Raises
    :class:`InvalidSpecError` unless the cost has D1psi, x has n components
    and u m.
    """
    cost, model, eta = problem.cost, problem.model, problem.eta
    if cost.D1psi is None:
        raise InvalidSpecError("eval_cost_by_parts needs the time derivative of psi")
    grid = require_same_grid(x, u, eta)
    problem.check_paths(state=x.values, control=u.values)
    times = grid.times
    etav = eta.values
    xv, uv = x.values, u.values
    # As in eval_cost: a non-finite running cost is a blow-up, a sum too
    # large for a float a non-finite cost, and neither a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        rate = cost.D1psi(times, xv) + np.matvec(cost.D2psi(times, xv), model.drift(times, xv, uv))
        tilde = cost.phi(times, xv, uv) - np.vecdot(rate, etav)
        if not np.all(np.isfinite(tilde)):
            raise BlowUpError(int(np.flatnonzero(~np.isfinite(tilde))[0]))
        ends = np.vecdot(cost.psi(times[[0, -1]], xv[[0, -1]]), etav[[0, -1]])
        return float(_trapezoid(tilde, grid.dt)) + float(ends[1] - ends[0])
