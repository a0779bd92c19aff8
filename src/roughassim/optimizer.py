"""Projected-gradient minimization over piecewise-constant controls.

Plain first-order descent with Armijo backtracking; the step carried over
between iterations is seeded Barzilai-Borwein style from the last two
iterates, which keeps the method cheap while coping with the moderate
ill-conditioning of long-window assimilation.  Stationarity is certified
twice: projected-gradient norm below tolerance and a small
maximum-principle residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .adjoint import (
    OptimalTriple,
    control_gradient,
    max_principle_residual,
    solve_costate,
)
from .cost import CostSpec, eval_cost
from .dynamics import ModelSpec, integrate_state
from .errors import BlowUpError, InvalidSpecError
from .grid import ObservationPath, SampledPath, TimeGrid


@dataclass(frozen=True)
class ControlSetSpec:
    """Closed convex control set: all of E, a box, or a ball."""

    kind: str = "all_space"
    lo: Optional[np.ndarray] = None
    hi: Optional[np.ndarray] = None
    center: Optional[np.ndarray] = None
    radius: Optional[float] = None

    def __post_init__(self):
        if self.kind == "all_space":
            return
        if self.kind == "box":
            lo = np.asarray(self.lo, dtype=float)
            hi = np.asarray(self.hi, dtype=float)
            if lo.shape != hi.shape or not np.all(lo <= hi):  # NaN fails lo <= hi
                raise InvalidSpecError("box bounds need lo <= hi componentwise")
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
        elif self.kind == "ball":
            center = np.asarray(self.center, dtype=float)  # a missing center reads as NaN
            r = self.radius
            if not (r is not None and 0 < r < np.inf and np.all(np.isfinite(center))):
                raise InvalidSpecError("a ball needs a finite center and a positive finite radius")
            object.__setattr__(self, "center", center)
        else:
            raise InvalidSpecError(f"unknown control set kind {self.kind!r}")

    def project_values(self, values: np.ndarray) -> np.ndarray:
        """Pointwise Euclidean projection of an (n_nodes, m) array."""
        if self.kind == "all_space":
            return values
        if self.kind == "box":
            return np.clip(values, self.lo, self.hi)
        offset = values - self.center
        norms = np.linalg.norm(offset, axis=-1, keepdims=True)
        scale = np.where(norms > self.radius, self.radius / np.maximum(norms, 1e-300), 1.0)
        return self.center + offset * scale

    def project_point(self, v: np.ndarray) -> np.ndarray:
        return self.project_values(np.asarray(v, dtype=float)[None])[0]

    def contains(self, values: np.ndarray, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(values - self.project_values(values))) <= tol)


# Armijo line search: the first trial step, the sufficient-decrease constant,
# the shrink factor and the smallest step tried before an iteration stalls.
STEP_INIT = 1.0
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
MIN_STEP = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 500
    grad_tol: float = 1e-5
    multistart: int = 1

    def __post_init__(self):
        if not self.grad_tol > 0:
            raise InvalidSpecError(f"grad_tol must be positive, got {self.grad_tol!r}")
        # ``type(k) is int`` because a boolean is not a count.
        if not all(type(k) is int and k >= 1 for k in (self.max_iters, self.multistart)):
            raise InvalidSpecError("max_iters and multistart must be positive integers")


@dataclass
class AssimilationResult:
    triple: OptimalTriple
    cost_trace: List[float]
    grad_norm_trace: List[float]
    mp_residual: float
    iterations: int
    status: str  # converged | max_iters | stalled

    @property
    def final_cost(self) -> float:
        return self.cost_trace[-1]


def project_control(u: SampledPath, control_set: ControlSetSpec) -> SampledPath:
    """Pointwise projection onto the control set; idempotent."""
    return SampledPath(u.grid, control_set.project_values(u.values))


def _l2sq(values: np.ndarray, dt: float) -> float:
    return float(dt * np.sum(values**2))


def minimize(
    model: ModelSpec,
    cost: CostSpec,
    eta: ObservationPath,
    xi,
    u0: SampledPath,
    control_set: ControlSetSpec,
    config: OptimizerConfig,
) -> AssimilationResult:
    """Projected gradient with Armijo backtracking on the full index.

    Iterates u <- Proj_U(u - alpha G) until the projected-gradient sup norm
    drops below ``grad_tol``; every accepted step strictly decreases the
    cost.  The returned triple carries a freshly solved costate and the
    maximum-principle residual (closed form when the cost is quadratic).
    """
    grid: TimeGrid = eta.grid
    dt = grid.dt
    u = project_control(u0, control_set)
    x = integrate_state(model, u, xi, grid)
    J = eval_cost(cost, x, u, eta)
    cost_trace = [J]
    grad_norm_trace: List[float] = []
    status = "max_iters"
    alpha = STEP_INIT
    prev_u = prev_G = None
    iterations = 0

    for it in range(config.max_iters):
        iterations = it + 1
        lam = solve_costate(model, cost, x, u, eta)
        G = control_gradient(model, cost, x, u, lam)
        pg = u.values - control_set.project_values(u.values - G.values)
        pg_norm = float(np.max(np.abs(pg)))
        grad_norm_trace.append(pg_norm)
        if pg_norm < config.grad_tol:
            status = "converged"
            break

        if prev_G is not None:
            du = u.values - prev_u
            dg = G.values - prev_G
            denom = np.sum(du * dg)
            if denom > 0:
                bb = np.sum(du * du) / denom  # spectral (BB1) step estimate
                alpha = float(np.clip(bb, MIN_STEP, 1e6))
        prev_u, prev_G = u.values, G.values

        accepted = False
        while alpha >= MIN_STEP:
            trial_vals = control_set.project_values(u.values - alpha * G.values)
            u_trial = SampledPath(grid, trial_vals)
            try:
                x_trial = integrate_state(model, u_trial, xi, grid)
                J_trial = eval_cost(cost, x_trial, u_trial, eta)
            except BlowUpError:
                alpha *= ARMIJO_SHRINK
                continue
            decrease = ARMIJO_C / alpha * _l2sq(trial_vals - u.values, dt)
            if J_trial <= J - decrease and np.isfinite(J_trial):
                u, x, J = u_trial, x_trial, J_trial
                accepted = True
                break
            alpha *= ARMIJO_SHRINK
        if not accepted:
            status = "stalled"
            break
        cost_trace.append(J)

    lam = solve_costate(model, cost, x, u, eta)
    triple = OptimalTriple(x=x, u=u, lam=lam)
    mp_res = max_principle_residual(triple, cost, model, control_set=control_set)
    if not grad_norm_trace:
        grad_norm_trace = [float("nan")]
    return AssimilationResult(
        triple=triple,
        cost_trace=cost_trace,
        grad_norm_trace=grad_norm_trace,
        mp_residual=mp_res,
        iterations=iterations,
        status=status,
    )
