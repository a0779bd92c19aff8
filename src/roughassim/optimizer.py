"""Projected-gradient minimization over piecewise-constant controls.

Plain first-order descent with Armijo backtracking; the step carried over
between iterations is seeded Barzilai-Borwein style from the last two
iterates, which keeps the method cheap while coping with the moderate
ill-conditioning of long-window assimilation.  Stationarity is certified
twice: projected-gradient norm below tolerance and a small
maximum-principle residual.  Several starts run in lockstep: each round,
their forward solves share one RK4 sweep and their costate solves one
costate sweep, along a leading member axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real
from typing import List, Optional

import numpy as np

from .adjoint import (
    OptimalTriple,
    control_gradient,
    costate_sweep,
    max_principle_residual,
    solve_costate,
)
from .cost import CostSpec, eval_cost
from .dynamics import ModelSpec, integrate_state, rk4_sweep
from .errors import BlowUpError, InvalidSpecError, RoughAssimError
from .grid import SampledPath, TimeGrid, require_same_grid


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
        """Pointwise Euclidean projection of one control (m,) or stacked (..., m)."""
        if self.kind == "all_space":
            return values
        if self.kind == "box":
            return np.clip(values, self.lo, self.hi)
        offset = values - self.center
        norms = np.linalg.norm(offset, axis=-1, keepdims=True)
        scale = np.where(norms > self.radius, self.radius / np.maximum(norms, 1e-300), 1.0)
        return self.center + offset * scale

    def contains(self, values: np.ndarray, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(values - self.project_values(values))) <= tol)


# Armijo line search: the first trial step, the sufficient-decrease constant,
# the shrink factor and the smallest step tried before an iteration stalls.
STEP_INIT = 1.0
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
MIN_STEP = 1e-12


def positive_finite(value) -> bool:
    """A real number in (0, inf); a boolean, a string or a NaN is not one."""
    return isinstance(value, Real) and not isinstance(value, bool) and 0 < value < np.inf


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 500
    grad_tol: float = 1e-5
    multistart: int = 1

    def __post_init__(self):
        if not positive_finite(self.grad_tol):
            raise InvalidSpecError(f"grad_tol must be positive and finite, got {self.grad_tol!r}")
        # ``type(k) is int`` because a boolean is not a count.
        if not all(type(k) is int and k >= 1 for k in (self.max_iters, self.multistart)):
            raise InvalidSpecError("max_iters and multistart must be positive integers")


@dataclass
class AssimilationResult:
    triple: OptimalTriple
    cost_trace: List[float]
    grad_norm_trace: List[float]
    mp_residual: float
    status: str  # converged | max_iters | stalled

    @property
    def final_cost(self) -> float:
        return self.cost_trace[-1]

    @property
    def iterations(self) -> int:
        return len(self.grad_norm_trace)


def project_control(u: SampledPath, control_set: ControlSetSpec) -> SampledPath:
    """Pointwise projection onto the control set; idempotent."""
    return SampledPath(u.grid, control_set.project_values(u.values))


def _l2sq(values: np.ndarray, dt: float) -> float:
    return float(dt * np.sum(values**2))


FORWARD, COSTATE = "forward", "costate"


def _projected_gradient(
    model: ModelSpec,
    cost: CostSpec,
    eta: SampledPath,
    u0: SampledPath,
    control_set: ControlSetSpec,
    config: OptimizerConfig,
):
    """The projected-gradient loop of one start, as a generator.

    It yields each solve it needs, ``(FORWARD, u)`` or ``(COSTATE, (x, u))``,
    and is sent the solved path, or has the solve's :class:`BlowUpError`
    thrown in at the yield; it returns the :class:`AssimilationResult`.
    """
    grid: TimeGrid = require_same_grid(u0, eta)
    dt = grid.dt
    u = project_control(u0, control_set)
    x = yield FORWARD, u
    J = eval_cost(cost, x, u, eta)
    cost_trace = [J]
    grad_norm_trace: List[float] = []
    status = "max_iters"
    alpha = STEP_INIT
    prev_u = prev_G = None

    for _ in range(config.max_iters):
        lam = yield COSTATE, (x, u)
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
                x_trial = yield FORWARD, u_trial
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

    if status == "max_iters":  # the last step moved (x, u) on from lam
        lam = yield COSTATE, (x, u)
    triple = OptimalTriple(x=x, u=u, lam=lam)
    mp_res = max_principle_residual(triple, cost, model, control_set=control_set)
    return AssimilationResult(
        triple=triple,
        cost_trace=cost_trace,
        grad_norm_trace=grad_norm_trace,
        mp_residual=mp_res,
        status=status,
    )


def _solve(kind, requests, model, cost, eta, xi):
    """One round's solves of one kind: per request, its path or its BlowUpError.

    Several requests run as one member batch; a single one runs with no
    member axis, through the one-path functions, which is faster.
    """
    grid = eta.grid
    try:
        if len(requests) == 1 and kind == FORWARD:
            return [integrate_state(model, requests[0], xi, grid)]
        if len(requests) == 1:
            return [solve_costate(model, cost, *requests[0], eta)]
    except BlowUpError as err:
        return [err]
    if kind == FORWARD:
        values, blown = rk4_sweep(model, np.stack([u.values for u in requests]), xi, grid)
    else:
        xs, us = zip(*requests)
        values, blown = costate_sweep(
            model, cost, np.stack([x.values for x in xs]), np.stack([u.values for u in us]), eta
        )
    return [
        BlowUpError(int(node)) if node >= 0 else SampledPath(grid, v)
        for v, node in zip(values, blown)
    ]


def minimize(
    model: ModelSpec,
    cost: CostSpec,
    eta: SampledPath,
    xi,
    u0: SampledPath,
    control_set: ControlSetSpec,
    config: OptimizerConfig,
) -> AssimilationResult:
    """Projected gradient with Armijo backtracking on the full index.

    Iterates u <- Proj_U(u - alpha G) until the projected-gradient sup norm
    drops below ``grad_tol``; every accepted step strictly decreases the
    cost.  The returned triple carries the costate at the final iterate and
    the maximum-principle residual (closed form when the cost is quadratic).
    """
    return minimize_batch(model, cost, eta, xi, [u0], control_set, config)[0]


def minimize_batch(
    model: ModelSpec,
    cost: CostSpec,
    eta: SampledPath,
    xi,
    starts,
    control_set: ControlSetSpec,
    config: OptimizerConfig,
) -> List[AssimilationResult]:
    """:func:`minimize` from each control in ``starts``, all in one lockstep batch.

    Each start's loop is a generator that yields its solves.  Each round
    advances every unfinished start to its next solve; the forward solves
    of a round share one RK4 sweep and the costate solves one costate
    sweep.  Each start keeps its own step size, line search, status and
    traces, and its result equals :func:`minimize` from it bit for bit: a
    start whose trial step blows up shrinks only its own step, and one that
    converges or stalls leaves the batch.  When a start raises, the starts
    after it stop, and the error of the first start to raise is raised, as
    a serial loop would.
    """
    solvers = [_projected_gradient(model, cost, eta, u0, control_set, config) for u0 in starts]

    def answer(requests):
        answers = {}
        for kind in (FORWARD, COSTATE):
            ks = [k for k, (want, _) in requests.items() if want == kind]
            if ks:
                solved = _solve(kind, [requests[k][1] for k in ks], model, cost, eta, xi)
                answers.update(zip(ks, solved))
        return answers

    return lockstep(solvers, answer)


def lockstep(solvers, answer) -> list:
    """Run generator solvers in lockstep rounds; return their results in order.

    Each round advances every unfinished solver to its next request, and
    ``answer`` maps the round's requests, {solver index: request}, to
    their answers at once.  A :class:`BlowUpError` answer is thrown into
    its solver at the yield; any other answer is sent.  When a solver
    raises, the solvers after it stop, and the error of the first solver
    to raise is raised, as a serial loop over the solvers would.
    """
    results = [None] * len(solvers)
    answers = {k: None for k in range(len(solvers))}
    error = None
    while answers:
        requests = {}
        for k, reply in answers.items():
            try:
                if isinstance(reply, BlowUpError):
                    requests[k] = solvers[k].throw(reply)
                else:
                    requests[k] = solvers[k].send(reply)
            except StopIteration as stop:
                results[k] = stop.value
            except RoughAssimError as err:
                error = err
                requests = {j: r for j, r in requests.items() if j < k}
                break
        # Start order finds the first raiser.
        answers = dict(sorted(answer(requests).items())) if requests else {}
    if error is not None:
        raise error
    return results
