"""Projected-gradient minimization over piecewise-constant controls.

Plain first-order descent with Armijo backtracking; the step carried over
between iterations is seeded Barzilai-Borwein style from the last two
iterates, which keeps the method cheap while coping with the moderate
ill-conditioning of long-window assimilation.  Stationarity is certified
twice: projected-gradient norm below tolerance and a small
maximum-principle residual.  Several starts run in lockstep: each round,
their forward solves share one RK4 sweep and one cost evaluation, and
their costate solves one costate sweep and one control-gradient call,
along a leading member axis.  A start is an initial state and a control,
so the starts need not share their initial state.  The rounds exchange the
sweeps' arrays; only each start's final :class:`OptimalTriple` is built
from paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .adjoint import OptimalTriple, _control_gradients, costate_sweep, max_principle_residual
from .cost import _cost_blowup, _eval_costs
from .dynamics import initial_state, rk4_sweep
from .dynamics import integrate_state  # unused here; perfbench traces optimizer.integrate_state
from .errors import BlowUpError, InvalidSpecError, RoughAssimError
from .grid import SampledPath, TimeGrid, _positive_count, _positive_number, require_same_grid
from .problem import AssimilationProblem


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
        _positive_number(self.grad_tol, "grad_tol")
        for label in ("max_iters", "multistart"):
            object.__setattr__(self, label, _positive_count(getattr(self, label), label))


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


FORWARD, COSTATE = "forward", "costate"


def _projected_gradient(
    problem: AssimilationProblem, xi, u0: SampledPath, config: OptimizerConfig
):
    """The projected-gradient loop of one start (xi, u0), as a generator.

    It yields each solve it needs on arrays, ``(FORWARD, (xi, u))`` or
    ``(COSTATE, (x, u))``, and is sent the solved array with the cost of
    (x, u) or the control gradient, or has the solve's
    :class:`BlowUpError` thrown in at the yield; it returns the
    :class:`AssimilationResult`.
    """
    eta, control_set = problem.eta, problem.control_set
    grid: TimeGrid = require_same_grid(u0, eta)
    xi = initial_state(problem.model, xi)
    dt = grid.dt
    u = control_set.project_values(u0.values)
    x, J = yield FORWARD, (xi, u)
    cost_trace = [J]
    grad_norm_trace: List[float] = []
    status = "max_iters"
    alpha = STEP_INIT
    prev_u = prev_G = None

    for _ in range(config.max_iters):
        lam, G = yield COSTATE, (x, u)
        pg = u - control_set.project_values(u - G)
        pg_norm = float(np.max(np.abs(pg)))
        grad_norm_trace.append(pg_norm)
        if pg_norm < config.grad_tol:
            status = "converged"
            break

        if prev_G is not None:
            du, dg = u - prev_u, G - prev_G
            denom = np.sum(du * dg)
            if denom > 0:
                bb = np.sum(du * du) / denom  # spectral (BB1) step estimate
                alpha = float(np.clip(bb, MIN_STEP, 1e6))
        prev_u, prev_G = u, G

        accepted = False
        while alpha >= MIN_STEP:
            u_trial = control_set.project_values(u - alpha * G)
            try:
                x_trial, J_trial = yield FORWARD, (xi, u_trial)
            except BlowUpError:
                alpha *= ARMIJO_SHRINK
                continue
            decrease = ARMIJO_C / alpha * float(dt * np.sum((u_trial - u) ** 2))
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
        lam, _ = yield COSTATE, (x, u)
    triple = OptimalTriple(*(SampledPath(grid, v) for v in (x, u, lam)))
    mp_res = max_principle_residual(triple, problem)
    return AssimilationResult(
        triple=triple,
        cost_trace=cost_trace,
        grad_norm_trace=grad_norm_trace,
        mp_residual=mp_res,
        status=status,
    )


def _solve(kind, requests, problem: AssimilationProblem):
    """One round's solves of one kind: per request, its answer or its BlowUpError.

    A request is a pair of arrays, ``(xi, u)`` forward and ``(x, u)`` for
    the costate.  The requests run as one member batch, each member from
    its own first entry; a single request is a batch of one member, whose
    forward sweep steps in floats when the model sets ``float_step``.  A
    forward answer is x and the cost of (x, u), a costate answer lambda
    and the control gradient, each member's from one stacked call.  A
    member whose sweep or running cost turns non-finite is answered with
    its own :class:`BlowUpError`.
    """
    eta = problem.eta
    firsts, uv = (np.stack(parts) for parts in zip(*requests))
    if kind == FORWARD:
        values, blown = rk4_sweep(problem.model, uv, firsts, eta.grid)
        costs, bad = _eval_costs(problem.cost, values, uv, eta)
        return [
            BlowUpError(int(node)) if node >= 0
            else _cost_blowup(at) if at >= 0
            else (v, float(J))
            for v, node, J, at in zip(values, blown, costs, bad)
        ]
    values, blown = costate_sweep(problem, firsts, uv)
    ok = blown < 0  # a blown costate has no gradient
    some = slice(None) if np.all(ok) else ok
    grads = iter(_control_gradients(problem, eta.grid, firsts[some], uv[some], values[some]))
    return [
        (v, next(grads)) if node < 0 else BlowUpError(int(node))
        for v, node in zip(values, blown)
    ]


def minimize(
    problem: AssimilationProblem, xi, u0: SampledPath, config: OptimizerConfig
) -> AssimilationResult:
    """Projected gradient with Armijo backtracking on the full index.

    Iterates u <- Proj_U(u - alpha G) until the projected-gradient sup norm
    drops below ``grad_tol``; every accepted step strictly decreases the
    cost.  The returned triple carries the costate at the final iterate and
    the maximum-principle residual (closed form when the cost is quadratic).
    """
    return minimize_batch(problem, [(xi, u0)], config)[0]


def minimize_batch(
    problem: AssimilationProblem, starts, config: OptimizerConfig
) -> List[AssimilationResult]:
    """:func:`minimize` from each ``(xi, u0)`` in ``starts``, all in one lockstep batch.

    Each start's loop is a generator that yields its solves.  Each round
    advances every unfinished start to its next solve; the forward solves
    of a round share one RK4 sweep, each member from its own initial state,
    and the costate solves one costate sweep.  Each start keeps its own
    initial state, step size, line search, status and traces, and its
    result equals :func:`minimize` from it bit for bit: a start whose trial
    step blows up shrinks only its own step, and one that converges or
    stalls leaves the batch.  When a start raises, the starts after it
    stop, and the error of the first start to raise is raised, as a serial
    loop would.  Starts that are not such pairs, each control a
    :class:`SampledPath`, raise :class:`InvalidSpecError`.
    """
    try:
        pairs = [tuple(start) for start in starts]
    except TypeError:  # not iterable
        pairs = [()]
    if any(len(pair) != 2 or not isinstance(pair[1], SampledPath) for pair in pairs):
        message = f"starts must be a list of (initial state, control path) pairs, got {starts!r}"
        raise InvalidSpecError(message)
    solvers = [_projected_gradient(problem, xi, u0, config) for xi, u0 in pairs]

    def answer(requests):
        answers = {}
        for kind in (FORWARD, COSTATE):
            ks = [k for k, (want, _) in requests.items() if want == kind]
            if ks:
                solved = _solve(kind, [requests[k][1] for k in ks], problem)
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
