"""AssimilationProblem: the one place that decides whether the dynamics, the
index, the observation path and the control set fit together."""

import numpy as np
import pytest

from roughassim.adjoint import (
    OptimalTriple,
    control_gradient,
    costate_sweep,
    max_principle_residual,
    solve_costate,
)
from roughassim.cost import (
    QuadraticCostSpec,
    build_minimum_energy,
    coordinate_observation,
    eval_cost,
    eval_cost_by_parts,
)
from roughassim.dynamics import ModelSpec
from roughassim.errors import InvalidSpecError
from roughassim.grid import SampledPath
from roughassim.problem import AssimilationProblem, ControlSetSpec

from conftest import make_lorenz_twin


def quadratic_cost(indices, state_dim, R, S):
    h, h_jac = coordinate_observation(indices, state_dim)
    return build_minimum_energy(QuadraticCostSpec(h=h, h_jac=h_jac, R=R, S=S))


def test_misfits_rejected_by_the_constructor():
    # Each misfit used to reach a solver, which raised numpy's ValueError
    # from a contraction or returned without complaint; the constructor
    # names it before any solve.  An eta or a control set that does not fit
    # is checked in test_cost and test_optimizer.
    problem, _, _ = make_lorenz_twin(n_steps=32, T=0.05)
    model, eta = problem.model, problem.eta
    two_columns = SampledPath(eta.grid, eta.values[:, :2])
    cost_n2 = quadratic_cost([0, 1], 2, np.eye(2), np.eye(2))
    misfits = {
        "f for n = 3": (
            (ModelSpec(lambda t, x: np.zeros(3), np.eye(2), lambda t, x: -np.eye(2)), cost_n2,
             two_columns),
            r"f gives shape \(3,\) and D2f \(2, 2\), but G is 2x2",
        ),
        "D2f for n = 3": (
            (ModelSpec(lambda t, x: -x, np.eye(2), lambda t, x: -np.eye(3)), cost_n2,
             two_columns),
            r"f gives shape \(2,\) and D2f \(3, 3\), but G is 2x2",
        ),
        "S 2x2": (
            (model, quadratic_cost([0, 1, 2], 3, np.eye(3), np.eye(2)), eta),
            "S is 2x2, but the model has 3 controls",
        ),
        "R 2x2": (
            (model, quadratic_cost([0, 1, 2], 3, np.eye(2), np.eye(3)), two_columns),
            r"h gives shape \(3,\), but R is 2x2",
        ),
        "h for n = 2": (
            (model, quadratic_cost([0, 1], 2, np.eye(2), np.eye(3)), two_columns),
            r"h's Jacobian has shape \(2, 2\), the model 3 states",
        ),
    }
    for args, message in misfits.values():
        with pytest.raises(InvalidSpecError, match=message):
            AssimilationProblem(*args)



@pytest.fixture(scope="module")
def door_twin():
    """The 32-step twin, the truth, a zero control, its costate, and a
    function keeping the first two components of a path."""
    problem, _, truth = make_lorenz_twin(n_steps=32, T=0.05)
    grid = problem.eta.grid
    u = SampledPath.zeros(grid, 3)
    lam = solve_costate(problem, truth, u)
    return problem, truth, u, lam, lambda path: SampledPath(grid, path.values[:, :2])


# Without the width and node checks each door fails in numpy, not with a
# package error; without the member check costate_sweep returns.
DOORS = {
    "eval_cost-state": (
        lambda p, x, u, lam, two: eval_cost(p.cost, two(x), u, p.eta),
        InvalidSpecError, "state has 2 components, not 3"),
    "eval_cost-control": (
        lambda p, x, u, lam, two: eval_cost(p.cost, x, two(u), p.eta),
        InvalidSpecError, "control has 2 components, not 3"),
    "eval_cost_by_parts-control": (
        lambda p, x, u, lam, two: eval_cost_by_parts(p, x, two(u)),
        InvalidSpecError, "control has 2 components, not 3"),
    "control_gradient-control": (
        lambda p, x, u, lam, two: control_gradient(p, x, two(u), lam),
        InvalidSpecError, "control has 2 components, not 3"),
    "max_principle_residual-control": (
        lambda p, x, u, lam, two: max_principle_residual(OptimalTriple(x, two(u), lam), p),
        InvalidSpecError, "control has 2 components, not 3"),
    "max_principle_residual-costate": (
        lambda p, x, u, lam, two: max_principle_residual(OptimalTriple(x, u, two(lam)), p),
        InvalidSpecError, "costate has 2 components, not 3"),
    "costate_sweep-nodes": (
        lambda p, x, u, lam, two: costate_sweep(p, x.values[:-1], u.values[:-1]),
        InvalidSpecError, "state has 32 nodes, the grid 33"),
    "costate_sweep-members": (
        lambda p, x, u, lam, two: costate_sweep(p, np.stack([x.values] * 2),
                                                np.stack([u.values] * 3)),
        InvalidSpecError, r"control has member shape \(3,\), not \(2,\)"),
}


@pytest.mark.parametrize("door", DOORS)
def test_solver_doors_reject_paths_of_the_wrong_width_or_node_count(door_twin, door):
    call, error, message = DOORS[door]
    with pytest.raises(error, match=message):
        call(*door_twin)


def test_control_set_keeps_what_it_checked():
    lo, hi = -np.ones(2), np.ones(2)
    box = ControlSetSpec(kind="box", lo=lo, hi=hi)
    lo[0] = 5.0
    np.testing.assert_array_equal(box.project_values(np.zeros(2)), [0.0, 0.0])
    for kept in (box.lo, box.hi):
        assert not kept.flags.writeable
