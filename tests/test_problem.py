"""AssimilationProblem: the one place that decides whether the dynamics, the
index, the observation path and the control set fit together."""

import numpy as np
import pytest

from roughassim.cost import (
    QuadraticCostSpec,
    build_minimum_energy,
    coordinate_observation,
)
from roughassim.errors import InvalidSpecError
from roughassim.grid import SampledPath
from roughassim.problem import AssimilationProblem

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
    misfits = {
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

