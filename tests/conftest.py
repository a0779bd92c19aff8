import numpy as np
import pytest
from hypothesis import settings

from roughassim.cost import QuadraticCostSpec, build_minimum_energy, coordinate_observation
from roughassim.dynamics import linear_model
from roughassim.experiments import build_cost, load_config, simulate_truth
from roughassim.grid import SampledPath
from roughassim.problem import AssimilationProblem, ControlSetSpec

# A deeper run of the property tests that leave max_examples to the profile,
# chosen with --hypothesis-profile=ci; the default profile stays in force.
settings.register_profile("ci", max_examples=1000, deadline=None)


def make_lorenz_twin(seed=42, n_steps=512, T=1.0, noise=0.1, S=1.0):
    """Lorenz'63 twin setup: the problem (model, quadratic cost, observation,
    U = E), the truth's initial state and the truth."""
    config = load_config(
        {
            "model": {"name": "lorenz63"},
            "grid": {"T": T, "n_steps": n_steps},
            "truth": {"initial_state": [1.0, 1.0, 25.0]},
            "observation": {"h_indices": "full", "R": 1.0, "noise_scale": noise, "seed": seed},
            "cost": {"kind": "minimum_energy", "S": S},
        }
    )
    truth, eta = simulate_truth(config)
    problem = AssimilationProblem(config.model, build_cost(config), eta)
    return problem, config.truth_initial_state, truth


def scalar_lq(grid, a=-1.0, q=1.0, r=1.0, control_set=ControlSetSpec()):
    """Scalar LQ problem xdot = a x + u, running cost 1/2 (q x^2 + r u^2),
    observed along the zero path on ``grid``."""
    h, h_jac = coordinate_observation([0], 1)
    quad = QuadraticCostSpec(h=h, h_jac=h_jac, R=q * np.eye(1), S=r * np.eye(1))
    cost = build_minimum_energy(quad)
    return AssimilationProblem(linear_model([[a]]), cost, zero_eta(grid), control_set)


def zero_eta(grid, dim=1):
    """A noiseless observation path that is identically zero."""
    return SampledPath.zeros(grid, dim)


@pytest.fixture
def lorenz_twin():
    return make_lorenz_twin()
