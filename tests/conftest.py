import numpy as np
import pytest

from roughassim.cost import QuadraticCostSpec, build_minimum_energy, coordinate_observation
from roughassim.dynamics import linear_model
from roughassim.experiments import build_cost, load_config, simulate_truth
from roughassim.grid import SampledPath


def make_lorenz_twin(seed=42, n_steps=512, T=1.0, noise=0.1, S=1.0):
    """Lorenz'63 twin setup: model, grid, quadratic cost, truth, observation."""
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
    return config.model, config.grid, build_cost(config), config.truth_initial_state, truth, eta


def scalar_lq(a=-1.0, q=1.0, r=1.0):
    """Scalar LQ problem xdot = a x + u, running cost 1/2 (q x^2 + r u^2)."""
    h, h_jac = coordinate_observation([0], 1)
    quad = QuadraticCostSpec(h=h, h_jac=h_jac, R=q * np.eye(1), S=r * np.eye(1))
    return linear_model([[a]]), build_minimum_energy(quad)


def zero_eta(grid, dim=1):
    """A noiseless observation path that is identically zero."""
    return SampledPath.zeros(grid, dim)


@pytest.fixture
def lorenz_twin():
    return make_lorenz_twin()
