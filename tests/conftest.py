import pytest

from roughassim.experiments import build_cost, load_config, simulate_truth


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


@pytest.fixture
def lorenz_twin():
    return make_lorenz_twin()
