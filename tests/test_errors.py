"""One rule, one error: every malformed input raises InvalidSpecError.

Inputs that break the same rule at different doors raise the same class,
with a message that names the input.  The seed rule is one of these rules:
a seed or a stream lies in [0, 2**64), so no seed draws another seed's
stream (`assim check --seed` is tested with the CLI's exit codes).
"""

from dataclasses import replace

import numpy as np
import pytest

from roughassim.adjoint import duality_check
from roughassim.dynamics import check_paths
from roughassim.errors import InvalidSpecError
from roughassim.experiments import load_config
from roughassim.grid import SampledPath, TimeGrid, read_path_csv, require_same_grid
from roughassim.optimizer import OptimizerConfig
from roughassim.problem import AssimilationProblem
from roughassim.roughpath import (
    build_observation,
    p_variation,
    sample_wiener,
    wiener_rng,
    young_integral,
)
from roughassim.shooting import shoot

from conftest import scalar_lq
from test_experiments_cli import lorenz_config

GRID = TimeGrid(1.0, 4)
PATH = SampledPath(GRID, [0.0, 1.0, 0.0, 1.0, 0.0])


def _without_quad():
    problem = scalar_lq(GRID)
    return AssimilationProblem(problem.model, replace(problem.cost, quad=None), problem.eta)


# Each entry: a call that breaks a rule, and what its message names.
REFUSALS = {
    "TimeGrid-n_steps-0": (lambda: TimeGrid(1.0, 0), "n_steps"),
    "OptimizerConfig-max_iters-0": (lambda: OptimizerConfig(max_iters=0), "max_iters"),
    "build_observation-noise_scale": (lambda: build_observation(PATH, -1.0, 0), "noise_scale"),
    "load_config-noise_scale": (
        lambda: load_config(lorenz_config(observation={"noise_scale": -1.0})), "noise_scale"),
    "read_path_csv-missing": (lambda: read_path_csv("missing.csv"), "path file"),
    "load_config-missing": (lambda: load_config("missing.json"), "config"),
    "TimeGrid-T-string": (lambda: TimeGrid("1", 4), "T must be a number"),
    "TimeGrid-T-negative": (lambda: TimeGrid(-1.0, 4), "T must be positive"),
    "check_paths-components": (
        lambda: check_paths(3, 3, 5, state=np.zeros((5, 2))), "state has 2 components"),
    "check_paths-nodes": (
        lambda: check_paths(3, 3, 5, state=np.zeros((4, 3))), "state has 4 nodes"),
    "SampledPath-nan": (lambda: SampledPath(GRID, [0.0, np.nan, 0.0, 0.0, 0.0]), "path values"),
    "SampledPath.zeros-d-0": (lambda: SampledPath.zeros(GRID, 0), "d must"),
    "p_variation-p-0.5": (lambda: p_variation(PATH, 0.5), "p must"),
    "young_integral-tag": (lambda: young_integral(PATH, PATH, tag="right"), "tag"),
    "require_same_grid": (
        lambda: require_same_grid(PATH, SampledPath.zeros(TimeGrid(1.0, 8), 1)), "grids"),
    "restrict-stride-3": (lambda: PATH.restrict(3), "stride"),
    "duality_check-M": (
        lambda: duality_check(np.zeros((4, 1, 1)), PATH, PATH, [1.0], [1.0]), "M must"),
    "duality_check-M-nan": (
        lambda: duality_check(np.full((5, 1, 1), np.nan), PATH, PATH, [1.0], [1.0]),
        "M must be finite"),
    "duality_check-zeta0-inf": (
        lambda: duality_check(np.zeros((5, 1, 1)), PATH, PATH, [np.inf], [1.0]),
        "zeta0 must be finite"),
    "duality_check-lambdaT-nan": (
        lambda: duality_check(np.zeros((5, 1, 1)), PATH, PATH, [1.0], [np.nan]),
        "lambdaT must be finite"),
    "shoot-no-quad": (lambda: shoot(_without_quad(), [1.0]), "cost"),
}


@pytest.mark.parametrize("refusal", REFUSALS)
def test_each_rule_raises_invalid_spec_naming_the_input(tmp_path, monkeypatch, refusal):
    monkeypatch.chdir(tmp_path)  # the missing files are missing here
    call, named = REFUSALS[refusal]
    with pytest.raises(InvalidSpecError, match=named):
        call()


@pytest.mark.parametrize("door", [
    pytest.param(lambda seed: wiener_rng(seed), id="wiener_rng"),
    pytest.param(lambda stream: wiener_rng(0, stream), id="wiener_rng-stream"),
    pytest.param(lambda seed: sample_wiener(GRID, 1, seed), id="sample_wiener"),
    pytest.param(lambda seed: build_observation(PATH, 0.1, seed), id="build_observation"),
    pytest.param(lambda seed: load_config(lorenz_config(observation={"seed": seed})),
                 id="load_config"),
])
@pytest.mark.parametrize("seed", [2**64, -1])
def test_seed_rule_at_every_door(door, seed):
    with pytest.raises(InvalidSpecError, match=r"must be in \[0, 2\*\*64\)"):
        door(seed)
