"""Every public door, probed with malformed values.

A door is a public callable that takes values from its caller.  The table
gives each door one valid call and the parameters that take values; each
of those, replaced by a malformed value, must make the call succeed or
raise a :class:`RoughAssimError`, never another exception.  Parameters
that take library objects (a grid, a path, a model, a problem) are left
out: passing something else there is a programming error.
"""

import os
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from roughassim import (
    ControlSetSpec,
    ModelSpec,
    OptimizerConfig,
    QuadraticCostSpec,
    SampledPath,
    TimeGrid,
    build_observation,
    coordinate_observation,
    duality_check,
    hamiltonian_sweep,
    integrate_state,
    linear_model,
    lorenz63_model,
    lorenz96_model,
    minimize,
    minimize_batch,
    p_variation,
    p_variation_bruteforce,
    read_path_csv,
    sample_wiener,
    shoot,
    shoot_batch,
    value_probe,
    wiener_rng,
    write_path_csv,
    young_bound_check,
    young_integral,
)
from roughassim.errors import InvalidSpecError, RoughAssimError
from roughassim.experiments import cmd_assimilate, cmd_simulate, load_config

from conftest import scalar_lq


@dataclass(frozen=True)
class Door:
    name: str
    fn: object
    valid: dict
    positions: tuple


GRID = TimeGrid(0.5, 4)
PATH = SampledPath(GRID, [0.0, 1.0, 0.0, 1.0, 0.0])
LQ = scalar_lq(GRID)
U = SampledPath.zeros(GRID, 1)
H, H_JAC = coordinate_observation([0], 1)
LQ_CONFIG = {
    "model": {"name": "linear", "params": {"A": [[-1.0]]}},
    "grid": {"T": 0.5, "n_steps": 4},
    "truth": {"initial_state": [1.0]},
    "observation": {"h_indices": [0]},
}
LQ_EXPERIMENT = load_config(LQ_CONFIG)
#: The path files the file doors read and write, relative to the test's
#: working directory.
CSV_IN, CSV_OUT = "in.csv", "out.csv"

DOORS = [
    Door("TimeGrid", TimeGrid, dict(T=1.0, n_steps=4), ("T", "n_steps")),
    Door("SampledPath", SampledPath, dict(grid=GRID, values=PATH.values), ("values",)),
    Door("SampledPath.zeros", SampledPath.zeros, dict(grid=GRID, d=2), ("d",)),
    Door("SampledPath.restrict", PATH.restrict, dict(stride=2), ("stride",)),
    Door("read_path_csv", read_path_csv, dict(filename=CSV_IN), ("filename",)),
    Door("write_path_csv", write_path_csv, dict(path=PATH, filename=CSV_OUT), ("filename",)),
    Door("load_config", load_config, dict(source=LQ_CONFIG), ("source",)),
    Door("cmd_simulate", cmd_simulate, dict(config=LQ_EXPERIMENT, outdir="sim"), ("outdir",)),
    Door("cmd_assimilate", cmd_assimilate,
         dict(config=LQ_EXPERIMENT, eta_file=CSV_IN, outdir="run", truth_file=CSV_IN),
         ("eta_file", "outdir", "truth_file")),
    Door("ControlSetSpec-box", ControlSetSpec, dict(kind="box", lo=-1.0, hi=1.0),
         ("kind", "lo", "hi", "radius")),
    Door("ControlSetSpec-ball", ControlSetSpec, dict(kind="ball", radius=1.0), ("radius",)),
    Door("OptimizerConfig", OptimizerConfig, dict(max_iters=5, grad_tol=0.1, multistart=1),
         ("max_iters", "grad_tol", "multistart")),
    Door("QuadraticCostSpec", QuadraticCostSpec, dict(h=H, h_jac=H_JAC, R=[[1.0]], S=[[1.0]]),
         ("R", "S")),
    Door("coordinate_observation", coordinate_observation, dict(indices=[0, 2], state_dim=3),
         ("indices", "state_dim")),
    Door("ModelSpec", ModelSpec, dict(f=LQ.model.f, G=[[1.0]], D2f=LQ.model.D2f), ("G",)),
    Door("linear_model", linear_model, dict(A=[[-1.0]], B=[[1.0]]), ("A", "B")),
    Door("lorenz63_model", lorenz63_model, dict(sigma=10.0, r=28.0, b=2.5), ("sigma", "r", "b")),
    Door("lorenz96_model", lorenz96_model, dict(n=4, forcing=8.0), ("n", "forcing")),
    Door("integrate_state", integrate_state, dict(model=LQ.model, u=U, xi=[1.0], grid=GRID),
         ("xi",)),
    Door("minimize", minimize,
         dict(problem=LQ, xi=[1.0], u0=U, config=OptimizerConfig(max_iters=3)), ("xi",)),
    Door("minimize_batch", minimize_batch,
         dict(problem=LQ, starts=[([1.0], U)], config=OptimizerConfig(max_iters=3)),
         ("starts",)),
    Door("shoot", shoot, dict(problem=LQ, xi=[1.0]), ("xi",)),
    Door("shoot_batch", shoot_batch, dict(problem=LQ, starts=[[1.0], [0.5]]), ("starts",)),
    Door("hamiltonian_sweep", hamiltonian_sweep, dict(problem=LQ, xi=[1.0], lambda0=[0.0]),
         ("xi", "lambda0")),
    Door("value_probe", value_probe, dict(problem=LQ, xi=[0.8], h=1e-3, solver="shoot"),
         ("xi", "h", "solver")),
    Door("duality_check", duality_check,
         dict(M=np.zeros((5, 1, 1)), a=PATH, b=PATH, zeta0=[1.0], lambdaT=[0.5]),
         ("M", "zeta0", "lambdaT")),
    Door("p_variation", p_variation, dict(path=PATH, p=2.0), ("p",)),
    Door("p_variation_bruteforce", p_variation_bruteforce, dict(path=PATH, p=2.0), ("p",)),
    Door("young_integral", young_integral, dict(x=PATH, y=PATH, tag="left"), ("tag",)),
    Door("young_bound_check", young_bound_check, dict(x=PATH, y=PATH, p=1.5, q=1.5),
         ("p", "q")),
    Door("wiener_rng", wiener_rng, dict(seed=0, stream=0), ("seed", "stream")),
    Door("sample_wiener", sample_wiener, dict(grid=GRID, dim=1, seed=0, stream=0),
         ("dim", "seed", "stream")),
    Door("build_observation", build_observation, dict(zeta=PATH, noise_scale=0.1, seed=0),
         ("noise_scale", "seed")),
]

_LIBRARY_OBJECTS = "takes only library objects"
_EXCEPTION = "an exception class"
#: Exported callables outside the table, each with the reason.
EXEMPT = {
    "AssimilationProblem": f"{_LIBRARY_OBJECTS}: a model, a cost, a path and a control set",
    "AssimilationResult": "a record of library objects that the solvers build",
    "OptimalTriple": "a record of three paths, which it checks to share a grid",
    "CostSpec": "a record of the cost's callables, which nothing can check without calling",
    "build_minimum_energy": _LIBRARY_OBJECTS,
    "build_onsager_machlup": _LIBRARY_OBJECTS,
    "control_gradient": _LIBRARY_OBJECTS,
    "eval_cost": _LIBRARY_OBJECTS,
    "eval_cost_by_parts": _LIBRARY_OBJECTS,
    "max_principle_residual": _LIBRARY_OBJECTS,
    "oscillation": _LIBRARY_OBJECTS,
    "require_same_grid": _LIBRARY_OBJECTS,
    "solve_costate": _LIBRARY_OBJECTS,
    "hamiltonian": "a pointwise evaluator, like the model's callables: hamiltonian_sweep "
                   "calls it on its own node arrays at every step",
    "pointwise_hamiltonian_minimizer": "a pointwise evaluator, like the model's callables: "
                                       "max_principle_residual calls it on its node arrays",
    "BlowUpError": _EXCEPTION,
    "InvalidSpecError": _EXCEPTION,
    "NoConvergenceError": _EXCEPTION,
    "RoughAssimError": _EXCEPTION,
}

#: The malformed values every value position receives.
MALFORMED = {
    "None": None,
    "True": True,
    "nan": np.nan,
    "inf": np.inf,
    "-inf": -np.inf,
    "-1": -1,
    "0": 0,
    "2.5": 2.5,
    "str": "3",
    "nul": "a\x00b",
    "ragged": [[1.0], [1.0, 2.0]],
    "rank-4": np.ones((2, 2, 2, 2)),
    "object": object(),
    "()": (),
    "1e400": 10**400,
    "-0.0": -0.0,
}


@pytest.fixture
def in_tmp_dir(tmp_path, monkeypatch):
    """Run in an empty directory holding the file doors' input path."""
    monkeypatch.chdir(tmp_path)
    write_path_csv(PATH, CSV_IN)


def _untyped(door, position, value):
    """The exception a call with ``value`` at ``position`` raises if it is not
    a :class:`RoughAssimError`, else None."""
    try:
        door.fn(**{**door.valid, position: value})
    except RoughAssimError:
        pass
    except Exception as err:  # what is caught is the finding
        return err
    return None


@pytest.mark.parametrize("door", DOORS, ids=[door.name for door in DOORS])
def test_malformed_values_raise_typed_errors(in_tmp_dir, door):
    door.fn(**door.valid)
    untyped = {
        (position, label): repr(err)
        for position in door.positions
        for label, value in MALFORMED.items()
        if (err := _untyped(door, position, value)) is not None
    }
    assert untyped == {}


POSITIONS = [(door, position) for door in DOORS for position in door.positions]
ANY_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.one_of(st.integers(-3, 3), st.floats(), st.text(max_size=2)), max_size=3),
    st.lists(st.lists(st.floats(), max_size=3), max_size=3),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=4, max_side=3)),
)


@pytest.fixture(scope="module")
def door_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("doors")
    write_path_csv(PATH, path / CSV_IN)
    return path


@settings(deadline=None, derandomize=True)
@given(st.sampled_from(POSITIONS), ANY_VALUE)
def test_any_value_at_any_door_is_typed(door_dir, door_position, value):
    door, position = door_position
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(door_dir)
        err = _untyped(door, position, value)
    assert err is None, f"{door.name}({position}={value!r}) raised {err!r}"


@pytest.mark.parametrize("door", [
    pytest.param(lambda fd: read_path_csv(fd), id="read_path_csv"),
    pytest.param(lambda fd: write_path_csv(PATH, fd), id="write_path_csv"),
    pytest.param(lambda fd: load_config(fd), id="load_config"),
])
def test_file_doors_refuse_a_descriptor(tmp_path, door):
    # open() takes an integer as a descriptor: a file door that passed one
    # on would write to it, or read from it, and then close it.
    fd = os.open(tmp_path / "scratch.csv", os.O_RDWR | os.O_CREAT)
    try:
        with pytest.raises(InvalidSpecError, match="path"):
            door(fd)
        os.fstat(fd)  # still open
        assert os.read(fd, 1) == b""
    finally:
        os.close(fd)
