import numpy as np
import pytest

from roughassim.cost import QuadraticCostSpec, coordinate_observation
from roughassim.dynamics import initial_state, linear_model, lorenz63_model, lorenz96_model
from roughassim.errors import InvalidSpecError
from roughassim.grid import (
    SampledPath,
    TimeGrid,
    read_path_csv,
    require_same_grid,
    write_path_csv,
)
from roughassim.optimizer import OptimizerConfig
from roughassim.problem import ControlSetSpec
from roughassim.roughpath import (
    build_observation,
    p_variation,
    p_variation_bruteforce,
    sample_wiener,
    wiener_rng,
)
from roughassim.shooting import value_probe

from conftest import scalar_lq


def test_grid_basic_properties():
    g = TimeGrid(2.0, 8)
    assert g.dt == pytest.approx(0.25)
    assert g.n_nodes == 9
    assert np.allclose(g.times, np.linspace(0.0, 2.0, 9))


@pytest.mark.parametrize("bad", [dict(T=0.0, n_steps=4), dict(T=-1.0, n_steps=4),
                                 dict(T=1.0, n_steps=0), dict(T=1.0, n_steps=True),
                                 dict(T=1.0, n_steps=np.True_), dict(T=1.0, n_steps=None),
                                 dict(T=1.0, n_steps=[4]), dict(T=1.0, n_steps="4"),
                                 dict(T=1.0, n_steps=np.nan), dict(T=1.0, n_steps=np.inf)])
def test_grid_rejects_bad_parameters(bad):
    # A count that is no integer is malformed, as a T that is no number is,
    # and an integer count below 1 is out of range: each is an invalid input.
    with pytest.raises(InvalidSpecError):
        TimeGrid(**bad)


def test_path_is_immutable_and_copies_input():
    g = TimeGrid(1.0, 3)
    raw = np.arange(8.0).reshape(4, 2)
    p = SampledPath(g, raw)
    raw[0, 0] = 99.0
    assert p.values[0, 0] == 0.0
    with pytest.raises(ValueError):
        p.values[0, 0] = 1.0
    with pytest.raises(AttributeError):
        p.values = None


def test_path_promotes_1d_and_validates():
    g = TimeGrid(1.0, 3)
    p = SampledPath(g, [0.0, 1.0, 2.0, 3.0])
    assert p.dim == 1
    assert p.values.shape == (4, 1)
    with pytest.raises(InvalidSpecError):
        SampledPath(g, np.zeros(5))
    with pytest.raises(InvalidSpecError):
        SampledPath(g, [0.0, np.nan, 1.0, 2.0])


@pytest.mark.parametrize("shape", [(4, 2, 2), (4, 1, 3), (), (4, 0)])
def test_path_is_n_nodes_by_d(shape):
    with pytest.raises(InvalidSpecError):
        SampledPath(TimeGrid(1.0, 3), np.zeros(shape))


def test_increments_and_restrict():
    g = TimeGrid(1.0, 4)
    p = SampledPath(g, [0.0, 1.0, 3.0, 6.0, 10.0])
    assert np.allclose(p.increments()[:, 0], [1.0, 2.0, 3.0, 4.0])
    coarse = p.restrict(2)
    assert coarse.grid.n_steps == 2
    assert np.allclose(coarse.values[:, 0], [0.0, 3.0, 10.0])
    for stride in (3, 0, -2):
        with pytest.raises(InvalidSpecError):
            p.restrict(stride)
    for stride in (2.0, True):
        with pytest.raises(InvalidSpecError):
            p.restrict(stride)


def test_require_same_grid():
    a = SampledPath.zeros(TimeGrid(1.0, 4), 1)
    b = SampledPath.zeros(TimeGrid(1.0, 4), 2)
    c = SampledPath.zeros(TimeGrid(1.0, 5), 1)
    assert require_same_grid(a, b).n_steps == 4
    with pytest.raises(InvalidSpecError):
        require_same_grid(a, c)


def test_csv_roundtrip_is_exact(tmp_path):
    g = TimeGrid(1.0, 7)
    rng = np.random.default_rng(0)
    p = SampledPath(g, rng.normal(size=(8, 3)))
    f = tmp_path / "path.csv"
    write_path_csv(p, f)
    back = read_path_csv(f)
    assert back.grid.n_steps == 7
    assert np.array_equal(back.values, p.values)  # bitwise, via repr round-trip
    assert f.read_text().splitlines()[0] == "t,v0,v1,v2"


def test_grids_match_by_a_relative_rule():
    # np.isclose's default atol of 1e-8 matched any two horizons below it.
    small, other = TimeGrid(1e-9, 4), TimeGrid(5e-9, 4)
    assert not small.matches(other) and not other.matches(small)
    with pytest.raises(InvalidSpecError):
        require_same_grid(SampledPath.zeros(small, 1), SampledPath.zeros(other, 1))
    assert small.matches(TimeGrid(1e-9 * (1.0 + 1e-12), 4))
    assert TimeGrid(1.0, 4).matches(TimeGrid(1.0 + 1e-10, 4))
    assert not TimeGrid(1.0, 4).matches(TimeGrid(1.0 + 1e-8, 4))


def test_csv_writes_each_value_as_its_repr(tmp_path):
    # repr of a Python float is the shortest string that round-trips; the
    # file holds exactly that, value by value, on signed zeros, subnormals
    # and the extremes of the float range.
    g = TimeGrid(3.0, 5)
    values = np.array([[0.0, -0.0, 5e-324], [-5e-324, 1e-310, -2.2e-308],
                       [1e300, -1e300, 1e-300], [-1e-300, 0.1, -1.0 / 3.0],
                       [1.7976931348623157e308, -1.7976931348623157e308, 123456789.0],
                       [1.5e-323, 1e16, -1e-5]])
    f = tmp_path / "p.csv"
    write_path_csv(SampledPath(g, values), f)
    rows = [",".join(repr(float(v)) for v in (t, *row)) for t, row in zip(g.times, values)]
    assert f.read_text() == "\n".join(["t,v0,v1,v2"] + rows) + "\n"
    assert read_path_csv(f).values.tobytes() == values.tobytes()


def test_csv_rejects_nonuniform_spacing(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("t,v0\n0.0,1.0\n0.1,2.0\n0.3,3.0\n")
    with pytest.raises(InvalidSpecError):
        read_path_csv(f)


def test_csv_of_times_alone_rejected(tmp_path):
    # A path has at least one component, so a file with no value column is
    # no path.
    f = tmp_path / "times.csv"
    f.write_text("t\n0.0\n0.5\n1.0\n")
    with pytest.raises(InvalidSpecError, match="d >= 1"):
        read_path_csv(f)


def test_csv_reader_takes_a_path_not_lines():
    with pytest.raises(InvalidSpecError, match="named by a path"):
        read_path_csv(["t,v0", "0.0,1.0", "1.0,2.0"])



PATH = SampledPath(TimeGrid(1.0, 4), [0.0, 1.0, 0.0, 1.0, 0.0])

# Every library door that takes a real scalar, as a function of that scalar.
REAL_NUMBER_DOORS = {
    "TimeGrid-T": lambda v: TimeGrid(v, 4),
    "ControlSetSpec-radius": lambda v: ControlSetSpec(kind="ball", radius=v),
    "lorenz63_model-sigma": lambda v: lorenz63_model(sigma=v),
    "lorenz63_model-r": lambda v: lorenz63_model(r=v),
    "lorenz63_model-b": lambda v: lorenz63_model(b=v),
    "lorenz96_model-forcing": lambda v: lorenz96_model(8, forcing=v),
    "p_variation-p": lambda v: p_variation(PATH, v),
    "p_variation_bruteforce-p": lambda v: p_variation_bruteforce(PATH, v),
    "build_observation-noise_scale": lambda v: build_observation(PATH, v, 0),
    "OptimizerConfig-grad_tol": lambda v: OptimizerConfig(grad_tol=v),
    "value_probe-h": lambda v: value_probe(scalar_lq(TimeGrid(0.5, 16)), np.ones(1), h=v),
}


@pytest.mark.parametrize("value", [True, "1"])
@pytest.mark.parametrize("door", REAL_NUMBER_DOORS)
def test_real_scalars_are_numbers_at_every_door(door, value):
    # Without the rule a boolean reads as 1, a string fails in a comparison
    # with a TypeError, and grad_tol and h call a boolean not positive.
    with pytest.raises(InvalidSpecError, match="must be a number"):
        REAL_NUMBER_DOORS[door](value)


def test_noise_scale_must_be_finite():
    # Without the finite check a NaN passes the sign check and fails later
    # as a non-finite path.
    with pytest.raises(InvalidSpecError, match="noise_scale must be finite"):
        build_observation(PATH, np.nan, 0)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: linear_model([["1"]]), id="linear_model-A"),
    pytest.param(lambda: linear_model([[-1.0]], [[True]]), id="linear_model-B"),
    pytest.param(lambda: SampledPath(TimeGrid(1.0, 4), ["0", "1", "2", "3", "4"]),
                 id="SampledPath"),
    pytest.param(lambda: QuadraticCostSpec(*coordinate_observation([0], 1), R=[["1"]], S=[[1.0]]),
                 id="QuadraticCostSpec-R"),
    pytest.param(lambda: QuadraticCostSpec(*coordinate_observation([0], 1), R=[[1.0]], S=[[True]]),
                 id="QuadraticCostSpec-S"),
    pytest.param(lambda: ControlSetSpec(kind="box", lo=["-1"], hi=[1.0]), id="box-lo"),
    pytest.param(lambda: ControlSetSpec(kind="box", lo=[-1.0], hi=[True]), id="box-hi"),
    pytest.param(lambda: linear_model([[1.0], [1.0, 2.0]]), id="linear_model-ragged"),
    pytest.param(lambda: ControlSetSpec(kind="box", lo=[[-1.0], [1.0, 2.0]], hi=1.0),
                 id="box-ragged"),
    pytest.param(lambda: SampledPath(TimeGrid(1.0, 1), [[0.0], [1.0, 2.0]]),
                 id="SampledPath-ragged"),
    pytest.param(lambda: ControlSetSpec(kind="box", lo=[-1.0, True], hi=2.0),
                 id="box-lo-mixed-bool"),
    pytest.param(lambda: SampledPath(TimeGrid(1.0, 1), [[0.0], [True]]),
                 id="SampledPath-mixed-bool"),
    pytest.param(lambda: initial_state(lorenz63_model(), [1.0, True, 25.0]),
                 id="initial_state-mixed-bool"),
    pytest.param(lambda: linear_model([[-1.0, 0.0], [False, -1.0]]),
                 id="linear_model-mixed-bool"),
])
def test_library_arrays_hold_numbers(build):
    # Without the entry check each is converted to floats, a boolean among
    # numbers to 1.0 or 0.0, which the config parser never allows; a ragged
    # nesting fails in numpy with its own ValueError.
    with pytest.raises(InvalidSpecError):
        build()


# Every library door that takes a count, as a function of that count; each
# accepts 4.
COUNT_DOORS = {
    "TimeGrid-n_steps": lambda v: TimeGrid(1.0, v),
    "SampledPath.zeros-d": lambda v: SampledPath.zeros(TimeGrid(1.0, 4), v),
    "restrict-stride": lambda v: PATH.restrict(v),
    "lorenz96_model-n": lambda v: lorenz96_model(v),
    "OptimizerConfig-max_iters": lambda v: OptimizerConfig(max_iters=v),
    "OptimizerConfig-multistart": lambda v: OptimizerConfig(multistart=v),
    "wiener_rng-seed": lambda v: wiener_rng(v),
    "wiener_rng-stream": lambda v: wiener_rng(0, stream=v),
    "sample_wiener-dim": lambda v: sample_wiener(TimeGrid(1.0, 4), v, 0),
    "build_observation-seed": lambda v: build_observation(PATH, 0.1, v),
    "coordinate_observation-index": lambda v: coordinate_observation([v], 5),
    "coordinate_observation-state_dim": lambda v: coordinate_observation([0], v),
}


@pytest.mark.parametrize("value", [
    pytest.param(8.0, id="8.0"), pytest.param(2.5, id="2.5"), pytest.param(True, id="True"),
    pytest.param(np.True_, id="np.True_"), pytest.param(np.nan, id="nan"),
    pytest.param(np.inf, id="inf"), pytest.param("4", id="str"), pytest.param(None, id="None"),
    pytest.param([4], id="list"), pytest.param(10**400, id="1e400"),
])
@pytest.mark.parametrize("door", COUNT_DOORS)
def test_library_counts_are_integers(door, value):
    # Without the rule an integral float counts at some doors and not at
    # others, a seed is truncated (1.5 draws seed 1's stream), and a string
    # or a list fails with numpy's TypeError or IndexError.
    with pytest.raises(InvalidSpecError, match="must be an integer"):
        COUNT_DOORS[door](value)


@pytest.mark.parametrize("door", COUNT_DOORS)
def test_numpy_integer_counts_are_counts(door):
    COUNT_DOORS[door](np.int64(4))
