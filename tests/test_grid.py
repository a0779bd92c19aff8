import numpy as np
import pytest

from roughassim.errors import GridMismatchError, InvalidParameterError
from roughassim.grid import (
    SampledPath,
    TimeGrid,
    read_path_csv,
    require_same_grid,
    write_path_csv,
)


def test_grid_basic_properties():
    g = TimeGrid(2.0, 8)
    assert g.dt == pytest.approx(0.25)
    assert g.n_nodes == 9
    assert np.allclose(g.times, np.linspace(0.0, 2.0, 9))


@pytest.mark.parametrize("bad", [dict(T=0.0, n_steps=4), dict(T=-1.0, n_steps=4),
                                 dict(T=1.0, n_steps=0)])
def test_grid_rejects_bad_parameters(bad):
    with pytest.raises(InvalidParameterError):
        TimeGrid(**bad)


def test_integral_float_n_steps_stored_as_int():
    g = TimeGrid(1.0, 8.0)
    assert type(g.n_steps) is int and g == TimeGrid(1.0, 8)
    assert SampledPath.zeros(g, 1).values.shape == (9, 1)


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
    with pytest.raises(InvalidParameterError):
        SampledPath(g, np.zeros(5))
    with pytest.raises(InvalidParameterError):
        SampledPath(g, [0.0, np.nan, 1.0, 2.0])


def test_increments_and_restrict():
    g = TimeGrid(1.0, 4)
    p = SampledPath(g, [0.0, 1.0, 3.0, 6.0, 10.0])
    assert np.allclose(p.increments()[:, 0], [1.0, 2.0, 3.0, 4.0])
    coarse = p.restrict(2)
    assert coarse.grid.n_steps == 2
    assert np.allclose(coarse.values[:, 0], [0.0, 3.0, 10.0])
    for stride in (3, 0, -2, 2.0, True):
        with pytest.raises(InvalidParameterError):
            p.restrict(stride)


def test_require_same_grid():
    a = SampledPath.zeros(TimeGrid(1.0, 4), 1)
    b = SampledPath.zeros(TimeGrid(1.0, 4), 2)
    c = SampledPath.zeros(TimeGrid(1.0, 5), 1)
    assert require_same_grid(a, b).n_steps == 4
    with pytest.raises(GridMismatchError):
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


def test_csv_rejects_nonuniform_spacing(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("t,v0\n0.0,1.0\n0.1,2.0\n0.3,3.0\n")
    with pytest.raises(InvalidParameterError):
        read_path_csv(f)
