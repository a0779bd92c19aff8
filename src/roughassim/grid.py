"""Time grids, sampled paths, and the CSV path format.

A :class:`SampledPath` stores the values of a d-vector valued function at
the nodes of a uniform :class:`TimeGrid`.  Paths are immutable after
construction; every operation in the package consumes and produces
paths without mutating them.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import InvalidSpecError

#: Relative tolerance used when validating uniform node spacing on read.
SPACING_RTOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] with ``n_steps`` intervals."""

    T: float
    n_steps: int

    def __post_init__(self):
        object.__setattr__(self, "T", _positive_number(self.T, "T"))
        object.__setattr__(self, "n_steps", _positive_count(self.n_steps, "n_steps"))

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_nodes)

    def matches(self, other: "TimeGrid") -> bool:
        """Same number of steps and a horizon equal within ``SPACING_RTOL``
        of this one's, a purely relative rule however small the horizon."""
        return self.n_steps == other.n_steps and abs(other.T - self.T) <= SPACING_RTOL * self.T


def _number(value, label: str) -> float:
    """``value`` as a float: the one rule for a real scalar, which each door
    follows with a range rule below or its own.  A boolean, a string or an
    integer beyond the float range raises :class:`InvalidSpecError`."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InvalidSpecError(f"{label} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise InvalidSpecError(f"{label} is beyond the float range") from None


def _count(value, label: str) -> int:
    """``value`` as an int: the one rule for a count (a size, an index, a
    seed), which each door follows with a range rule below or its own.  A
    Python or numpy integer passes; a boolean, a float (8.0 too), a string
    or an integer beyond the float range raises :class:`InvalidSpecError`."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InvalidSpecError(f"{label} must be an integer, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise InvalidSpecError(f"{label} must be an integer within the float range") from None
    return int(value)


def _positive_count(value, label: str) -> int:
    """The positive-count rule: a count of at least 1."""
    k = _count(value, label)
    if k < 1:
        raise InvalidSpecError(f"{label} must be a positive integer, got {k}")
    return k


def _positive_number(value, label: str) -> float:
    """The positive-number rule: a number in (0, inf)."""
    x = _number(value, label)
    if not 0.0 < x < np.inf:  # NaN fails too
        raise InvalidSpecError(f"{label} must be positive and finite, got {x}")
    return x


def _exponent(value, label: str) -> float:
    """The p-variation exponent rule: a number in [1, inf)."""
    x = _number(value, label)
    if not 1.0 <= x < np.inf:  # NaN fails too
        raise InvalidSpecError(f"{label} must be in [1, inf), got {x}")
    return x


def _noise_scale(value) -> float:
    """The noise-scale rule: a number in [0, inf)."""
    x = _number(value, "noise_scale")
    if not 0.0 <= x < np.inf:  # NaN fails too
        raise InvalidSpecError(f"noise_scale must be finite and nonnegative, got {x}")
    return x


def _seed(value, label: str) -> int:
    """The seed rule: a count in [0, 2**64).  The Philox key is seed +
    stream * 2**64, so a larger seed or stream would draw another's numbers."""
    k = _count(value, label)
    if not 0 <= k < 1 << 64:
        raise InvalidSpecError(f"{label} must be in [0, 2**64), got {k}")
    return k


def frozen_array(values, label: str) -> np.ndarray:
    """A read-only float copy of ``values``: the one rule for an array, which
    each door follows with its own shape and range checks.  An integer or
    float ndarray passes as it is; anything else passes only if each entry is
    a number by :func:`_number`, so a boolean or a string anywhere in it, or
    a ragged nesting, raises :class:`InvalidSpecError`."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        try:
            entries = np.asarray(values, dtype=object)
        except ValueError as err:  # nested arrays of unequal shapes
            raise InvalidSpecError(f"{label} must be a rectangular array of numbers") from err
        # Entry by entry: numpy reads a boolean among numbers as 1.0.
        values = np.array([_number(v, f"{label} entry") for v in entries.flat])
        values = values.reshape(entries.shape)
    out = values.astype(float)
    out.flags.writeable = False
    return out


def frozen_matrix(values, label: str, square: bool = False) -> np.ndarray:
    """:func:`frozen_array` for a nonempty 2-D matrix of finite numbers,
    square if asked: anything else, a callable included, raises
    :class:`InvalidSpecError`."""
    kind = "square" if square else "2-D"
    message = f"{label} must be a nonempty {kind} matrix of finite numbers"
    try:
        M = frozen_array(values, label)
    except InvalidSpecError:  # a callable, a string, a ragged list
        raise InvalidSpecError(message) from None
    rows, cols = M.shape if M.ndim == 2 else (0, 0)
    if not (rows and cols and (rows == cols or not square) and np.all(np.isfinite(M))):
        raise InvalidSpecError(f"{message}: shape {M.shape}")
    return M


class SampledPath:
    """Values of a d-vector valued function at the nodes of a uniform grid.

    ``values`` has shape ``(n_nodes, d)`` with d >= 1: 1-D values are a path
    with d = 1, and any other number of axes is rejected.  The array is
    copied and frozen on construction.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: TimeGrid, values):
        values = frozen_array(values, "path values")
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[1] == 0:
            raise InvalidSpecError(f"path values must be (n_nodes, d >= 1): {values.shape}")
        if values.shape[0] != grid.n_nodes:
            raise InvalidSpecError(f"expected {grid.n_nodes} rows of values, got {values.shape[0]}")
        if not np.all(np.isfinite(values)):
            raise InvalidSpecError("path values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("SampledPath is immutable")

    @property
    def dim(self) -> int:
        """Number of components d."""
        return self.values.shape[1]

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def increments(self) -> np.ndarray:
        """Forward differences ``values[i+1] - values[i]``, shape (n_steps, d)."""
        return np.diff(self.values, axis=0)

    def __len__(self):
        return self.values.shape[0]

    @classmethod
    def zeros(cls, grid: TimeGrid, d: int) -> "SampledPath":
        return cls(grid, np.zeros((grid.n_nodes, _positive_count(d, "d"))))

    def restrict(self, stride: int) -> "SampledPath":
        """Keep every ``stride``-th node (nested coarsening of the grid)."""
        stride = _positive_count(stride, "stride")
        if self.grid.n_steps % stride != 0:
            raise InvalidSpecError("stride must divide n_steps")
        coarse = TimeGrid(self.grid.T, self.grid.n_steps // stride)
        return SampledPath(coarse, self.values[::stride])


# The benchmark's spelling of an observation path, which is the path itself:
# no solver reads a seed or a noise scale.  Delete it together with
# ``run_assimilation(jobs=)`` (ROADMAP item 1).
def ObservationPath(*, path: SampledPath, seed, noise_scale) -> SampledPath:
    return path


def require_same_grid(*paths):
    """Raise :class:`InvalidSpecError` unless all paths share one grid."""
    g0 = paths[0].grid
    for p in paths[1:]:
        if not g0.matches(p.grid):
            raise InvalidSpecError(f"grids differ: {g0} vs {p.grid}")
    return g0


def write_path_csv(path: SampledPath, filename: str | os.PathLike) -> None:
    """Write a path as ``t,v0,...,v{d-1}`` rows to the file ``filename`` names;
    an unwritable file is an invalid input, and so is anything but a path."""
    if not isinstance(filename, (str, os.PathLike)):
        raise InvalidSpecError(f"a path file is named by a path, got {filename!r}")
    header = "t," + ",".join(f"v{k}" for k in range(path.dim))
    # repr of a Python float is the shortest string that round-trips in IEEE-754.
    rows = np.column_stack([path.times, path.values]).tolist()
    lines = [header] + [",".join(map(repr, row)) for row in rows]
    try:
        with open(filename, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except (OSError, ValueError) as err:  # ValueError: a NUL in the name
        raise InvalidSpecError(f"cannot write path file: {err}") from err


def read_path_csv(filename: str | os.PathLike) -> SampledPath:
    """Read a path written by :func:`write_path_csv` from the file ``filename``
    names, validating uniform spacing; anything but a path is an invalid input."""
    if not isinstance(filename, (str, os.PathLike)):
        raise InvalidSpecError(f"a path file is named by a path, got {filename!r}")
    try:
        with warnings.catch_warnings():
            # An empty file fails the node-count check below, not as a warning.
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(filename, delimiter=",", skiprows=1, ndmin=2, encoding="utf-8")
    except (OSError, ValueError) as err:
        raise InvalidSpecError(f"unreadable path file: {err}") from err
    times, values = data[:, 0], data[:, 1:]
    if len(times) < 2:
        raise InvalidSpecError("path file must contain at least two nodes")
    dts = np.diff(times)
    dt = dts[0]
    if dt <= 0 or not np.allclose(dts, dt, rtol=SPACING_RTOL, atol=0.0):
        raise InvalidSpecError("node times are not uniformly spaced")
    if abs(times[0]) > SPACING_RTOL * abs(times[-1]):
        raise InvalidSpecError("path must start at t = 0")
    grid = TimeGrid(float(times[-1]), len(times) - 1)
    return SampledPath(grid, values)
