"""Time grids, sampled paths, and the CSV path format.

A :class:`SampledPath` stores values of a vector- (or matrix-) valued
function at the nodes of a uniform :class:`TimeGrid`.  Paths are immutable
after construction; every operation in the package consumes and produces
paths without mutating them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InvalidParameterError

#: Relative tolerance used when validating uniform node spacing on read.
SPACING_RTOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] with ``n_steps`` intervals."""

    T: float
    n_steps: int

    def __post_init__(self):
        if not (0.0 < self.T < np.inf):
            raise InvalidParameterError(f"horizon must be positive and finite, got T={self.T}")
        if int(self.n_steps) != self.n_steps or self.n_steps < 1:
            raise InvalidParameterError(f"n_steps must be a positive integer, got {self.n_steps}")
        object.__setattr__(self, "n_steps", int(self.n_steps))

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
        """Same number of steps and a horizon equal within ``SPACING_RTOL``."""
        return self.n_steps == other.n_steps and bool(
            np.isclose(other.T, self.T, rtol=SPACING_RTOL)
        )


class SampledPath:
    """Values of a function at the nodes of a uniform grid.

    ``values`` has shape ``(n_nodes, *dim)`` where ``dim`` is ``(d,)`` for a
    d-vector valued path and ``(r, c)`` for a matrix-valued one.  The array
    is copied and frozen on construction.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: TimeGrid, values):
        values = np.array(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != grid.n_nodes:
            raise InvalidParameterError(
                f"expected {grid.n_nodes} rows of values, got {values.shape[0]}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidParameterError("path values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("SampledPath is immutable")

    @property
    def dim(self):
        """Value dimension: an int for vectors, a tuple for matrices."""
        shape = self.values.shape[1:]
        return shape[0] if len(shape) == 1 else shape

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def increments(self) -> np.ndarray:
        """Forward differences ``values[i+1] - values[i]``, shape (n_steps, *dim)."""
        return np.diff(self.values, axis=0)

    def __len__(self):
        return self.values.shape[0]

    @classmethod
    def zeros(cls, grid: TimeGrid, dim) -> "SampledPath":
        shape = (dim,) if np.isscalar(dim) else tuple(dim)
        return cls(grid, np.zeros((grid.n_nodes, *shape)))

    @classmethod
    def from_function(cls, grid: TimeGrid, fn) -> "SampledPath":
        """Sample ``fn(t)`` at every grid node."""
        vals = np.array([np.atleast_1d(np.asarray(fn(t), dtype=float)) for t in grid.times])
        return cls(grid, vals)

    def restrict(self, stride: int) -> "SampledPath":
        """Keep every ``stride``-th node (nested coarsening of the grid)."""
        if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
            raise InvalidParameterError(f"stride must be a positive integer, got {stride!r}")
        if self.grid.n_steps % stride != 0:
            raise InvalidParameterError("stride must divide n_steps")
        coarse = TimeGrid(self.grid.T, self.grid.n_steps // stride)
        return SampledPath(coarse, self.values[::stride])


# The benchmark's spelling of an observation path, which is the path itself:
# no solver reads a seed or a noise scale.  Delete it together with
# ``run_assimilation(jobs=)`` (ROADMAP item 1).
def ObservationPath(*, path: SampledPath, seed, noise_scale) -> SampledPath:
    return path


def require_same_grid(*paths):
    """Raise :class:`GridMismatchError` unless all paths share one grid."""
    g0 = paths[0].grid
    for p in paths[1:]:
        if not g0.matches(p.grid):
            raise GridMismatchError(f"grids differ: {g0} vs {p.grid}")
    return g0


def _format_float(x: float) -> str:
    # repr of a Python float is the shortest string that round-trips in IEEE-754.
    return repr(float(x))


def write_path_csv(path: SampledPath, filename) -> None:
    """Write a vector-valued path as ``t,v0,...,v{d-1}`` rows."""
    values = path.values
    if values.ndim != 2:
        raise InvalidParameterError("only vector-valued paths can be written as CSV")
    d = values.shape[1]
    header = "t," + ",".join(f"v{k}" for k in range(d))
    lines = [header]
    for t, row in zip(path.times, values):
        lines.append(",".join([_format_float(t)] + [_format_float(v) for v in row]))
    with open(filename, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_path_csv(filename) -> SampledPath:
    """Read a path written by :func:`write_path_csv`, validating uniform spacing."""
    try:
        with warnings.catch_warnings():
            # An empty file fails the node-count check below, not as a warning.
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(filename, delimiter=",", skiprows=1, ndmin=2, encoding="utf-8")
    except (OSError, ValueError) as err:
        raise InvalidParameterError(f"unreadable path file: {err}") from err
    times, values = data[:, 0], data[:, 1:]
    if len(times) < 2:
        raise InvalidParameterError("path file must contain at least two nodes")
    dts = np.diff(times)
    dt = dts[0]
    if dt <= 0 or not np.allclose(dts, dt, rtol=SPACING_RTOL, atol=0.0):
        raise InvalidParameterError("node times are not uniformly spaced")
    if abs(times[0]) > SPACING_RTOL * abs(times[-1]):
        raise InvalidParameterError("path must start at t = 0")
    grid = TimeGrid(float(times[-1]), len(times) - 1)
    return SampledPath(grid, values)
