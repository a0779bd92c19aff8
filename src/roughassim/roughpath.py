"""Sampled-path calculus: p-variation, Young sums, and Wiener sampling.

The p-variation is the supremum over dissections of the sum of
|increment|^p, raised to 1/p.  For sampled data the supremum is taken over
dissections through grid nodes only, computed exactly by an O(N^2) dynamic
program.  Young integrals are evaluated as tagged Riemann sums; the left
tag is the canonical evaluator used by every other module.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import InvalidParameterError
from .grid import ObservationPath, SampledPath, TimeGrid, require_same_grid

#: Default node cap for the O(N^2) variation dynamic program.
MAX_PVAR_NODES = 4097


def _node_matrix(path: SampledPath) -> np.ndarray:
    """Node values flattened to shape (n_nodes, prod(dim))."""
    v = path.values
    return v.reshape(v.shape[0], -1)


def _max_dissection_sum(values: np.ndarray, p: float) -> float:
    """Max over grid dissections of sum |increment|^p (the 1/p root not taken).

    best[j] is the largest sum over dissections of nodes 0..j ending at j.
    """
    n = values.shape[0]
    if n < 2:
        return 0.0
    best = np.zeros(n)
    for j in range(1, n):
        dist = np.linalg.norm(values[:j] - values[j], axis=1)
        best[j] = np.max(best[:j] + dist**p)
    return float(best[n - 1])


def p_variation(path: SampledPath, p: float, *, max_nodes: int = MAX_PVAR_NODES) -> float:
    """Exact grid p-variation of a path, Euclidean norm on increments.

    O(N^2) in the number of nodes; refuses paths with more than
    ``max_nodes`` nodes to keep the diagnostic affordable.
    """
    if not 1 <= p < np.inf:  # NaN fails too
        raise InvalidParameterError(f"p-variation requires 1 <= p < inf, got p={p}")
    values = _node_matrix(path)
    if values.shape[0] > max_nodes:
        raise InvalidParameterError(
            f"path has {values.shape[0]} nodes, above the cap of {max_nodes}; "
            "pass max_nodes explicitly to override"
        )
    return _max_dissection_sum(values, float(p)) ** (1.0 / p)


def p_variation_bruteforce(path: SampledPath, p: float) -> float:
    """Exhaustive enumeration of all grid dissections (oracle, N <= 22 nodes)."""
    if not 1 <= p < np.inf:  # NaN fails too
        raise InvalidParameterError(f"p-variation requires 1 <= p < inf, got p={p}")
    values = _node_matrix(path)
    n = values.shape[0]
    if n < 2:
        return 0.0
    if n > 22:
        raise InvalidParameterError("brute force is exponential; use p_variation")
    interior = range(1, n - 1)
    best = 0.0
    for k in range(len(interior) + 1):
        for subset in combinations(interior, k):
            nodes = values[[0, *subset, n - 1]]
            s = float(np.sum(np.linalg.norm(np.diff(nodes, axis=0), axis=1) ** p))
            best = max(best, s)
    return best ** (1.0 / p)


def oscillation(path: SampledPath) -> float:
    """sup over node pairs of |y(t) - y(s)|."""
    values = _node_matrix(path)
    diffs = values[:, None, :] - values[None, :, :]
    return float(np.max(np.linalg.norm(diffs, axis=-1)))


def _apply_steps(xv: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Apply per-step integrand values xv to increments dy.

    Shapes: xv (N, ...) acting on dy (N, d); scalar, covector, and matrix
    integrands are supported.
    """
    if xv.ndim == 2 and xv.shape[1] == 1 and dy.shape[1] != 1:
        xv = xv[:, 0]
    if xv.ndim == 1:  # scalar integrand against vector increments
        return xv[:, None] * dy
    if xv.ndim == 2:  # covector rows against vector increments
        return np.einsum("nd,nd->n", xv, dy)
    if xv.ndim == 3:  # matrix L(V, W) against vector increments
        return np.einsum("nwd,nd->nw", xv, dy)
    raise InvalidParameterError(f"unsupported integrand shape {xv.shape}")


def young_integral(x: SampledPath, y: SampledPath, tag: str = "left", *, cumulative: bool = False):
    """Tagged Riemann sum  sum_i x(tau_i) (y(t_{i+1}) - y(t_i)).

    ``tag`` places tau_i at the left node, right node, or midpoint (the
    midpoint value is the average of the two endpoint samples, matching the
    piecewise-linear reading of the stored path).  With ``cumulative=True``
    the running integral is returned as a :class:`SampledPath` as well.
    """
    grid = require_same_grid(x, y)
    if tag not in ("left", "right", "midpoint"):
        raise InvalidParameterError(f"unknown tag {tag!r}")
    xv = x.values
    if tag == "left":
        xt = xv[:-1]
    elif tag == "right":
        xt = xv[1:]
    else:
        xt = 0.5 * (xv[:-1] + xv[1:])
    terms = _apply_steps(xt, y.increments())
    total = terms.sum(axis=0)
    total = float(total) if np.ndim(total) == 0 else total
    if not cumulative:
        return total
    running = np.concatenate([np.zeros((1, *np.shape(terms)[1:])), np.cumsum(terms, axis=0)])
    if running.ndim == 1:
        running = running[:, None]
    return total, SampledPath(grid, running)


def young_bound_check(x: SampledPath, y: SampledPath, p: float, q: float) -> dict:
    """Evaluate both sides of the Young-Loeve bound.

    lhs = |int x dy - x(0)(y(T)-y(0))|, rhs = (1 - 2^(1-theta))^-1
    Var_p(x) Var_q(y) with theta = 1/p + 1/q; the caller asserts lhs <= rhs.
    """
    theta = 1.0 / p + 1.0 / q
    if theta <= 1.0:
        raise InvalidParameterError(f"need 1/p + 1/q > 1, got theta={theta}")
    require_same_grid(x, y)
    integral = young_integral(x, y, tag="left")
    x0 = x.values[0]
    dy = y.values[-1] - y.values[0]
    first_term = _apply_steps(x0[None], dy[None])[0]
    lhs = float(np.linalg.norm(np.atleast_1d(integral - first_term)))
    rhs = float(p_variation(x, p) * p_variation(y, q) / (1.0 - 2.0 ** (1.0 - theta)))
    return {"lhs": lhs, "rhs": rhs}


def wiener_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator (Philox) keyed by (seed, stream).

    Streams with distinct indices are statistically independent, which is
    how replicate ensembles split randomness.  Gaussians come from numpy's
    ziggurat transform; cross-run determinism is what matters here, and the
    generator is pinned by (seed, stream) alone.
    """
    key = int(seed) + (int(stream) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_wiener(grid: TimeGrid, dim: int, seed: int, stream: int = 0) -> SampledPath:
    """Standard Wiener sample on the grid: W(0)=0, Gaussian increments of variance dt."""
    rng = wiener_rng(seed, stream)
    dW = rng.normal(0.0, np.sqrt(grid.dt), size=(grid.n_steps, dim))
    values = np.vstack([np.zeros((1, dim)), np.cumsum(dW, axis=0)])
    return SampledPath(grid, values)


def build_observation(zeta: SampledPath, noise_scale: float, seed: int) -> ObservationPath:
    """Observation path eta(t_i) = zeta(t_i) + noise_scale * W(t_i), W on stream 0."""
    if noise_scale < 0:
        raise InvalidParameterError("noise_scale must be nonnegative")
    d = zeta.values.shape[1]
    w = sample_wiener(zeta.grid, d, seed)
    eta = SampledPath(zeta.grid, zeta.values + noise_scale * w.values)
    return ObservationPath(path=eta, seed=seed, noise_scale=noise_scale)
