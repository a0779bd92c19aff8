"""Sampled-path calculus: p-variation, Young sums, and Wiener sampling.

The p-variation is the supremum over dissections of the sum of
|increment|^p, raised to 1/p.  For sampled data the supremum is taken over
dissections through grid nodes only, computed exactly by an O(N^2) dynamic
program (over the turning points alone for a scalar path and p > 1).  The
program, its brute-force oracle and the oscillation read their node
distances from one blocked kernel, :func:`_distances`.
Young integrals are evaluated as tagged Riemann sums with a left, right or
midpoint tag; the cost and the costate form their own left-tag sums against
the observation increments.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb

import numpy as np

from .errors import InvalidParameterError
from .grid import SampledPath, TimeGrid, require_same_grid

#: Node cap for the O(N^2) variation dynamic program.
MAX_PVAR_NODES = 4097

#: Rows of the variation dynamic program (and of the oscillation) filled per
#: distance block; a block holds PVAR_BLOCK x K distances for K nodes.
PVAR_BLOCK = 64


def _node_matrix(path: SampledPath) -> np.ndarray:
    """Node values flattened to shape (n_nodes, prod(dim))."""
    v = path.values
    return v.reshape(v.shape[0], -1)


def _distances(values: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """|v_j - v_i| for rows j in [lo, hi) against columns i < hi.

    Row j is bit for bit ``np.linalg.norm(values[:hi] - values[j], axis=1)``.
    """
    if values.shape[1] >= 8:
        # numpy sums 8 or more terms pairwise, so only norm's own reduce matches.
        return np.stack([np.linalg.norm(values[:hi] - values[j], axis=1) for j in range(lo, hi)])
    # Below 8 terms norm's reduce adds left to right, as these column sums do.
    sq = None
    for c in values.T:
        diff = c[None, :hi] - c[lo:hi, None]
        sq = diff * diff if sq is None else np.add(sq, diff * diff, out=sq)
    return np.sqrt(sq, out=sq)


def _turning_points(v: np.ndarray) -> np.ndarray:
    """Mask of the endpoints and the nodes where a scalar path stops being
    strictly monotone (a NaN neighbour counts as a turn)."""
    d = np.diff(v)
    up, down = d > 0, d < 0
    keep = np.ones(v.shape[0], dtype=bool)
    keep[1:-1] = ~((up[:-1] & up[1:]) | (down[:-1] & down[1:]))
    return keep


def _max_dissection_sum(values: np.ndarray, p: float) -> float:
    """Max over grid dissections of sum |increment|^p (the 1/p root not taken).

    best[j] is the largest sum over dissections of nodes 0..j ending at j.
    A scalar path with p > 1 first drops the nodes strictly inside its
    monotone runs: |y - a|^p + |b - y|^p is strictly convex in y, so an
    optimal dissection never stops there (Butkus and Norvaisa, Lith. Math.
    J. 58, 2018), and the program over the kept nodes adds the same terms
    in the same order.  At p = 1 dissections tie, and which one the float
    sums favour would change, so that case keeps every node.

    Rows are filled ``PVAR_BLOCK`` at a time from one block of terms: one
    max gives each row its best over the earlier blocks, and a sweep over
    the block adds the candidates from inside it.  Each candidate is the
    same sum best[i] + |v_j - v_i|^p, and max is exact, so best is bit for
    bit the row-by-row program's.
    """
    n = values.shape[0]
    if n < 2:
        return 0.0
    if values.shape[1] == 1 and p > 1:
        values = values[_turning_points(values[:, 0])]
        n = values.shape[0]
    best = np.zeros(n)
    for lo in range(1, n, PVAR_BLOCK):
        hi = min(lo + PVAR_BLOCK, n)
        terms = _distances(values, lo, hi) ** p
        reach = np.max(best[:lo] + terms[:, :lo], axis=1)
        inside = terms[:, lo:].T.copy()  # inside[k]: terms from node lo + k
        for k in range(hi - lo):
            best[lo + k] = reach[k]
            # Rows up to k are final already; what this writes there is unread.
            np.maximum(reach, inside[k] + reach[k], out=reach)
    return float(best[n - 1])


def p_variation(path: SampledPath, p: float) -> float:
    """Exact grid p-variation of a path, Euclidean norm on increments.

    O(K^2) time in the K nodes the dynamic program keeps: every node of a
    vector path or at p = 1, only the turning points of a scalar path
    with p > 1.  Memory is O(``PVAR_BLOCK`` * K): the program fills its
    rows a block at a time.  Refuses paths with more than
    ``MAX_PVAR_NODES`` nodes (counted before that reduction) to keep the
    diagnostic affordable.
    """
    if not 1 <= p < np.inf:  # NaN fails too
        raise InvalidParameterError(f"p-variation requires 1 <= p < inf, got p={p}")
    values = _node_matrix(path)
    if values.shape[0] > MAX_PVAR_NODES:
        raise InvalidParameterError(
            f"path has {values.shape[0]} nodes, above the cap of {MAX_PVAR_NODES}"
        )
    return _max_dissection_sum(values, float(p)) ** (1.0 / p)


def p_variation_bruteforce(path: SampledPath, p: float) -> float:
    """Exhaustive enumeration of all grid dissections (oracle, N <= 22 nodes).

    The n x n table of |increment|^p is built once; then, for each number
    k of interior nodes, the C(n - 2, k) dissections are one index array,
    their terms are gathered and each row is summed.  Shares only the
    distance kernel with :func:`p_variation`, not its dynamic program.
    """
    if not 1 <= p < np.inf:  # NaN fails too
        raise InvalidParameterError(f"p-variation requires 1 <= p < inf, got p={p}")
    values = _node_matrix(path)
    n = values.shape[0]
    if n < 2:
        return 0.0
    if n > 22:
        raise InvalidParameterError("brute force is exponential; use p_variation")
    terms = _distances(values, 0, n) ** p
    best = 0.0
    for k in range(n - 1):
        interior = chain.from_iterable(combinations(range(1, n - 1), k))
        count = comb(n - 2, k)
        nodes = np.fromiter(interior, dtype=np.intp, count=count * k).reshape(count, k)
        nodes = np.pad(nodes, ((0, 0), (1, 1)), constant_values=(0, n - 1))
        sums = np.sum(terms[nodes[:, 1:], nodes[:, :-1]], axis=1)
        best = max(best, float(np.max(sums)))
    return best ** (1.0 / p)


def oscillation(path: SampledPath) -> float:
    """sup over node pairs of |y(t) - y(s)|.

    Reads the distances ``PVAR_BLOCK`` rows at a time, so memory is
    O(``PVAR_BLOCK`` * n), never n^2.
    """
    values = _node_matrix(path)
    n = values.shape[0]
    blocks = range(0, n, PVAR_BLOCK)
    return float(max(np.max(_distances(values, lo, min(lo + PVAR_BLOCK, n))) for lo in blocks))


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


def young_integral(x: SampledPath, y: SampledPath, tag: str = "left"):
    """Tagged Riemann sum  sum_i x(tau_i) (y(t_{i+1}) - y(t_i)).

    ``tag`` places tau_i at the left node, right node, or midpoint (the
    midpoint value is the average of the two endpoint samples, matching the
    piecewise-linear reading of the stored path).
    """
    require_same_grid(x, y)
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
    return float(total) if np.ndim(total) == 0 else total


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
    generator is pinned by (seed, stream) alone.  The Philox key is
    seed + stream * 2**64 and must lie in [0, 2**128).
    """
    key = int(seed) + (int(stream) << 64)
    if not 0 <= key < 1 << 128:
        raise InvalidParameterError(
            f"seed {seed} with stream {stream} gives a generator key outside [0, 2**128)"
        )
    return np.random.Generator(np.random.Philox(key=key))


def sample_wiener(grid: TimeGrid, dim: int, seed: int, stream: int = 0) -> SampledPath:
    """Standard Wiener sample on the grid: W(0)=0, Gaussian increments of variance dt."""
    rng = wiener_rng(seed, stream)
    dW = rng.normal(0.0, np.sqrt(grid.dt), size=(grid.n_steps, dim))
    values = np.vstack([np.zeros((1, dim)), np.cumsum(dW, axis=0)])
    return SampledPath(grid, values)


def build_observation(zeta: SampledPath, noise_scale: float, seed: int) -> SampledPath:
    """Observation path eta(t_i) = zeta(t_i) + noise_scale * W(t_i), W on stream 0."""
    if noise_scale < 0:
        raise InvalidParameterError("noise_scale must be nonnegative")
    d = zeta.values.shape[1]
    w = sample_wiener(zeta.grid, d, seed)
    return SampledPath(zeta.grid, zeta.values + noise_scale * w.values)
