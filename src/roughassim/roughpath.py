"""Sampled-path calculus: p-variation, Young sums, and Wiener sampling.

The p-variation is the supremum over dissections of the sum of
|increment|^p, raised to 1/p.  For sampled data the supremum is taken over
dissections through grid nodes only, computed exactly by an O(N^2) dynamic
program.  For a scalar path and p > 1 it runs over the turning points
alone and reads, of the earlier nodes, only the suffix records, about
O(N^1.5) distances on a random walk; any other path reads only the
earlier nodes that a triangle-inequality bound cannot rule out.  The
program, its brute-force oracle and the oscillation read their node
distances from one blocked kernel, :func:`_distances`.
Young integrals are evaluated as tagged Riemann sums with a left or
midpoint tag; the cost and the costate form their own left-tag sums against
the observation increments.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb

import numpy as np

from .errors import InvalidSpecError
from .grid import SampledPath, TimeGrid, _exponent, _noise_scale, _positive_count, _seed
from .grid import require_same_grid

#: Node cap for the O(N^2) variation dynamic program.
MAX_PVAR_NODES = 4097

#: Rows of the variation dynamic program (and of the oscillation) filled per
#: distance block; a block holds PVAR_BLOCK x K distances for K nodes.
PVAR_BLOCK = 64


def _distances(values: np.ndarray, lo: int, hi: int, cols=None) -> np.ndarray:
    """|v_j - v_i| for rows j in [lo, hi) against columns i in ``cols``, an
    index array or a slice, or every i < hi when None.

    Row j is bit for bit ``np.linalg.norm(values[cols] - values[j], axis=1)``.
    """
    if cols is None:
        cols = slice(hi)
    if values.shape[1] >= 8:
        # numpy sums 8 or more terms pairwise, so only norm's own reduce matches.
        picked = values[cols]
        return np.stack([np.linalg.norm(picked - values[j], axis=1) for j in range(lo, hi)])
    # Below 8 terms norm's reduce adds left to right, as these column sums do.
    sq = None
    for c in values.T:
        diff = c[None, cols] - c[lo:hi, None]
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


def _suffix_records(v: np.ndarray, lo: int) -> np.ndarray:
    """Indices i < lo with v_i <= min(v[i:lo]) or v_i >= max(v[i:lo]), ties kept."""
    head = v[lo - 1 :: -1]  # v[:lo] reversed
    low = np.minimum.accumulate(head)[::-1]
    high = np.maximum.accumulate(head)[::-1]
    return np.flatnonzero((v[:lo] <= low) | (v[:lo] >= high))


def _kept_columns(values, best, lo: int, hi: int, p: float) -> np.ndarray:
    """Columns i < lo that may hold the max of a row in [lo, hi).

    best is nondecreasing, so best[lo], taken here over every column, is a
    floor for each row of the block.  With R the largest |v_j - v_lo| there,
    |v_j - v_i| <= |v_lo - v_i| + R, and column i goes when best[i] plus
    that bound to the p is below the floor by a relative slack and by the
    smallest normal float, which covers the rounding of a subnormal power.
    A NaN or an infinite bound keeps its column.
    """
    # The bound and the candidates it covers each round to about
    # (d + 8) p 2^-52; from a slack of 1 on nothing covers that.
    slack = 2.0**-40 * (values.shape[1] + 8) * p
    if slack >= 1.0:
        return np.arange(lo)
    near = _distances(values, lo, lo + 1, slice(hi))[0]  # |v_i - v_lo| for i < hi
    floor = np.max(best[:lo] + near[:lo] ** p)
    bound = best[:lo] + (near[:lo] + np.max(near[lo:])) ** p
    return np.flatnonzero(~(bound < floor * (1.0 - slack) - 2.0**-1022))


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

    The same scalar case reads, of the earlier blocks, only the suffix
    records of v[:lo] (:func:`_suffix_records`).  The last segment (i, j)
    of an optimal dissection ending at j spans the range of v[i..j]: a node
    y between them outside that range, inserted, makes one increment
    strictly longer and the sum larger, for any p > 0.  The same holds of
    the float candidates, so a column that is not a record never holds a
    row's max.  A random walk of K nodes has O(sqrt(K)) records, so the
    program costs O(K^1.5) distances instead of O(K^2).

    Every other path, a vector path or one at p = 1, reads from the second
    block on only the columns :func:`_kept_columns` keeps.  A column it
    drops has each candidate below best[lo], which row lo reaches through
    its best column and every later row through column lo, so best stays
    bit for bit.
    """
    n = values.shape[0]
    if n < 2:
        return 0.0
    scalar = values.shape[1] == 1 and p > 1
    if scalar:
        values = values[_turning_points(values[:, 0])]
        n = values.shape[0]
    best = np.zeros(n)
    for lo in range(1, n, PVAR_BLOCK):
        hi = min(lo + PVAR_BLOCK, n)
        if scalar:
            earlier = _suffix_records(values[:, 0], lo)
        elif lo >= PVAR_BLOCK:  # the first block has too few columns to prune
            earlier = _kept_columns(values, best, lo, hi, p)
        else:
            earlier = np.arange(lo)
        terms = _distances(values, lo, hi, np.concatenate([earlier, np.arange(lo, hi)])) ** p
        reach = np.max(best[earlier] + terms[:, : earlier.size], axis=1)
        inside = terms[:, earlier.size :].T.copy()  # inside[k]: terms from node lo + k
        for k in range(hi - lo):
            best[lo + k] = reach[k]
            # Rows up to k are final already; what this writes there is unread.
            np.maximum(reach, inside[k] + reach[k], out=reach)
    return float(best[n - 1])


def p_variation(path: SampledPath, p: float) -> float:
    """Exact grid p-variation of a path, Euclidean norm on increments.

    O(K^2) time at most in the K nodes the dynamic program keeps: every
    node of a vector path or at p = 1, only the turning points of a scalar
    path with p > 1.  Rows read only the columns that can hold their max:
    the suffix records of a scalar path, O(sqrt(K)) of them on a random
    walk, so O(K^1.5) time; those :func:`_kept_columns` keeps of any other
    path, from 1% to 30% of them on a 3-D random walk.  Memory is
    O(``PVAR_BLOCK`` * K): the program fills its rows a block at a time.
    A path whose p-th powers overflow runs again in units of its largest
    distance, since the p-variation is 1-homogeneous.  Refuses paths with
    more than ``MAX_PVAR_NODES`` nodes (counted before that reduction) to
    keep the diagnostic affordable.
    """
    p = _exponent(p, "p")
    values = path.values
    if values.shape[0] > MAX_PVAR_NODES:
        raise InvalidSpecError(f"path has {len(values)} nodes, above the cap of {MAX_PVAR_NODES}")
    with np.errstate(over="ignore"):
        total = _max_dissection_sum(values, p)
        if total < np.inf:
            return total ** (1.0 / p)
        top = float(np.max(np.abs(values)))
        unit = SampledPath(path.grid, values / top)
        width = oscillation(unit)
        return top * (width * _max_dissection_sum(unit.values / width, p) ** (1.0 / p))


def p_variation_bruteforce(path: SampledPath, p: float) -> float:
    """Exhaustive enumeration of all grid dissections (oracle, N <= 22 nodes).

    The n x n table of |increment|^p is built once; then, for each number
    k of interior nodes, the C(n - 2, k) dissections are one index array,
    their terms are gathered and each row is summed.  Shares only the
    distance kernel with :func:`p_variation`, not its dynamic program.
    """
    p = _exponent(p, "p")
    values = path.values
    n = values.shape[0]
    if n < 2:
        return 0.0
    if n > 22:
        raise InvalidSpecError("brute force is exponential; use p_variation")
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
    values = path.values
    n = values.shape[0]
    blocks = range(0, n, PVAR_BLOCK)
    return float(max(np.max(_distances(values, lo, min(lo + PVAR_BLOCK, n))) for lo in blocks))


def young_integral(x: SampledPath, y: SampledPath, tag: str = "left") -> float:
    """Tagged Riemann sum  sum_i <x(tau_i), y(t_{i+1}) - y(t_i)>.

    x and y have the same d components; x pairs with y's increments as a
    covector.  ``tag`` places tau_i at the left node or at the midpoint
    (the average of the two endpoint samples, matching the piecewise-linear
    reading of the stored path).
    """
    require_same_grid(x, y)
    if not (isinstance(tag, str) and tag in ("left", "midpoint")):
        raise InvalidSpecError(f"unknown tag {tag!r}; choose 'left' or 'midpoint'")
    if x.dim != y.dim:
        raise InvalidSpecError(
            f"a {x.dim}-component integrand cannot act on {y.dim} components"
        )
    xv = x.values
    xt = xv[:-1] if tag == "left" else 0.5 * (xv[:-1] + xv[1:])
    return float(np.einsum("nd,nd->n", xt, y.increments()).sum())


def young_bound_check(x: SampledPath, y: SampledPath, p: float, q: float) -> dict:
    """Evaluate both sides of the Young-Loeve bound.

    lhs = |int x dy - x(0)(y(T)-y(0))|, rhs = (1 - 2^(1-theta))^-1
    Var_p(x) Var_q(y) with theta = 1/p + 1/q; the caller asserts lhs <= rhs.
    p and q are p-variation exponents, each in [1, inf).
    """
    p, q = _exponent(p, "p"), _exponent(q, "q")
    theta = 1.0 / p + 1.0 / q
    if theta <= 1.0:
        raise InvalidSpecError(f"need 1/p + 1/q > 1, got theta={theta}")
    integral = young_integral(x, y, tag="left")
    dy = y.values[-1] - y.values[0]
    lhs = abs(integral - float(x.values[0] @ dy))
    rhs = float(p_variation(x, p) * p_variation(y, q) / (1.0 - 2.0 ** (1.0 - theta)))
    return {"lhs": lhs, "rhs": rhs}


def wiener_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator (Philox) keyed by (seed, stream).

    Streams with distinct indices are statistically independent, which is
    how replicate ensembles split randomness.  Gaussians come from numpy's
    ziggurat transform; cross-run determinism is what matters here, and the
    generator is pinned by (seed, stream) alone: the Philox key is
    seed + stream * 2**64, with seed and stream each in [0, 2**64).
    """
    key = _seed(seed, "seed") + (_seed(stream, "stream") << 64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_wiener(grid: TimeGrid, dim: int, seed: int, stream: int = 0) -> SampledPath:
    """Standard Wiener sample on the grid: W(0)=0, Gaussian increments of variance dt."""
    dim = _positive_count(dim, "dim")
    rng = wiener_rng(seed, stream)
    dW = rng.normal(0.0, np.sqrt(grid.dt), size=(grid.n_steps, dim))
    values = np.vstack([np.zeros((1, dim)), np.cumsum(dW, axis=0)])
    return SampledPath(grid, values)


def build_observation(zeta: SampledPath, noise_scale: float, seed: int) -> SampledPath:
    """Observation path eta(t_i) = zeta(t_i) + noise_scale * W(t_i), W on stream 0."""
    noise_scale = _noise_scale(noise_scale)
    w = sample_wiener(zeta.grid, zeta.dim, seed)
    return SampledPath(zeta.grid, zeta.values + noise_scale * w.values)
