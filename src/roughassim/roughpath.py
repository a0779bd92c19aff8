"""Sampled-path calculus: p-variation, Young sums, and Wiener sampling.

The p-variation is the supremum over dissections of the sum of
|increment|^p, raised to 1/p.  For sampled data the supremum is taken over
dissections through grid nodes only, computed exactly by an O(N^2) dynamic
program.  For a scalar path and p > 1 it runs over the turning points
alone and reads, of the earlier nodes, only the suffix records, about
O(N^1.5) distances on a random walk; any other path reads only the
earlier nodes that a triangle-inequality bound cannot rule out.  The
program runs on a stack of equal-length paths at one p, every member at
once, and :func:`p_variation` is its one-member call.  The program, its
brute-force oracle and the oscillation read their node distances from one
blocked kernel, :func:`_distances`.
Young integrals are evaluated as tagged Riemann sums with a left or
midpoint tag; the cost and the costate form their own left-tag sums against
the observation increments.
"""

from __future__ import annotations

from functools import cache
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


def _distances(values: np.ndarray, rows, cols) -> np.ndarray:
    """|values[cols] - values[rows]|, Euclidean over the last axis; ``rows``
    and ``cols`` index the leading axes and broadcast against each other.

    Each entry is bit for bit ``np.linalg.norm`` of its difference vector;
    a difference too large for a float reads inf.
    """
    with np.errstate(over="ignore"):
        if values.shape[-1] >= 8:
            # numpy sums 8 or more terms pairwise, so only norm's own reduce matches.
            return np.linalg.norm(values[cols] - values[rows], axis=-1)
        # Below 8 terms norm's reduce adds left to right, as these column sums do.
        sq = None
        for c in range(values.shape[-1]):
            diff = values[..., c][cols] - values[..., c][rows]
            sq = diff * diff if sq is None else np.add(sq, diff * diff, out=sq)
        return np.sqrt(sq, out=sq)


def _turning_points(v: np.ndarray) -> np.ndarray:
    """Mask of the endpoints and the nodes where a scalar path, each column
    of v, stops being strictly monotone (a NaN neighbour counts as a turn)."""
    d = v[1:] - v[:-1]
    up, down = d > 0, d < 0
    keep = np.ones(v.shape, dtype=bool)
    keep[1:-1] = ~((up[:-1] & up[1:]) | (down[:-1] & down[1:]))
    return keep


def _suffix_records(v: np.ndarray, lo: int, marks=None, k: int = 0) -> np.ndarray:
    """Mask of the nodes i < lo with v_i <= min(v[i:lo]) or v_i >= max(v[i:lo]),
    ties kept, in each column of v.

    ``marks``, (2,) + v.shape, may carry in its rows :k the low and the high
    records of v[:k], from the call for k: they are carried to v[:lo] in
    place, since an old record stays one exactly when it also bounds the
    new nodes v[k:lo], which add their own suffix records.
    """
    if marks is None:
        marks = np.empty((2,) + v.shape, dtype=bool)
    low, high = marks
    new = v[k:lo]
    least = np.minimum.accumulate(new[::-1], axis=0)[::-1]
    most = np.maximum.accumulate(new[::-1], axis=0)[::-1]
    low[:k] &= v[:k] <= least[0]
    high[:k] &= v[:k] >= most[0]
    np.less_equal(new, least, out=low[k:lo])
    np.greater_equal(new, most, out=high[k:lo])
    return low[:lo] | high[:lo]


def _kept_columns(values, best, lo: int, hi: int, p: float) -> np.ndarray:
    """Mask of the columns i < lo that may hold the max of a row in [lo, hi),
    one column of the mask per member of the (n, B, d) stack.

    best is nondecreasing, so best[lo], taken here over every column, is a
    floor for each row of the block.  With R the largest |v_j - v_lo| there,
    |v_j - v_i| <= |v_lo - v_i| + R, and column i goes when best[i] plus
    that bound to the p is below the floor by a relative slack and by the
    smallest normal float, which covers the rounding of a subnormal power.
    A NaN or an infinite bound keeps its column, and the floor's own column
    always stays.
    """
    # The bound and the candidates it covers each round to about
    # (d + 8) p 2^-52; from a slack of 1 on nothing covers that.
    slack = 2.0**-40 * (values.shape[-1] + 8) * p
    if slack >= 1.0:
        return np.ones(best[:lo].shape, dtype=bool)
    near = _distances(values, lo, np.s_[:hi])  # |v_i - v_lo| for i < hi
    floor = np.max(best[:lo] + near[:lo] ** p, axis=0)
    bound = best[:lo] + (near[:lo] + np.max(near[lo:], axis=0)) ** p
    return ~(bound < floor * (1.0 - slack) - 2.0**-1022)


@cache
def _block_pairs(m: int):
    """The node pairs k < r of an m-row block, k-major, as index arrays
    (tail k, head r), and the bounds [firsts[k], ends[k]) of the pairs from k.
    Cached per block size and shared, so callers only read them."""
    tail, head = np.triu_indices(m, 1)
    ends = np.cumsum(np.arange(m - 1, 0, -1)).tolist()
    return tail, head, [0] + ends[:-1], ends


def _max_dissection_sums(values: np.ndarray, p: float) -> np.ndarray:
    """Max over grid dissections of sum |increment|^p (the 1/p root not
    taken) of each member of a stack (B, n, d) of paths, shape (B,).

    best[j] is the largest sum over dissections of nodes 0..j ending at j.
    A scalar path with p > 1 first drops the nodes strictly inside its
    monotone runs: |y - a|^p + |b - y|^p is strictly convex in y, so an
    optimal dissection never stops there (Butkus and Norvaisa, Lith. Math.
    J. 58, 2018), and the program over the kept nodes adds the same terms
    in the same order.  At p = 1 dissections tie, and which one the float
    sums favour would change, so that case keeps every node.  Each member
    keeps its own nodes, and the stack is padded to the longest member by
    repeating each member's last node.  A repeated node adds a zero
    increment, and best[i] + 0.0 is best[i], so each padded row holds its
    member's sum bit for bit, and every sum is read at the last row.

    Rows are filled ``PVAR_BLOCK`` at a time from one block of terms: one
    max gives each row its best over the earlier blocks, and a sweep over
    the block adds the candidates from inside it, every member at once.
    Each candidate is the same sum best[i] + |v_j - v_i|^p, and max is
    exact, so each member's best is bit for bit the row-by-row program's
    over that member alone.

    The same scalar case reads, of the earlier blocks, only the suffix
    records of v[:lo] (:func:`_suffix_records`, carried from block to
    block).  The last segment (i, j)
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
    bit for bit.  Each member's columns are gathered into one flat list,
    and one ``np.maximum.reduceat`` takes each member's max over its own.
    """
    size, n = values.shape[:2]
    if n < 2:
        return np.zeros(size)
    members = np.arange(size)
    values = values.transpose(1, 0, 2)  # (n, B, d): a node's members side by side
    scalar = values.shape[2] == 1 and p > 1
    if scalar:
        keep = _turning_points(values[:, :, 0])
        rank = np.cumsum(keep, axis=0) - 1  # a kept node's place among its member's
        nodes = np.full((rank[-1].max() + 1, size), n - 1)
        node, member = np.nonzero(keep)
        nodes[rank[keep], member] = node
        values = values[nodes, members]
        n = values.shape[0]
        marks = np.empty((2, n, size), dtype=bool)  # the records, block to block
    best = np.zeros((n, size))
    for lo in range(1, n, PVAR_BLOCK):
        hi = min(lo + PVAR_BLOCK, n)
        if scalar:
            kept = _suffix_records(values[:, :, 0], lo, marks, max(lo - PVAR_BLOCK, 0))
        elif lo >= PVAR_BLOCK:  # the first block has too few columns to prune
            kept = _kept_columns(values, best, lo, hi, p)
        else:
            kept = np.ones((lo, size), dtype=bool)
        # Member-major, one segment per member.  No segment is empty (reduceat
        # would read the next one): the records hold lo - 1, and the prune
        # keeps the floor's column.
        owner, cols = np.nonzero(kept.T)
        terms = _distances(values, np.s_[lo:hi, owner], (cols, owner)) ** p
        starts = np.searchsorted(owner, members)
        reach = np.maximum.reduceat(best[cols, owner] + terms, starts, axis=1)
        tail, head, firsts, ends = _block_pairs(hi - lo)
        inside = _distances(values[lo:hi], head, tail) ** p
        for k, (start, end) in enumerate(zip(firsts, ends)):
            later = reach[k + 1 :]
            np.maximum(later, inside[start:end] + reach[k], out=later)
        best[lo:hi] = reach
    return best[n - 1]


def _p_variations(values: np.ndarray, p: float) -> np.ndarray:
    """Exact grid p-variations of a stack (B, n, d) of equal-length paths
    at one p, shape (B,); member b equals ``p_variation`` of path b alone,
    bit for bit.

    The p-variation is 1-homogeneous, so a member whose p-th powers
    overflow, or whose sum falls below the smallest normal float while the
    member moves, runs again in units of its largest distance.
    """
    p = _exponent(p, "p")
    if values.shape[1] > MAX_PVAR_NODES:
        raise InvalidSpecError(
            f"path has {values.shape[1]} nodes, above the cap of {MAX_PVAR_NODES}"
        )
    with np.errstate(over="ignore", under="ignore"):
        totals = _max_dissection_sums(values, p)
        # Python's float power, not numpy's vector one, which may round apart.
        out = [t ** (1.0 / p) for t in totals.tolist()]
        redo = ~((2.0**-1022 <= totals) & (totals < np.inf))
        if redo.any():  # a constant member sums to 0 and stays
            redo &= np.any(values != values[:, :1], axis=(1, 2))
        if redo.any():
            top = np.max(np.abs(values[redo]), axis=(1, 2), keepdims=True)
            unit = values[redo] / top
            width = _widths(unit)[:, None, None]
            again = _max_dissection_sums(unit / width, p).tolist()
            for b, t, w, s in zip(np.flatnonzero(redo), top.flat, width.flat, again):
                out[b] = float(t) * (float(w) * s ** (1.0 / p))
    return np.array(out)


def p_variation(path: SampledPath, p: float) -> float:
    """Exact grid p-variation of a path, Euclidean norm on increments: the
    one-member stack of :func:`_p_variations`.

    O(K^2) time at most in the K nodes the dynamic program keeps: every
    node of a vector path or at p = 1, only the turning points of a scalar
    path with p > 1.  Rows read only the columns that can hold their max:
    the suffix records of a scalar path, O(sqrt(K)) of them on a random
    walk, so O(K^1.5) time; those :func:`_kept_columns` keeps of any other
    path, from 1% to 30% of them on a 3-D random walk.  Memory is
    O(``PVAR_BLOCK`` * K), O(``PVAR_BLOCK`` * B * K) for a stack of B: the
    program fills its rows a block at a time.
    A path whose p-th powers overflow or underflow runs again in units of
    its largest distance, since the p-variation is 1-homogeneous.  Refuses
    paths with more than ``MAX_PVAR_NODES`` nodes (counted before that
    reduction) to keep the diagnostic affordable.
    """
    return float(_p_variations(path.values[None], p)[0])


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
    terms = _distances(values, np.s_[:, None], np.s_[None, :]) ** p
    best = 0.0
    for k in range(n - 1):
        interior = chain.from_iterable(combinations(range(1, n - 1), k))
        count = comb(n - 2, k)
        nodes = np.empty((count, k + 2), dtype=np.intp)
        nodes[:, 0], nodes[:, -1] = 0, n - 1
        nodes[:, 1:-1] = np.fromiter(interior, dtype=np.intp, count=count * k).reshape(count, k)
        sums = np.sum(terms[nodes[:, 1:], nodes[:, :-1]], axis=1)
        best = max(best, float(np.max(sums)))
    return best ** (1.0 / p)


def _widths(values: np.ndarray) -> np.ndarray:
    """Largest node distance of each member of a stack (B, n, d), shape (B,).

    Reads the distances ``PVAR_BLOCK`` rows at a time, so memory is
    O(``PVAR_BLOCK`` * B * n), never n^2.
    """
    values = values.transpose(1, 0, 2)
    n = values.shape[0]
    widths = np.zeros(values.shape[1])
    for lo in range(0, n, PVAR_BLOCK):
        hi = min(lo + PVAR_BLOCK, n)
        block = _distances(values, np.s_[lo:hi, None], np.s_[None, :hi])
        widths = np.maximum(widths, np.max(block, axis=(0, 1)))
    return widths


def oscillation(path: SampledPath) -> float:
    """sup over node pairs of |y(t) - y(s)|: the one-member stack of :func:`_widths`."""
    return float(_widths(path.values[None])[0])


def young_integral(x: SampledPath, y: SampledPath, tag: str = "left") -> float:
    """Tagged Riemann sum  sum_i <x(tau_i), y(t_{i+1}) - y(t_i)>.

    x and y have the same d components; x pairs with y's increments as a
    covector.  ``tag`` places tau_i at the left node or at the midpoint
    (the average of the two endpoint samples, matching the piecewise-linear
    reading of the stored path).  A sum too large for a float reads
    non-finite.
    """
    require_same_grid(x, y)
    if not (isinstance(tag, str) and tag in ("left", "midpoint")):
        raise InvalidSpecError(f"unknown tag {tag!r}; choose 'left' or 'midpoint'")
    if x.dim != y.dim:
        raise InvalidSpecError(
            f"a {x.dim}-component integrand cannot act on {y.dim} components"
        )
    return _young_sum(x.values, y.values, tag)


def _young_sum(xv: np.ndarray, yv: np.ndarray, tag: str = "left") -> float:
    """:func:`young_integral` of unchecked value arrays, (n, d) each."""
    with np.errstate(over="ignore", invalid="ignore"):
        xt = xv[:-1] if tag == "left" else 0.5 * (xv[:-1] + xv[1:])
        return float(np.einsum("nd,nd->n", xt, np.diff(yv, axis=0)).sum())


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
    var_x, var_y = p_variation(x, p), p_variation(y, q)
    return _young_loeve_sides(young_integral(x, y), x.values, y.values, var_x, var_y, theta)


def _young_loeve_sides(integral: float, xv, yv, var_x, var_y, theta: float) -> dict:
    """Both sides of the Young-Loeve bound from int x dy, x's and y's values,
    Var_p(x), Var_q(y) and theta = 1/p + 1/q > 1: the one place its constant
    (1 - 2^(1-theta))^-1 lives."""
    lhs = abs(integral - float(xv[0] @ (yv[-1] - yv[0])))
    return {"lhs": lhs, "rhs": float(var_x * var_y / (1.0 - 2.0 ** (1.0 - theta)))}


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
    return SampledPath(grid, _walks(grid, dim, seed, [stream], np.sqrt(grid.dt))[0])


def _walks(grid: TimeGrid, dim: int, seed: int, streams, scale) -> np.ndarray:
    """Random walks from 0 with N(0, scale^2) steps, one per stream of
    ``seed``: a stack (B, n_nodes, dim), :func:`sample_wiener`'s at sqrt(dt)."""
    out = np.zeros((len(streams), grid.n_nodes, dim))
    for walk, stream in zip(out, streams):
        steps = wiener_rng(seed, stream).normal(0.0, scale, size=(grid.n_steps, dim))
        np.cumsum(steps, axis=0, out=walk[1:])
    return out


def build_observation(zeta: SampledPath, noise_scale: float, seed: int) -> SampledPath:
    """Observation path eta(t_i) = zeta(t_i) + noise_scale * W(t_i), W on stream 0."""
    noise_scale = _noise_scale(noise_scale)
    w = sample_wiener(zeta.grid, zeta.dim, seed)
    return SampledPath(zeta.grid, zeta.values + noise_scale * w.values)
