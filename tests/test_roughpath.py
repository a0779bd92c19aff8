import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    oscillation_all_pairs,
    pvar_bruteforce_loop,
    pvar_exhaustive,
    pvar_full_dp,
    random_walk,
    young_sum_reference,
)
from roughassim.errors import InvalidSpecError
from roughassim import roughpath
from roughassim.grid import SampledPath, TimeGrid
from roughassim.roughpath import (
    _suffix_records,
    _turning_points,
    build_observation,
    oscillation,
    p_variation,
    p_variation_bruteforce,
    sample_wiener,
    wiener_rng,
    young_bound_check,
    young_integral,
)


def dp_variation(values, p):
    """The stacked dynamic program's p-variation of one path, without the
    rescale that p_variation gives a sum that overflows or underflows."""
    return float(roughpath._max_dissection_sums(values[None], p)[0]) ** (1.0 / p)


def random_path(n_steps, dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    steps = scale * rng.normal(size=(n_steps, dim))
    vals = np.vstack([np.zeros((1, dim)), np.cumsum(steps, axis=0)])
    return SampledPath(TimeGrid(1.0, n_steps), vals)


class TestPVariation:
    def test_monotone_scalar_path_total_variation(self):
        # p=1 variation of a monotone path is the total rise.
        p = SampledPath(TimeGrid(1.0, 4), [0.0, 1.0, 2.0, 3.0, 4.0])
        assert p_variation(p, 1.0) == pytest.approx(4.0)

    def test_two_node_path_is_increment_norm(self):
        p = SampledPath(TimeGrid(1.0, 1), [[0.0, 0.0], [3.0, 4.0]])
        for q in (1.0, 1.5, 2.0, 3.0):
            assert p_variation(p, q) == pytest.approx(5.0)

    def test_zigzag_p2(self):
        # 0 -> 1 -> 0 -> 1: sup dissection keeps every node for p = 2.
        p = SampledPath(TimeGrid(1.0, 3), [0.0, 1.0, 0.0, 1.0])
        assert p_variation(p, 2.0) == pytest.approx(np.sqrt(3.0))

    def test_matches_exhaustive_oracle(self):
        for trial in range(25):
            dim = 1 if trial % 2 else 3
            path = random_path(9, dim, seed=100 + trial)
            p = 1.0 + 0.5 * (trial % 5)
            assert p_variation(path, p) == pytest.approx(
                pvar_exhaustive(path.values, p), abs=1e-12
            )

    def test_bruteforce_helper_agrees_with_dp(self):
        for trial in range(10):
            path = random_path(11, 2, seed=trial)
            assert p_variation_bruteforce(path, 2.5) == pytest.approx(
                p_variation(path, 2.5), abs=1e-12
            )

    def test_invalid_p_rejected(self):
        p = random_path(4, 1, seed=0)
        for bad in (0.5, np.nan, np.inf):
            with pytest.raises(InvalidSpecError):
                p_variation(p, bad)
            with pytest.raises(InvalidSpecError):
                p_variation_bruteforce(p, bad)

    def test_node_cap(self, monkeypatch):
        path = random_path(64, 1, seed=0)
        monkeypatch.setattr(roughpath, "MAX_PVAR_NODES", 32)
        with pytest.raises(InvalidSpecError, match="cap of 32"):
            p_variation(path, 2.0)
        monkeypatch.setattr(roughpath, "MAX_PVAR_NODES", 65)
        p_variation(path, 2.0)  # a path at or below the cap is accepted

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_monotonicity_in_p(self, seed):
        path = random_path(24, 2, seed=seed)
        v15, v25 = p_variation(path, 1.5), p_variation(path, 2.5)
        assert v25 <= v15 + 1e-12

    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=1.1, max_value=4.0))
    @settings(max_examples=20, deadline=None)
    def test_interpolation_inequality(self, seed, p):
        q = 1.0 + (p - 1.0) * 0.5  # 1 < q < p
        path = random_path(24, 1, seed=seed)
        vp, vq = p_variation(path, p), p_variation(path, q)
        bound = vq ** (q / p) * oscillation(path) ** (1.0 - q / p)
        assert vp <= bound + 1e-10

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_scaling_homogeneity(self, seed):
        path = random_path(16, 2, seed=seed)
        doubled = SampledPath(path.grid, 2.0 * path.values)
        assert p_variation(doubled, 1.7) == pytest.approx(2.0 * p_variation(path, 1.7))


def _walk(steps):
    return np.concatenate([[0.0], np.cumsum(steps)])


def _gaussian_walk(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return _walk(np.random.default_rng(seed).normal(size=n))


def _integer_walk(draw):
    # Steps of 0 make plateaus; equal values far apart make ties.
    steps = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=60))
    return _walk(np.array(steps, dtype=float))


def _constant(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    return np.full(n, draw(st.floats(min_value=-5.0, max_value=5.0)))


def _monotone(draw):
    steps = draw(st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=40))
    return draw(st.sampled_from([1.0, -1.0])) * _walk(np.array(steps))


def _short(draw):
    n = draw(st.sampled_from([2, 3]))
    return np.array(draw(st.lists(st.floats(min_value=-5.0, max_value=5.0),
                                  min_size=n, max_size=n)))


@st.composite
def scalar_paths(draw):
    kind = draw(st.sampled_from([_gaussian_walk, _integer_walk, _constant, _monotone, _short]))
    values = kind(draw)
    return SampledPath(TimeGrid(1.0, len(values) - 1), values)


class TestTurningPointPrefilter:
    """A scalar path with p > 1 runs the dynamic program over its turning
    points only; the result must equal the full program's exactly."""

    @given(scalar_paths(), st.sampled_from([1.0001, 1.2, 1.5, 2.0, 2.5, 3.7]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_prefiltered_equals_full_dp(self, path, p):
        assert dp_variation(path.values, p) == pvar_full_dp(path.values, p)

    @given(scalar_paths(), st.sampled_from([1.0, 1.5, 2.5]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_bruteforce_on_short_paths(self, path, p):
        if path.values.shape[0] > 12:
            path = SampledPath(TimeGrid(1.0, 11), path.values[:12])
        assert abs(p_variation(path, p) - p_variation_bruteforce(path, p)) <= 1e-12

    @given(scalar_paths())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_p_one_keeps_every_node(self, path):
        # At p = 1 dissections tie; the unfiltered program decides the bits.
        assert dp_variation(path.values, 1.0) == pvar_full_dp(path.values, 1.0)

    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([2, 3]),
           st.sampled_from([1.0, 1.5, 2.5]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_vector_paths_keep_every_node(self, seed, dim, p):
        path = random_path(40, dim, seed=seed)
        assert p_variation(path, p) == pvar_full_dp(path.values, p)

    def test_kept_nodes(self):
        v = np.array([0.0, 1.0, 2.0, 2.0, 3.0, 1.0, 0.0, -1.0, 4.0])
        # Interiors of strict monotone runs go; plateaus and extrema stay.
        assert _turning_points(v).tolist() == [
            True, False, True, True, True, False, False, True, True
        ]
        assert _turning_points(np.arange(6.0)).tolist() == [True] + [False] * 4 + [True]


KERNEL_KINDS = [  # (column counts, p values)
    ([1], [1.2, 1.5, 2.0, 2.5, 3.7]),  # scalar with p > 1: the turning-point prefilter
    ([1, 2, 3], [1.0]),
    ([2, 3], [1.0, 1.5, 2.5]),
    ([8, 9], [1.0, 1.5, 2.5]),  # norm's pairwise reduce
]


@st.composite
def kernel_cases(draw):
    """A path of up to 200 nodes and a p; integer steps make plateaus and ties."""
    dims, ps = draw(st.sampled_from(KERNEL_KINDS))
    dim, p = draw(st.sampled_from(dims)), draw(st.sampled_from(ps))
    n = draw(st.integers(min_value=2, max_value=200))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10_000)))
    if draw(st.booleans()):
        steps = rng.integers(-2, 3, size=(n - 1, dim)).astype(float)
    else:
        steps = rng.normal(size=(n - 1, dim))
    values = np.vstack([np.zeros((1, dim)), np.cumsum(steps, axis=0)])
    return SampledPath(TimeGrid(1.0, n - 1), values), p


class TestDistanceKernel:
    """The blocked dynamic program, the array oracle and the oscillation
    read one distance kernel; each must equal its row-by-row reference bit
    for bit, whatever the block size."""

    @given(kernel_cases(), st.sampled_from([1, 2, 3, 64]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_blocked_dp_equals_full_dp(self, case, block):
        path, p = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(roughpath, "PVAR_BLOCK", block)
            assert p_variation(path, p) == pvar_full_dp(path.values, p)

    @given(st.integers(min_value=2, max_value=13), st.sampled_from([1, 2, 3, 9]),
           st.sampled_from([1.0, 1.3, 2.0, 2.5, 3.1]), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_array_oracle_equals_loop(self, n, dim, p, seed):
        # From 9 nodes on, dissections of 8 or more terms take np.sum's pairwise branch.
        path = random_path(n - 1, dim, seed=seed)
        assert p_variation_bruteforce(path, p) == pvar_bruteforce_loop(path.values, p)

    @pytest.mark.parametrize("dim", [1, 3, 9])
    def test_oscillation_equals_all_pairs(self, monkeypatch, dim):
        monkeypatch.setattr(roughpath, "PVAR_BLOCK", 7)
        for seed in range(10):
            path = random_path(40 + seed, dim, seed=seed)
            assert oscillation(path) == oscillation_all_pairs(path.values)

    def test_oscillation_memory_is_not_quadratic(self):
        # The (n, n, 3) difference array alone would take 0.4 GB.
        path = random_path(4096, 3, seed=3)
        tracemalloc.start()
        try:
            oscillation(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("length", range(2, 8))
    def test_short_reduce_sums_left_to_right(self, length):
        # The kernel sums the squares of fewer than 8 columns one column at a
        # time; that matches norm only while numpy reduces so few terms in order.
        rng = np.random.default_rng(length)
        x = rng.normal(size=(4096, length)) * 10.0 ** rng.integers(-4, 4, size=(4096, length))
        sq = x * x
        in_order = sq[:, 0]
        for c in range(1, length):
            in_order = in_order + sq[:, c]
        assert np.array_equal(np.add.reduce(sq, axis=1), in_order)
        assert all(np.add.reduce(row) == total for row, total in zip(sq[:64], in_order))
        assert np.array_equal(np.linalg.norm(x, axis=1), np.sqrt(in_order))


@st.composite
def long_scalar_paths(draw):
    """Long scalar paths of three kinds: the roughpath suite's 4097-node
    Wiener streams, integer walks with plateaus, and a rising zigzag, where
    every earlier low is a suffix record (the most columns per block)."""
    kind = draw(st.sampled_from(["wiener", "integer", "zigzag"]))
    if kind == "wiener":
        stream = 1500 + draw(st.integers(min_value=0, max_value=19))
        return sample_wiener(TimeGrid(1.0, 4096), 1, 42, stream=stream)
    n = draw(st.integers(min_value=2, max_value=2000))
    if kind == "integer":
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10_000)))
        values = _walk(rng.integers(-2, 3, size=n - 1).astype(float))
    else:
        rise = draw(st.sampled_from([0.25, 1.0, 3.0]))
        values = rise * np.arange(n) + np.where(np.arange(n) % 2, 2.0, -2.0)
    return SampledPath(TimeGrid(1.0, n - 1), values)


class TestRecordColumns:
    """A scalar path with p > 1 reads, of the earlier blocks, only the
    suffix records; the result must equal the full program's bit for bit."""

    @given(long_scalar_paths(), st.sampled_from([1.0001, 1.5, 2.0, 2.5, 4.0]),
           st.sampled_from([1, 3, 64]))
    @settings(deadline=None, derandomize=True)
    def test_record_columns_equal_full_dp(self, path, p, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(roughpath, "PVAR_BLOCK", block)
            assert p_variation(path, p) == pvar_full_dp(path.values, p)

    def test_record_columns(self):
        v = np.array([0.0, 3.0, 1.0, 2.0, 2.0, -1.0, 1.0, 0.5])
        # Nodes 0 and 2 lie strictly inside the range of the nodes after
        # them; node 3 ties node 4 for the maximum and stays.
        assert np.flatnonzero(_suffix_records(v, 8)).tolist() == [1, 3, 4, 5, 6, 7]
        assert np.flatnonzero(_suffix_records(v, 5)).tolist() == [0, 1, 2, 3, 4]
        assert np.flatnonzero(_suffix_records(v, 1)).tolist() == [0]
        # A rising zigzag keeps every low, a monotone path every node.
        zigzag = np.arange(8.0) + np.where(np.arange(8) % 2, 2.0, -2.0)
        assert np.flatnonzero(_suffix_records(zigzag, 8)).tolist() == [0, 2, 4, 6, 7]
        assert np.flatnonzero(_suffix_records(np.arange(6.0), 6)).tolist() == list(range(6))


@st.composite
def prune_cases(draw):
    """Paths the column prune serves: up to 300 nodes in 1 to 9 components,
    a vector path at any p, a scalar one at p = 1.  Integer steps make ties,
    zero steps repeated nodes; the scales reach 1e+-150 and, at 10^(-315/p),
    subnormal p-th powers."""
    dim = draw(st.integers(min_value=1, max_value=9))
    p = 1.0 if dim == 1 else draw(st.sampled_from([1.0, 1.3, 2.5, 4.0, 1e3]))
    n = draw(st.integers(min_value=2, max_value=300))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10_000)))
    kind = draw(st.sampled_from(["gaussian", "integer", "repeated"]))
    if kind == "integer":
        steps = rng.integers(-2, 3, size=(n - 1, dim)).astype(float)
    else:
        steps = rng.normal(size=(n - 1, dim))
        if kind == "repeated":
            steps[rng.random(n - 1) < 0.4] = 0.0
    scale = draw(st.sampled_from([1.0, 1e150, 1e-150, 10.0 ** (-315.0 / p)]))
    return scale * np.vstack([np.zeros((1, dim)), np.cumsum(steps, axis=0)]), p


class TestColumnPrune:
    """A vector path, or one at p = 1, reads of the earlier blocks only the
    columns a triangle-inequality bound keeps; the dynamic program must
    equal the full one bit for bit, overflow and underflow included."""

    @given(prune_cases(), st.sampled_from([1, 3, 64]))
    @settings(deadline=None, derandomize=True)
    def test_pruned_dp_equals_full_dp(self, case, block):
        values, p = case
        with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore"):
            mp.setattr(roughpath, "PVAR_BLOCK", block)
            assert dp_variation(values, p) == pvar_full_dp(values, p)

    def test_a_3d_walk_keeps_few_columns(self, monkeypatch):
        kept, read = [], []
        prune = roughpath._kept_columns

        def spy(values, best, lo, hi, p):
            columns = prune(values, best, lo, hi, p)
            kept.append(np.count_nonzero(columns))
            read.append(lo)
            return columns

        monkeypatch.setattr(roughpath, "_kept_columns", spy)
        path = sample_wiener(TimeGrid(1.0, 2048), 3, 42)
        assert p_variation(path, 2.5) == pvar_full_dp(path.values, 2.5)
        assert sum(kept) < 0.3 * sum(read)

    def test_overflowing_powers_run_in_units_of_the_largest_distance(self):
        # p-variation is 1-homogeneous; at p = 4 these powers overflow.
        steps = wiener_rng(1, 0).normal(size=(64, 2))
        path = SampledPath(TimeGrid(1.0, 64), np.vstack([np.zeros((1, 2)), np.cumsum(steps, 0)]))
        for scale in (1e100, -1e200, 1e300):
            big = SampledPath(path.grid, scale * path.values)
            assert p_variation(big, 4.0) == pytest.approx(abs(scale) * p_variation(path, 4.0),
                                                          rel=1e-14)
        # A largest distance beyond the float range is an infinite variation.
        wide = SampledPath(TimeGrid(1.0, 2), [[1e308], [-1e308], [0.0]])
        assert p_variation(wide, 2.0) == np.inf

    def test_underflowing_powers_run_in_units_of_the_largest_distance(self):
        # At p = 4 these powers are subnormal (1e-80) or zero (1e-100, 1e-300).
        steps = wiener_rng(1, 0).normal(size=(64, 2))
        path = SampledPath(TimeGrid(1.0, 64), np.vstack([np.zeros((1, 2)), np.cumsum(steps, 0)]))
        for scale in (1e-80, 1e-100, 1e-300):
            small = SampledPath(path.grid, scale * path.values)
            assert p_variation(small, 4.0) == pytest.approx(scale * p_variation(path, 4.0),
                                                            rel=1e-15, abs=0.0)
        # A constant path has nothing to rescale; its variation stays 0.
        assert p_variation(SampledPath(path.grid, np.full((65, 2), 1e-300)), 4.0) == 0.0


@st.composite
def stacks(draw):
    """A stack of 1 to 6 equal-length paths in 1 to 9 components and a p.
    Members draw their own kind, so scalar members keep ragged turning-point
    counts: Gaussian, integer (ties) or repeated-node steps, a monotone run
    or a constant path.  From three members on, one member may overflow
    and another underflow among ordinary ones."""
    size = draw(st.integers(min_value=1, max_value=6))
    dim = draw(st.integers(min_value=1, max_value=9))
    p = draw(st.sampled_from([1.0, 1.3, 2.5, 4.0, 1e3]))
    n = draw(st.integers(min_value=2, max_value=200))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10_000)))
    kinds = ["gaussian", "integer", "repeated", "monotone", "constant"]
    members = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=size, max_size=size)):
        if kind == "integer":
            steps = rng.integers(-2, 3, size=(n - 1, dim)).astype(float)
        else:
            steps = rng.normal(size=(n - 1, dim))
            if kind == "repeated":
                steps[rng.random(n - 1) < 0.4] = 0.0
            elif kind == "monotone":
                steps = np.abs(steps)
            elif kind == "constant":
                steps[:] = 0.0
        members.append(np.vstack([rng.normal(size=(1, dim)), np.cumsum(steps, axis=0)]))
    values = np.stack(members)
    if size >= 3 and draw(st.booleans()):
        values[0] *= 10.0 ** min(300.0, 310.0 / p)
        values[1] *= 10.0 ** max(-300.0, -330.0 / p)
    return values, p


class TestStackedMembers:
    """Every member of a stack equals its own one-path p-variation bit for
    bit, whatever the block size, and a one-member stack is the full
    dynamic program's."""

    @given(stacks(), st.sampled_from([1, 3, 64]))
    @settings(deadline=None, derandomize=True)
    def test_members_equal_their_one_path_calls(self, case, block):
        values, p = case
        grid = TimeGrid(1.0, values.shape[1] - 1)
        with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore"):
            mp.setattr(roughpath, "PVAR_BLOCK", block)
            stacked = roughpath._p_variations(values, p).tolist()
            assert stacked == [p_variation(SampledPath(grid, member), p) for member in values]
            if len(values) == 1:
                assert dp_variation(values[0], p) == pvar_full_dp(values[0], p)

    def test_the_suites_seed_42_stacks(self):
        fines = [sample_wiener(TimeGrid(1.0, 4096), 1, 42, stream=1500 + s) for s in range(20)]
        stacked = roughpath._p_variations(np.stack([w.values for w in fines]), 1.5)
        assert stacked.tolist() == [p_variation(w, 1.5) for w in fines]
        walks = [random_walk(TimeGrid(1.0, 64), 2, 42, 300 + t) for t in range(100)]
        stacked = roughpath._p_variations(np.stack([w.values for w in walks]), 2.5)
        assert stacked.tolist() == [p_variation(w, 2.5) for w in walks]


@pytest.mark.parametrize("dim", [1, 9])
def test_overflowing_increments_read_non_finite_without_warnings(dim):
    # Finite values whose differences overflow a float, in both branches of
    # the distance kernel (fewer than 8 components and 8 or more).
    path = SampledPath(TimeGrid(1.0, 4), np.outer([0.0, 1e308, -1e308, 1e308, 0.0], np.ones(dim)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert oscillation(path) == np.inf
        assert p_variation_bruteforce(path, 2.0) == np.inf
        assert not np.isfinite(young_integral(path, path))


class TestYoungIntegral:
    def test_polynomial_pair_left_tag_converges(self):
        # int_0^1 t d(t^2) = 2/3; left sums converge at first order.
        errs = []
        for n in (128, 256):
            g = TimeGrid(1.0, n)
            x = SampledPath(g, g.times)
            y = SampledPath(g, g.times * g.times)
            errs.append(abs(young_integral(x, y) - 2.0 / 3.0))
        assert errs[1] < 0.6 * errs[0]

    def test_constant_integrand_telescopes_exactly(self):
        g = TimeGrid(1.0, 50)
        w = sample_wiener(g, 2, seed=5)
        c = np.array([2.0, -1.0])
        x = SampledPath(g, np.tile(c, (g.n_nodes, 1)))
        expected = float(c @ (w.values[-1] - w.values[0]))
        for tag in ("left", "midpoint"):
            assert young_integral(x, w, tag) == pytest.approx(expected, abs=1e-12)

    def test_matches_reference_sums_all_tags(self):
        g = TimeGrid(1.0, 33)
        x = random_path(33, 2, seed=1)
        y = random_path(33, 2, seed=2)
        for tag in ("left", "midpoint"):
            assert young_integral(x, y, tag) == pytest.approx(
                young_sum_reference(x.values, y.values, tag), abs=1e-12
            )

    def test_integrand_of_another_dimension_rejected(self):
        g = TimeGrid(1.0, 16)
        x, y = sample_wiener(g, 2, seed=7), sample_wiener(g, 3, seed=8)
        with pytest.raises(InvalidSpecError):
            young_integral(x, y)

    def test_scalar_integrand_rejected_on_a_vector_integrator(self):
        # A Young sum pairs x and y of one dimension; a 1-component x no
        # longer scales a 3-component y into a vector.
        g = TimeGrid(1.0, 16)
        x, y = SampledPath(g, g.times), sample_wiener(g, 3, seed=7)
        with pytest.raises(InvalidSpecError, match="1-component integrand"):
            young_integral(x, y)

    def test_linearity_in_integrand(self):
        g = TimeGrid(1.0, 32)
        x1, x2 = random_path(32, 1, seed=8), random_path(32, 1, seed=9)
        y = random_path(32, 1, seed=10)
        lhs = young_integral(SampledPath(g, 2 * x1.values + 3 * x2.values), y)
        assert lhs == pytest.approx(2 * young_integral(x1, y) + 3 * young_integral(x2, y))

    def test_bad_tag_rejected(self):
        g = TimeGrid(1.0, 4)
        x = SampledPath.zeros(g, 1)
        with pytest.raises(InvalidSpecError):
            young_integral(x, x, tag="trapezoid")

    def test_right_tag_rejected(self):
        g = TimeGrid(1.0, 4)
        x = SampledPath.zeros(g, 1)
        with pytest.raises(InvalidSpecError, match="unknown tag 'right'"):
            young_integral(x, x, tag="right")


class TestYoungBound:
    def test_identity_pair_hand_values(self):
        # x(t) = y(t) = t, p = q = 1: lhs = |1/2 - 0| and rhs = 2.
        g = TimeGrid(1.0, 256)
        x = SampledPath(g, g.times)
        res = young_bound_check(x, x, 1.0, 1.0)
        assert res["lhs"] == pytest.approx(0.5, abs=2e-3)
        assert res["rhs"] == pytest.approx(2.0, abs=1e-9)
        assert res["lhs"] <= res["rhs"]

    def test_bound_holds_on_random_pairs(self):
        for seed in range(30):
            x = random_path(40, 1, seed=seed, scale=0.3)
            y = random_path(40, 1, seed=1000 + seed, scale=0.3)
            res = young_bound_check(x, y, 1.5, 1.5)
            assert res["lhs"] <= res["rhs"] + 1e-12

    def test_theta_condition_enforced(self):
        x = random_path(8, 1, seed=0)
        with pytest.raises(InvalidSpecError):
            young_bound_check(x, x, 2.0, 2.0)


class TestWienerSampling:
    def test_determinism_and_stream_independence(self):
        g = TimeGrid(1.0, 100)
        a = sample_wiener(g, 2, seed=9, stream=0)
        b = sample_wiener(g, 2, seed=9, stream=0)
        c = sample_wiener(g, 2, seed=9, stream=1)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_increment_statistics(self):
        g = TimeGrid(1.0, 20_000)
        w = sample_wiener(g, 1, seed=123)
        inc = w.increments()[:, 0]
        assert abs(np.mean(inc)) < 3.0 * np.sqrt(g.dt / len(inc))
        assert np.var(inc) == pytest.approx(g.dt, rel=0.05)

    def test_build_observation_zero_noise_is_zeta(self):
        g = TimeGrid(1.0, 32)
        zeta = SampledPath(g, np.stack([g.times, g.times * g.times], axis=1))
        obs = build_observation(zeta, 0.0, seed=4)
        assert np.array_equal(obs.values, zeta.values)

    def test_build_observation_rejects_negative_noise(self):
        zeta = SampledPath.zeros(TimeGrid(1.0, 8), 2)
        with pytest.raises(InvalidSpecError, match="noise_scale"):
            build_observation(zeta, -1.0, seed=4)

    def test_wiener_rng_reproducible(self):
        assert wiener_rng(7, 3).normal() == wiener_rng(7, 3).normal()
