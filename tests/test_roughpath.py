import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    oscillation_all_pairs,
    pvar_bruteforce_loop,
    pvar_exhaustive,
    pvar_full_dp,
    young_sum_reference,
)
from roughassim.errors import InvalidParameterError
from roughassim import roughpath
from roughassim.grid import SampledPath, TimeGrid
from roughassim.roughpath import (
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
            with pytest.raises(InvalidParameterError):
                p_variation(p, bad)
            with pytest.raises(InvalidParameterError):
                p_variation_bruteforce(p, bad)

    def test_node_cap(self, monkeypatch):
        path = random_path(64, 1, seed=0)
        monkeypatch.setattr(roughpath, "MAX_PVAR_NODES", 32)
        with pytest.raises(InvalidParameterError, match="cap of 32"):
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
        assert p_variation(path, p) == pvar_full_dp(path.values, p)

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
        assert p_variation(path, 1.0) == pvar_full_dp(path.values, 1.0)

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


class TestYoungIntegral:
    def test_polynomial_pair_left_tag_converges(self):
        # int_0^1 t d(t^2) = 2/3; left sums converge at first order.
        errs = []
        for n in (128, 256):
            g = TimeGrid(1.0, n)
            x = SampledPath.from_function(g, lambda t: t)
            y = SampledPath.from_function(g, lambda t: t * t)
            errs.append(abs(young_integral(x, y) - 2.0 / 3.0))
        assert errs[1] < 0.6 * errs[0]

    def test_constant_integrand_telescopes_exactly(self):
        g = TimeGrid(1.0, 50)
        w = sample_wiener(g, 2, seed=5)
        c = np.array([2.0, -1.0])
        x = SampledPath(g, np.tile(c, (g.n_nodes, 1)))
        expected = float(c @ (w.values[-1] - w.values[0]))
        for tag in ("left", "right", "midpoint"):
            assert young_integral(x, w, tag) == pytest.approx(expected, abs=1e-12)

    def test_matches_reference_sums_all_tags(self):
        g = TimeGrid(1.0, 33)
        x = random_path(33, 2, seed=1)
        y = random_path(33, 2, seed=2)
        for tag in ("left", "right", "midpoint"):
            assert young_integral(x, y, tag) == pytest.approx(
                young_sum_reference(x.values, y.values, tag), abs=1e-12
            )

    def test_scalar_integrand_against_vector_integrator(self):
        g = TimeGrid(1.0, 16)
        x = SampledPath.from_function(g, lambda t: t)
        y = sample_wiener(g, 3, seed=7)
        out = young_integral(x, y)
        assert np.shape(out) == (3,)

    def test_linearity_in_integrand(self):
        g = TimeGrid(1.0, 32)
        x1, x2 = random_path(32, 1, seed=8), random_path(32, 1, seed=9)
        y = random_path(32, 1, seed=10)
        lhs = young_integral(SampledPath(g, 2 * x1.values + 3 * x2.values), y)
        assert lhs == pytest.approx(2 * young_integral(x1, y) + 3 * young_integral(x2, y))

    def test_bad_tag_rejected(self):
        g = TimeGrid(1.0, 4)
        x = SampledPath.zeros(g, 1)
        with pytest.raises(InvalidParameterError):
            young_integral(x, x, tag="trapezoid")


class TestYoungBound:
    def test_identity_pair_hand_values(self):
        # x(t) = y(t) = t, p = q = 1: lhs = |1/2 - 0| and rhs = 2.
        g = TimeGrid(1.0, 256)
        x = SampledPath.from_function(g, lambda t: t)
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
        with pytest.raises(InvalidParameterError):
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
        zeta = SampledPath.from_function(g, lambda t: np.array([t, t * t]))
        obs = build_observation(zeta, 0.0, seed=4)
        assert np.array_equal(obs.values, zeta.values)

    def test_build_observation_rejects_negative_noise(self):
        zeta = SampledPath.zeros(TimeGrid(1.0, 8), 2)
        with pytest.raises(InvalidParameterError, match="noise_scale"):
            build_observation(zeta, -1.0, seed=4)

    def test_wiener_rng_reproducible(self):
        assert wiener_rng(7, 3).normal() == wiener_rng(7, 3).normal()
