import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import pvar_exhaustive, young_sum_reference
from roughassim.errors import InvalidParameterError
from roughassim.grid import SampledPath, TimeGrid
from roughassim.roughpath import (
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

    def test_node_cap(self):
        path = random_path(64, 1, seed=0)
        with pytest.raises(InvalidParameterError):
            p_variation(path, 2.0, max_nodes=32)
        p_variation(path, 2.0, max_nodes=65)  # explicit override works

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

    def test_cumulative_endpoint_equals_total(self):
        g = TimeGrid(1.0, 64)
        x = random_path(64, 1, seed=3)
        y = random_path(64, 1, seed=4)
        total, running = young_integral(x, y, cumulative=True)
        assert running.values[0, 0] == 0.0
        assert running.values[-1, 0] == pytest.approx(total)

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

    def test_wiener_rng_reproducible(self):
        assert wiener_rng(7, 3).normal() == wiener_rng(7, 3).normal()
