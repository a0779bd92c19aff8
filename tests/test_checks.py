import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_walk, smooth_random
from roughassim import checks
from roughassim.checks import SUITES, run_suite
from roughassim.errors import InvalidSpecError
from roughassim.grid import TimeGrid
from roughassim.roughpath import _walks, sample_wiener


def test_suites_tuple_contents():
    assert set(SUITES) == {"roughpath", "adjoint", "duality", "gradient", "valueprobe"}


@pytest.mark.parametrize("suite", ["duality", "adjoint"])
def test_run_suite_schema_and_pass(suite):
    report = run_suite(suite, seed=3)
    assert report["schema_version"] == 1
    assert report["suite"] == suite
    assert report["seed"] == 3
    assert report["passed"] is True
    assert report["checks"]
    for rec in report["checks"]:
        assert rec["suite"] == suite
        assert isinstance(rec["name"], str)
        assert isinstance(rec["passed"], bool)
        assert rec["passed"]


def test_run_suite_all_concatenates():
    report = run_suite("all", seed=3)
    suites_seen = {rec["suite"] for rec in report["checks"]}
    assert suites_seen == set(SUITES)


@pytest.mark.parametrize("suite", ["duality", "adjoint"])
def test_the_largest_seed_runs(suite):
    # Draw s takes seed + s wrapped below 2**64, so an accepted seed never
    # turns into one the seed rule refuses halfway through the suite.
    report = run_suite(suite, seed=2**64 - 1)
    assert report["seed"] == 2**64 - 1
    assert report["checks"]


def test_mp_residual_at_minimizer_is_exactly_zero():
    # The control is the minimizer the residual's own minimum reads.
    report = run_suite("adjoint", seed=42)
    residual = {rec["name"]: rec["value"] for rec in report["checks"]}
    assert residual["mp_residual_at_minimizer"] == 0.0


def test_unknown_suite_rejected():
    with pytest.raises(InvalidSpecError):
        run_suite("nonsense", seed=0)


def test_reports_deterministic_in_seed():
    a = run_suite("duality", seed=9)
    b = run_suite("duality", seed=9)
    assert a == b


class TestStackedDraws:
    """Each suite draws a trial family as one (B, n, d) stack; member b is
    bit for bit the path its (seed, stream) draws on its own."""

    keys = st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
                    min_size=1, max_size=4)

    @given(st.integers(1, 64), st.floats(0.01, 100.0), st.integers(1, 3), keys)
    @settings(deadline=None, derandomize=True)
    def test_builders_equal_the_per_trial_draws(self, n_steps, T, dim, keys):
        grid = TimeGrid(T, n_steps)
        seed, streams = keys[0][0], [stream for _, stream in keys]

        def same(stack, paths):
            assert stack.tobytes() == np.stack([path.values for path in paths]).tobytes()

        same(_walks(grid, dim, seed, streams, 1.0),
             [random_walk(grid, dim, seed, s) for s in streams])
        wiener = _walks(grid, 1, seed, streams, np.sqrt(grid.dt))
        same(wiener, [random_walk(grid, 1, seed, s, np.sqrt(grid.dt)) for s in streams])
        same(wiener, [sample_wiener(grid, 1, seed, s) for s in streams])
        same(checks._smooth_randoms(grid, dim, keys),
             [smooth_random(grid, dim, *key) for key in keys])
