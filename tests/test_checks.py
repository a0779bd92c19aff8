import pytest

from roughassim.checks import SUITES, run_suite
from roughassim.errors import InvalidSpecError


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
