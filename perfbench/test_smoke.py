"""Smoke test of the benchmark at tiny sizes.

Runs every workload in both modes in-process and checks the result
contract: every metric appears with its unit, outputs check out, the
tracer restores the library, and exact counters repeat.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("l63_twin", "l96_ensemble", "diagnostics")

# The per-layer metrics the benchmark promises, with their units.
LAYER_METRICS = {
    "dynamics.integrate_state_s": "s",
    "dynamics.integrate_state_calls": "count",
    "dynamics.rk4_steps": "count",
    "dynamics.step_us": "us",
    "dynamics.blowups": "count",
    "adjoint.solve_costate_s": "s",
    "adjoint.solve_costate_calls": "count",
    "adjoint.control_gradient_s": "s",
    "adjoint.max_principle_residual_s": "s",
    "adjoint.duality_check_s": "s",
    "cost.eval_cost_s": "s",
    "cost.eval_cost_calls": "count",
    "optimizer.minimize_self_s": "s",
    "optimizer.iterations": "count",
    "optimizer.trial_evals": "count",
    "optimizer.accept_ratio": "1",
    "roughpath.p_variation_s": "s",
    "roughpath.p_variation_calls": "count",
    "roughpath.pvar_pairs": "count",
    "roughpath.build_observation_s": "s",
    "shooting.integrate_hamiltonian_s": "s",
    "shooting.integrate_hamiltonian_calls": "count",
    "grid.write_path_csv_s": "s",
    "grid.read_path_csv_s": "s",
    "grid.csv_bytes": "B",
    "experiments.simulate_s": "s",
    "experiments.assimilate_self_s": "s",
    "checks.roughpath_s": "s",
    "checks.adjoint_s": "s",
    "checks.duality_s": "s",
    "checks.valueprobe_s": "s",
    "trace.overhead_frac": "1",
}
END_TO_END = {"setup_s": "s", "solve_s": "s", "ops_per_s": "1/s", "error_ratio": "1", "ok_frac": "1"}
COUNTS = [m for m, unit in LAYER_METRICS.items() if unit in ("count", "B")]


def bench(capsys, monkeypatch, workload, trace, seed=5):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.5"]
    assert run.main(argv + ["--trace", str(trace), "--size", "tiny"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return detail, result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(capsys, monkeypatch, workload):
    detail, metrics = bench(capsys, monkeypatch, workload, trace=0)
    assert {m: v["unit"] for m, v in metrics.items()} == END_TO_END
    assert all(v["value"] > 0 for v in metrics.values())
    assert detail["fail_frac"] == {"value": 0.0, "unit": "1"}
    if workload != "diagnostics":
        assert detail["rmse_ratio"]["unit"] == "1"
        assert 0 < detail["rmse_ratio"]["value"] < 1
    env = detail["environment"]
    assert {"python", "numpy", "nproc", "blas_threads", "backend"} <= set(env)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_and_restore(capsys, monkeypatch, workload):
    import roughassim
    from roughassim import checks, dynamics, optimizer, roughpath

    _, metrics = bench(capsys, monkeypatch, workload, trace=1)
    units = {m: v["unit"] for m, v in metrics.items()}
    assert all(units.get(m) == unit for m, unit in LAYER_METRICS.items())
    layer_s = sum(metrics[m]["value"] for m in tracing.LAYER_TIME)
    total = layer_s + metrics["trace.other_self_s"]["value"]
    assert total == pytest.approx(metrics["trace.op_s"]["value"], rel=1e-9)
    assert optimizer.integrate_state is dynamics.integrate_state
    assert checks.p_variation is roughpath.p_variation is roughassim.p_variation
    assert not hasattr(dynamics.integrate_state, "__wrapped__")


def test_counters_repeat_exactly(capsys, monkeypatch):
    first = bench(capsys, monkeypatch, "l63_twin", trace=1)[1]
    second = bench(capsys, monkeypatch, "l63_twin", trace=1)[1]
    assert first["dynamics.rk4_steps"]["value"] > 0
    assert [first[m] for m in COUNTS] == [second[m] for m in COUNTS]


def test_check_ratio_reads_both_bound_directions():
    upper = {"value": 0.5, "tolerance": 2.0, "passed": True}
    lower = {"value": 4.0, "tolerance": 2.0, "passed": True}
    failed = {"value": 1.0, "tolerance": 2.0, "passed": False}
    assert workloads.check_ratio(upper) == 0.25
    assert workloads.check_ratio(lower) == 0.5
    assert workloads.check_ratio(failed) == 2.0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "l63_twin", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
