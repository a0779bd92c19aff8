"""Closed-loop benchmark of roughassim: one client, one operation at a time.

    python3 perfbench/run.py --workload l63_twin --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; roughassim is imported from
``src/`` of that checkout and nowhere else.  With ``--trace 0`` the run
measures set-up time, then runs operations on fresh seeded inputs for
``--seconds`` and prints the end-to-end metrics.  With ``--trace 1`` it runs
a fixed window of inputs, each once plain and once under the per-layer
tracer, and prints the per-layer metrics.  Every operation's outputs are
checked.  The last line of stdout is the result object; the line before it
holds details (environment, sample counts, per-operation times).  Workloads
and metrics are documented in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "ops_per_s": "1/s",
    "error_ratio": "1",
    "ok_frac": "1",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("l63_twin", "l96_ensemble", "diagnostics")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every input for the smoke test",
    )
    return parser.parse_args(argv)


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    import roughassim

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "backend": getattr(roughassim, "BACKEND", None),
    }


def measure_setup(workload, seed: int):
    """Median wall time from spawning a process to its first operation ready."""
    config = workload.setup_config(seed)
    cmd = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload.name]
    if config is not None:
        cmd.append(str(config))
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.communicate(timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return statistics.median(samples), samples


class Tally:
    """Attempted and failed operations, with the first few problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, outcome):
        self.attempted += 1
        if outcome.problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(outcome.problems)

    def detail(self) -> dict:
        return {
            "problems": self.problems,
            "fail_frac": {"value": self.failed / self.attempted, "unit": "1"},
        }


def attempt(workload, op_input, runner=None):
    """Run, time and check one operation; returns (seconds, Outcome)."""
    from perfbench.workloads import Outcome

    t0 = time.perf_counter()
    try:
        produced = runner(workload.run, op_input) if runner else workload.run(op_input)
    except Exception:  # an operation that raises is a failed operation
        return time.perf_counter() - t0, Outcome(problems=[traceback.format_exc(limit=3)])
    elapsed = time.perf_counter() - t0
    return elapsed, workload.check(op_input, produced)


def _same_outputs(first, second, what: str):
    """Flag ``second`` when both produced outputs and they differ."""
    if first.digest and second.digest and first.digest != second.digest:
        second.problems.append(f"{what} gave different outputs")


def timed_run(workload, seed: int, seconds: float):
    setup_s, setup_samples = measure_setup(workload, seed)
    tally = Tally()
    durations, outcomes = [], []
    start = time.perf_counter()
    while not durations or time.perf_counter() - start < seconds:
        elapsed, outcome = attempt(workload, workload.prepare(seed, len(durations)))
        tally.record(outcome)
        durations.append(elapsed)
        outcomes.append(outcome)
    if workload.name == "l63_twin":
        # rerun the first input: its artifacts must repeat byte for byte
        _, again = attempt(workload, workload.prepare(seed, 0))
        _same_outputs(outcomes[0], again, "rerun of input 0")
        tally.record(again)
    ratios = [o.error_ratio for o in outcomes if o.error_ratio is not None]
    metrics = {
        "setup_s": setup_s,
        "solve_s": statistics.median(durations),
        "ops_per_s": len(durations) / sum(durations),
        # 1.0 only when no operation produced outputs, which fails the run
        "error_ratio": statistics.median(ratios) if ratios else 1.0,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    detail = {"ops": len(durations), "op_s": durations, "setup_samples_s": setup_samples}
    if workload.name != "diagnostics":
        detail["rmse_ratio"] = {"value": metrics["error_ratio"], "unit": "1"}
    return metrics, END_TO_END, tally, True, detail


def traced_run(workload, seed: int, seconds: float):
    from perfbench import tracing, workloads

    window = max(1, round(seconds / (2 * workloads.NOMINAL_OP_S[workload.name])))
    tracer = tracing.Tracer()
    tally = Tally()
    plain_s = []
    for index in range(window):
        plain_first = index % 2 == 0  # alternate which side of the pair runs first
        if plain_first:
            elapsed, plain = attempt(workload, workload.prepare(seed, index))
        _, traced = attempt(workload, workload.prepare(seed, index), tracer.trace)
        if not plain_first:
            elapsed, plain = attempt(workload, workload.prepare(seed, index))
        _same_outputs(plain, traced, f"traced input {index}")
        tally.record(plain)
        tally.record(traced)
        plain_s.append(elapsed)
    metrics, gap = tracer.layer_metrics(plain_s)
    detail = {"ops": 2 * window, "op_s": plain_s, "self_time_gap": gap}
    return metrics, tracing.UNITS, tally, gap < 1e-9, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "roughassim" / "__init__.py").is_file():
        print(f"error: no roughassim sources under {SRC}", file=sys.stderr)
        return 2
    # One client and no thread fan-out: keep BLAS on the calling thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import roughassim

    if Path(roughassim.__file__).resolve().parent != SRC / "roughassim":
        print(f"error: roughassim imported from {roughassim.__file__}", file=sys.stderr)
        return 2
    from perfbench import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[args.workload](workdir, tiny=args.size == "tiny")
        runner = traced_run if args.trace else timed_run
        metrics, units, tally, sound, detail = runner(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "environment": environment(),
        **tally.detail(),
        **detail,
    }
    print(json.dumps({"detail": detail}))
    result = {
        "correct": tally.failed == 0 and sound,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
