"""Workload inputs, operations and output checks for the benchmark.

Each workload turns ``(seed, index)`` into one operation input, runs the
operation through roughassim's public entry points, and checks its outputs.
The library is always reached through module attributes, so the tracer's
patches apply to every call an operation makes.  Inputs are generated here,
from the seed alone; the library only sees the generated configs and paths.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from roughassim import checks, cost, dynamics, experiments, grid

# The README's Lorenz'63 twin config.  grad_tol differs: 0.02 sits at the
# O(dt) gradient floor of the Heun costate on this grid, where about one
# seeded instance in twelve stalls (see perfbench/README.md).  The same
# floor sets grad_tol on Lorenz'96.
L63_BASE = {
    "model": {"name": "lorenz63"},
    "grid": {"T": 2.0, "n_steps": 1024},
    "truth": {"initial_state": [1.0, 1.0, 25.0]},
    "observation": {"h_indices": "full", "R": 1.0, "noise_scale": 0.1, "seed": 7},
    "assimilation": {"initial_state": [1.5, 0.5, 24.0]},
    "cost": {"kind": "minimum_energy", "S": 50.0},
    "control_set": {"kind": "all_space"},
    "optimizer": {"grad_tol": 0.05, "max_iters": 400},
}

# Euclidean distance of the assimilation start from its configured state,
# in a direction drawn from the seed.  The Lorenz'63 start is already 1.2
# off the truth, so its perturbation only varies the instance; on Lorenz'96
# the perturbation is the whole initial-state error.
L63_PERTURBATION = 0.02
L96_PERTURBATION = 0.2  # per sqrt(state dim)

# One Lorenz'96 truth start for every seed: a start drawn per seed doubled
# the spread of work per operation (interquartile 15% vs 8% of the median
# over 20 seeds), which a run of six operations cannot average away.
L96_TRUTH_SEED = 0

# run_suite at the seed `assim check` and the tests use; most other seeds
# fail duality_residual_n512 on the seed code (see README.md).
SUITE_SEED = 42

DIAGNOSTIC_SUITES = ("roughpath", "adjoint", "duality", "valueprobe")

# Tiny sizes for the smoke test: same code paths, a fraction of the work.
TINY = {
    "l63_twin": {"grid": {"T": 0.5, "n_steps": 128}},
    "l96_ensemble": {"n": 8, "grid": {"T": 0.25, "n_steps": 32}},
    "diagnostics": ("duality",),
}


@dataclass
class Outcome:
    """What the benchmark checked of one operation's outputs.

    ``error_ratio`` is rmse_estimate / rmse_free_run on the twins and the
    worst check's :func:`check_ratio` on diagnostics; an operation that
    raised has neither a digest nor a ratio.
    """

    problems: list = field(default_factory=list)
    digest: str = ""
    error_ratio: float | None = None


def _rng(seed: int, index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, index, stream])


def _perturb(state, radius: float, seed: int, index: int) -> list:
    state = np.asarray(state, dtype=float)
    direction = _rng(seed, index, 1).standard_normal(state.shape)
    return (state + radius * direction / np.linalg.norm(direction)).tolist()


def _obs_seed(seed: int, index: int) -> int:
    return int(_rng(seed, index, 2).integers(2**31))


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _twin_outcome(digest, status, final_cost, recomputed, rmse_est, rmse_free) -> Outcome:
    out = Outcome(digest=digest, error_ratio=rmse_est / rmse_free)
    if status != "converged":
        out.problems.append(f"status {status}")
    if not rmse_est < rmse_free:
        out.problems.append(f"rmse_estimate {rmse_est} >= rmse_free_run {rmse_free}")
    if recomputed != final_cost:
        out.problems.append(f"eval_cost {recomputed!r} != final_cost {final_cost!r}")
    return out


class L63Twin:
    """README Lorenz'63 twin: ``cmd_simulate`` + ``cmd_assimilate`` via CSV files."""

    name = "l63_twin"

    def __init__(self, workdir: Path, tiny: bool = False):
        self.workdir = workdir
        self.tiny = tiny

    def config(self, seed: int, index: int) -> dict:
        raw = json.loads(json.dumps(L63_BASE))
        if self.tiny:
            raw.update(TINY[self.name])
        raw["observation"]["seed"] = _obs_seed(seed, index)
        raw["assimilation"]["initial_state"] = _perturb(
            raw["assimilation"]["initial_state"], L63_PERTURBATION, seed, index
        )
        return raw

    def prepare(self, seed: int, index: int) -> Path:
        """Write the operation's config file into a fresh directory."""
        opdir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.workdir))
        (opdir / "config.json").write_text(json.dumps(self.config(seed, index)))
        return opdir

    @staticmethod
    def run(opdir: Path):
        config = experiments.load_config(str(opdir / "config.json"))
        experiments.cmd_simulate(config, opdir / "sim")
        return experiments.cmd_assimilate(config, opdir / "sim" / "eta.csv", opdir / "run")

    ARTIFACTS = (
        "sim/truth.csv",
        "sim/eta.csv",
        "sim/manifest.json",
        "run/estimate.csv",
        "run/control.csv",
        "run/costate.csv",
        "run/result.json",
    )

    def check(self, opdir: Path, payload: dict) -> Outcome:
        digest = _sha(*((opdir / a).read_bytes() for a in self.ARTIFACTS))
        config = experiments.load_config(str(opdir / "config.json"))
        eta = grid.ObservationPath(
            path=grid.read_path_csv(opdir / "sim" / "eta.csv"),
            seed=config.seed,
            noise_scale=config.noise_scale,
        )
        x = grid.read_path_csv(opdir / "run" / "estimate.csv")
        u = grid.read_path_csv(opdir / "run" / "control.csv")
        recomputed = cost.eval_cost(experiments.build_cost(config), x, u, eta)
        shutil.rmtree(opdir)
        return _twin_outcome(
            digest,
            payload["status"],
            payload["final_cost"],
            recomputed,
            payload["rmse_estimate"],
            payload["rmse_free_run"],
        )

    def setup_config(self, seed: int) -> Path:
        return self.prepare(seed, 0) / "config.json"


class L96Ensemble:
    """Lorenz'96, half the coordinates observed, Onsager-Machlup cost, box
    controls, four multistarts; in memory through ``run_assimilation``."""

    name = "l96_ensemble"

    def __init__(self, workdir: Path, tiny: bool = False):
        self.workdir = workdir
        self.tiny = tiny

    def config(self, seed: int, index: int) -> dict:
        n, g = 40, {"T": 0.5, "n_steps": 256}
        if self.tiny:
            n, g = TINY[self.name]["n"], TINY[self.name]["grid"]
        truth = (8.0 + np.random.default_rng(L96_TRUTH_SEED).standard_normal(n)).tolist()
        return {
            "model": {"name": "lorenz96", "params": {"n": n, "forcing": 8.0}},
            "grid": dict(g),
            "truth": {"initial_state": truth},
            "observation": {
                "h_indices": list(range(0, n, 2)),
                "R": 1.0,
                "noise_scale": 0.1,
                "seed": _obs_seed(seed, index),
            },
            "assimilation": {
                "initial_state": _perturb(truth, L96_PERTURBATION * np.sqrt(n), seed, index)
            },
            "cost": {"kind": "onsager_machlup"},
            "control_set": {"kind": "box", "lo": -1.0, "hi": 1.0},
            "optimizer": {"grad_tol": 0.05, "max_iters": 400, "multistart": 4},
        }

    def prepare(self, seed: int, index: int) -> dict:
        return self.config(seed, index)

    @staticmethod
    def run(raw: dict):
        config = experiments.load_config(raw)
        truth, eta = experiments.simulate_truth(config)
        result = experiments.run_assimilation(config, eta, jobs=1)
        return config, truth, eta, result

    def check(self, raw: dict, produced) -> Outcome:
        config, truth, eta, result = produced
        t = result.triple
        digest = _sha(
            t.x.values.tobytes(),
            t.u.values.tobytes(),
            t.lam.values.tobytes(),
            np.asarray(result.cost_trace).tobytes(),
        )
        recomputed = cost.eval_cost(experiments.build_cost(config), t.x, t.u, eta)
        free = dynamics.integrate_state(
            config.model,
            grid.SampledPath.zeros(config.grid, config.model.control_dim),
            config.assim_initial_state,
            config.grid,
        )
        return _twin_outcome(
            digest,
            result.status,
            result.final_cost,
            recomputed,
            experiments.rmse_between(t.x, truth),
            experiments.rmse_between(free, truth),
        )

    def setup_config(self, seed: int) -> Path:
        path = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.workdir)) / "config.json"
        path.write_text(json.dumps(self.config(seed, 0)))
        return path


def check_ratio(record: dict) -> float:
    """How close a check record sits to its tolerance: below 1 passes.

    Upper-bound checks give value / tolerance and lower-bound checks
    tolerance / value; exact checks (tolerance 0) give 0.
    """
    value, tol = abs(record["value"]), abs(record["tolerance"])
    if tol == 0.0 or value == 0.0:
        return 0.0
    low, high = min(value, tol), max(value, tol)
    return low / high if record["passed"] else high / low


class Diagnostics:
    """``run_suite`` for the roughpath, adjoint, duality and valueprobe suites."""

    name = "diagnostics"

    def __init__(self, workdir: Path, tiny: bool = False):
        self.workdir = workdir
        self.suites = TINY[self.name] if tiny else DIAGNOSTIC_SUITES

    def prepare(self, seed: int, index: int) -> int:
        return SUITE_SEED

    def run(self, suite_seed: int):
        return [checks.run_suite(name, seed=suite_seed) for name in self.suites]

    def check(self, suite_seed: int, reports) -> Outcome:
        records = [rec for report in reports for rec in report["checks"]]
        out = Outcome(
            digest=_sha(json.dumps(reports, sort_keys=True).encode()),
            error_ratio=max(check_ratio(rec) for rec in records),
        )
        for report in reports:
            if not report["passed"]:
                failed = [r["name"] for r in report["checks"] if not r["passed"]]
                out.problems.append(f"suite {report['suite']} failed {failed}")
        return out

    def setup_config(self, seed: int) -> Path | None:
        return None


WORKLOADS = {w.name: w for w in (L63Twin, L96Ensemble, Diagnostics)}

# Typical operation wall time on a 2-core x86 box; sizes the traced window.
NOMINAL_OP_S = {"l63_twin": 1.5, "l96_ensemble": 5.0, "diagnostics": 11.0}
