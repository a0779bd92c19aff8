"""Twin-experiment harness: config parsing, simulate/assimilate drivers.

A single JSON document describes the model, grid, truth, observations,
cost family, control set, and optimizer; the harness manufactures the
integrated observation path from the truth (cumulative trapezoid of the
observation function along the trajectory) plus scaled Wiener noise, and
serializes everything as CSV paths plus JSON results.  Outputs are
byte-identical across reruns with equal config and seeds; wall-clock
timings are only emitted on request so the default artifacts stay
deterministic.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .cost import (
    CostSpec,
    QuadraticCostSpec,
    build_minimum_energy,
    build_onsager_machlup,
    coordinate_observation,
    eval_cost,
)
from .dynamics import (
    ModelSpec,
    initial_state,
    integrate_state,
    linear_model,
    lorenz63_model,
    lorenz96_model,
)
from .errors import InvalidSpecError
from .grid import SampledPath, TimeGrid, _noise_scale, _seed, frozen_array
from .grid import read_path_csv, write_path_csv
from .optimizer import AssimilationResult, OptimizerConfig, minimize_batch
from .problem import AssimilationProblem, ControlSetSpec
from .roughpath import build_observation, wiener_rng

RESULT_SCHEMA_VERSION = 1


@dataclass
class ExperimentConfig:
    """A checked config; :func:`build_cost` builds its cost from ``quad`` (h, R and S)."""

    model: ModelSpec
    grid: TimeGrid
    truth_initial_state: np.ndarray
    quad: QuadraticCostSpec
    noise_scale: float
    seed: int
    cost_kind: str
    assim_initial_state: np.ndarray
    control_set: ControlSetSpec
    optimizer: OptimizerConfig
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def obs_dim(self) -> int:
        return self.quad.obs_dim


def _matrix_from_config(value, dim, label):
    """A weight: a number times the identity, or a ``dim`` x ``dim`` array."""
    M = frozen_array(value, label)
    if M.ndim == 0:
        return float(M) * np.eye(dim)
    if M.shape != (dim, dim):
        raise InvalidSpecError(f"{label} must be {dim}x{dim}, got {M.shape}")
    return M


# The keys of the config and of each section that is not a constructor call;
# a constructor rejects a key that is no keyword of its own.
_KEYS = {
    "config": ("model", "grid", "truth", "observation", "assimilation", "cost", "control_set",
               "optimizer"),
    "model": ("name", "params"),
    "truth": ("initial_state",),
    "observation": ("h_indices", "R", "noise_scale", "seed"),
    "assimilation": ("initial_state",),
    "cost": ("kind", "S"),
}


def _section(section, label: str) -> dict:
    """``section``, checked to be an object that holds only the keys ``_KEYS[label]``."""
    if not isinstance(section, dict):
        raise InvalidSpecError(f"{label} must be an object, got {section!r}")
    unknown = [key for key in section if key not in _KEYS[label]]
    if unknown:
        raise InvalidSpecError(f"unknown key {unknown[0]!r} in {label}")
    return section


def _build_model(section: dict) -> ModelSpec:
    models = {"lorenz63": lorenz63_model, "lorenz96": lorenz96_model, "linear": linear_model}
    name = _section(section, "model").get("name")
    if name not in models:
        raise InvalidSpecError(f"unknown model name {name!r}")
    return models[name](**section.get("params", {}))


def load_config(source: dict | str | os.PathLike) -> ExperimentConfig:
    """Parse an experiment config from a dict or the path of a UTF-8 JSON file.

    Every rule is checked here, the weights' and the cost's included, so
    every command accepts and rejects the same configs before it writes.
    """
    if isinstance(source, dict):
        raw = source
    elif not isinstance(source, (str, os.PathLike)):
        raise InvalidSpecError(f"a config is a dict or a path, got {source!r}")
    else:
        try:
            raw = json.loads(Path(source).read_text(encoding="utf-8"))
        except (OSError, ValueError) as err:  # not UTF-8, not JSON, or a NUL in the path
            raise InvalidSpecError(f"unreadable experiment config: {err}") from err
    try:
        _section(raw, "config")
        model = _build_model(raw["model"])
        grid = TimeGrid(**raw["grid"])
        truth = _section(raw["truth"], "truth")
        truth_x0 = initial_state(model, truth["initial_state"], name="truth initial state")
        obs = _section(raw["observation"], "observation")
        h_indices = obs.get("h_indices", "full")
        if h_indices == "full":
            h_indices = range(model.state_dim)
        R = _matrix_from_config(obs.get("R", 1.0), len(h_indices), "R")
        cost_section = _section(raw.get("cost", {}), "cost")
        S = _matrix_from_config(cost_section.get("S", 1.0), model.control_dim, "S")
        quad = QuadraticCostSpec(*coordinate_observation(h_indices, model.state_dim), R, S)
        assim = _section(raw.get("assimilation", {}), "assimilation")
        assim_x0 = initial_state(model, assim.get("initial_state", truth["initial_state"]),
                                 name="assimilation initial state")
        control_set = ControlSetSpec(**raw.get("control_set", {}))
        control_set.check(model.control_dim)
        optimizer = OptimizerConfig(**raw.get("optimizer", {}))
        cfg = ExperimentConfig(
            model=model,
            grid=grid,
            truth_initial_state=truth_x0,
            quad=quad,
            noise_scale=_noise_scale(obs.get("noise_scale", 0.1)),
            seed=_seed(obs.get("seed", 0), "seed"),
            cost_kind=cost_section.get("kind", "minimum_energy"),
            assim_initial_state=assim_x0,
            control_set=control_set,
            optimizer=optimizer,
            raw=raw,
        )
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        if isinstance(err, InvalidSpecError):
            raise
        raise InvalidSpecError(f"malformed experiment config: {err}") from err
    build_cost(cfg)
    return cfg


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def build_cost(config: ExperimentConfig) -> CostSpec:
    """The config's ``cost_kind`` cost on its observation and weights."""
    if config.cost_kind == "minimum_energy":
        return build_minimum_energy(config.quad)
    if config.cost_kind == "onsager_machlup":
        return build_onsager_machlup(config.quad, config.model)
    raise InvalidSpecError(f"unknown cost kind {config.cost_kind!r}")


def simulate_truth(config: ExperimentConfig):
    """Integrate the uncontrolled truth and manufacture the observation path.

    zeta is the cumulative trapezoid of h(t, x_truth(t)) (integrated
    observations); eta adds noise_scale times a Wiener sample.
    """
    u_truth = SampledPath.zeros(config.grid, config.model.control_dim)
    truth = integrate_state(config.model, u_truth, config.truth_initial_state, config.grid)
    hv = config.quad.h(config.grid.times, truth.values)
    zeta_vals = np.zeros_like(hv)
    dt = config.grid.dt
    np.cumsum(0.5 * dt * (hv[:-1] + hv[1:]), axis=0, out=zeta_vals[1:])
    zeta = SampledPath(config.grid, zeta_vals)
    eta = build_observation(zeta, config.noise_scale, config.seed)
    return truth, eta


def _manifest(config: ExperimentConfig, phases=None) -> dict:
    manifest = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "artifact_version": __version__,
        "config_hash": config_hash(config),
        "seeds": {"observation": config.seed},
    }
    if phases is not None:
        manifest["wall_clock_s"] = round(sum(phases.values()), 6)
        manifest["per_phase_s"] = {k: round(v, 6) for k, v in phases.items()}
    return manifest


def _write_json(path: Path, payload: dict) -> None:
    try:
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    except OSError as err:
        raise InvalidSpecError(f"cannot write {str(path)!r}: {err}") from err


def check_outdir(outdir, artifacts=()) -> Path:
    """Reject, creating nothing, an output directory ``make_outdir`` could
    not make: a path naming a non-directory, or one whose nearest existing
    ancestor is not a directory; and reject an ``artifacts`` name in it that
    is a directory; anything but a path is an invalid input too."""
    if not isinstance(outdir, (str, os.PathLike)):
        raise InvalidSpecError(f"an output directory is named by a path, got {outdir!r}")
    outdir = Path(outdir)
    try:
        existing = next(p for p in (outdir, *outdir.parents) if p.exists())
    except OSError as err:
        raise InvalidSpecError(f"cannot use {str(outdir)!r} as output directory: {err}") from err
    if not existing.is_dir():
        raise InvalidSpecError(
            f"cannot use {str(outdir)!r} as output directory: {str(existing)!r} is not a directory"
        )
    for name in artifacts:
        if (outdir / name).is_dir():
            raise InvalidSpecError(f"cannot write {str(outdir / name)!r}: it is a directory")
    return outdir


def make_outdir(outdir, artifacts=()) -> Path:
    """Create an output directory after :func:`check_outdir` accepts it and
    its ``artifacts``; a path that cannot be one is an invalid input."""
    outdir = check_outdir(outdir, artifacts)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as err:  # ValueError: a NUL in the path
        raise InvalidSpecError(f"cannot use {str(outdir)!r} as output directory: {err}") from err
    return outdir


def cmd_simulate(config: ExperimentConfig, outdir, timings: bool = False) -> dict:
    """Write truth.csv, eta.csv, manifest.json into outdir."""
    outdir = make_outdir(outdir, ("truth.csv", "eta.csv", "manifest.json"))
    t0 = time.perf_counter()
    truth, eta = simulate_truth(config)
    elapsed = time.perf_counter() - t0
    write_path_csv(truth, outdir / "truth.csv")
    write_path_csv(eta, outdir / "eta.csv")
    manifest = _manifest(config, {"simulate": elapsed} if timings else None)
    _write_json(outdir / "manifest.json", manifest)
    return manifest


def rmse_between(a: SampledPath, b: SampledPath) -> float:
    """Root mean square of the Euclidean state error over all grid nodes."""
    diff = a.values - b.values
    return float(np.sqrt(np.mean(np.sum(diff**2, axis=1))))


def _multistart_initials(config: ExperimentConfig):
    grid, m = config.grid, config.model.control_dim
    yield SampledPath.zeros(grid, m)
    for k in range(1, config.optimizer.multistart):
        rng = wiener_rng(config.seed, stream=1000 + k)
        yield SampledPath(grid, 0.1 * rng.normal(size=(grid.n_nodes, m)))


def run_assimilation(config: ExperimentConfig, eta, jobs: int = 1) -> AssimilationResult:
    """Minimize from the configured initial state, best result over multistarts.

    The starts run as one lockstep batch (:func:`minimize_batch`), so each
    result is the one its start gives alone.  ``jobs`` is kept for callers
    that pass ``jobs=1`` and accepts no other value.
    """
    if jobs != 1:
        raise InvalidSpecError(f"run_assimilation takes jobs=1 only, got {jobs!r}")
    problem = AssimilationProblem(config.model, build_cost(config), eta, config.control_set)
    starts = [(config.assim_initial_state, u0) for u0 in _multistart_initials(config)]
    results = minimize_batch(problem, starts, config.optimizer)
    return min(results, key=lambda r: r.final_cost)


def _read_checked_path(config: ExperimentConfig, filename, label: str, dim: int) -> SampledPath:
    """Read a path CSV and check it against the config's grid and a dimension."""
    path = read_path_csv(filename)
    g = path.grid
    if not config.grid.matches(g):
        raise InvalidSpecError(
            f"{label} grid ({g.T}, {g.n_steps}) does not match config grid "
            f"({config.grid.T}, {config.grid.n_steps})"
        )
    if path.dim != dim:
        raise InvalidSpecError(f"{label} has {path.dim} components, the config needs {dim}")
    return path


def read_observation(config: ExperimentConfig, eta_file) -> SampledPath:
    """Read an observation CSV and check it against the config's grid and h."""
    return _read_checked_path(config, eta_file, "eta", config.obs_dim)


def cmd_assimilate(
    config: ExperimentConfig,
    eta_file,
    outdir,
    truth_file=None,
    timings: bool = False,
) -> dict:
    """Run the assimilation and write estimate/control/costate CSVs + result.json.

    The truth path, ``truth_file`` or, if None, a truth.csv beside
    ``eta_file`` if there is one, is read and checked before the solve.
    """
    eta = read_observation(config, eta_file)
    sibling = Path(eta_file).parent / "truth.csv"
    if truth_file is None and sibling.exists():
        truth_file = sibling
    n = config.model.state_dim
    truth = None if truth_file is None else _read_checked_path(config, truth_file, "truth", n)
    outdir = make_outdir(outdir, ("estimate.csv", "control.csv", "costate.csv", "result.json"))
    t0 = time.perf_counter()
    result = run_assimilation(config, eta)
    elapsed = time.perf_counter() - t0

    triple = result.triple
    write_path_csv(triple.x, outdir / "estimate.csv")
    write_path_csv(triple.u, outdir / "control.csv")
    write_path_csv(triple.lam, outdir / "costate.csv")

    payload = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "config_hash": config_hash(config),
        "status": result.status,
        "iterations": result.iterations,
        "final_cost": result.final_cost,
        "grad_norm": result.grad_norm_trace[-1],
        "mp_residual": result.mp_residual,
        "cost_kind": config.cost_kind,
    }
    # Both quadratic-family costs evaluated at the converged pair, when defined.
    me = build_minimum_energy(config.quad)
    payload["cost_minimum_energy"] = eval_cost(me, triple.x, triple.u, eta)
    try:
        om = build_onsager_machlup(config.quad, config.model)
        payload["cost_onsager_machlup"] = eval_cost(om, triple.x, triple.u, eta)
    except InvalidSpecError:
        payload["cost_onsager_machlup"] = None

    if truth is not None:
        payload["rmse_estimate"] = rmse_between(triple.x, truth)
        free_run = integrate_state(
            config.model,
            SampledPath.zeros(config.grid, config.model.control_dim),
            config.assim_initial_state,
            config.grid,
        )
        payload["rmse_free_run"] = rmse_between(free_run, truth)

    if timings:
        payload["wall_clock_s"] = round(elapsed, 6)
    _write_json(outdir / "result.json", payload)
    return payload
