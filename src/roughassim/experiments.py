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
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

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
    Lorenz63Params,
    ModelSpec,
    integrate_state,
    linear_model,
    lorenz63_model,
    lorenz96_model,
)
from .errors import InvalidParameterError, InvalidSpecError, UnsupportedCostError
from .grid import SampledPath, TimeGrid, read_path_csv, write_path_csv
from .optimizer import AssimilationResult, ControlSetSpec, OptimizerConfig, minimize_batch
from .roughpath import build_observation, wiener_rng

RESULT_SCHEMA_VERSION = 1


@dataclass
class ExperimentConfig:
    model: ModelSpec
    grid: TimeGrid
    truth_initial_state: np.ndarray
    truth_control: Optional[np.ndarray]
    h_indices: list
    R: np.ndarray
    noise_scale: float
    seed: int
    cost_kind: str
    S: np.ndarray
    assim_initial_state: np.ndarray
    control_set: ControlSetSpec
    optimizer: OptimizerConfig
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def obs_dim(self) -> int:
        return len(self.h_indices)


def _matrix_from_config(value, dim, label):
    if np.isscalar(value):
        return _number(value, label) * np.eye(dim)
    M = _array(value, label)
    if M.shape != (dim, dim):
        raise InvalidSpecError(f"{label} must be {dim}x{dim}, got {M.shape}")
    return M


def _build_model(section: dict) -> ModelSpec:
    name = section.get("name")
    params = section.get("params", {})
    if name == "linear":
        B = params.get("B")
        return linear_model(_array(params["A"], "A"), None if B is None else _array(B, "B"))
    if name not in ("lorenz63", "lorenz96"):
        raise InvalidSpecError(f"unknown model name {name!r}")
    # The Lorenz parameters are JSON numbers, the Lorenz'96 dimension an integer.
    kw = {k: (_integer if k == "n" else _number)(v, k) for k, v in params.items()}
    return lorenz63_model(Lorenz63Params(**kw)) if name == "lorenz63" else lorenz96_model(**kw)


def _build_control_set(section: dict, m: int) -> ControlSetSpec:
    kind = section.get("kind", "all_space")
    if kind == "all_space":
        return ControlSetSpec()
    if kind == "box":
        lo = np.broadcast_to(_array(section["lo"], "lo"), (m,))
        hi = np.broadcast_to(_array(section["hi"], "hi"), (m,))
        return ControlSetSpec(kind="box", lo=lo, hi=hi)
    if kind == "ball":
        center = np.broadcast_to(_array(section.get("center", 0.0), "center"), (m,))
        radius = _number(section["radius"], "radius")
        return ControlSetSpec(kind="ball", center=center, radius=radius)
    raise InvalidSpecError(f"unknown control set kind {kind!r}")


def _number(value, label: str) -> float:
    """A JSON number as a float; a string or a boolean is an error, not a coercion."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidSpecError(f"{label} must be a number, got {value!r}")
    return float(value)


def _integer(value, label: str) -> int:
    """An integral JSON number as an int; 2.5 is an error, not a truncation."""
    if not _number(value, label).is_integer():
        raise InvalidSpecError(f"{label} must be an integer, got {value!r}")
    return int(value)


def _array(value, label: str) -> np.ndarray:
    """A JSON number or nested list of numbers as a float array.

    As in :func:`_number`, a string or a boolean entry is an error; so is a
    NaN or an infinite one.
    """
    entries = np.asarray(value, dtype=object)
    out = np.array([_number(v, f"{label} entry") for v in entries.flat]).reshape(entries.shape)
    if not np.all(np.isfinite(out)):
        raise InvalidSpecError(f"{label} must be finite, got {value!r}")
    return out


def load_config(source) -> ExperimentConfig:
    """Parse an experiment config from a dict or the path of a UTF-8 JSON file."""
    if isinstance(source, dict):
        raw = source
    else:
        try:
            raw = json.loads(Path(source).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
            raise InvalidSpecError(f"unreadable experiment config: {err}") from err
    try:
        model = _build_model(raw["model"])
        g = raw["grid"]
        grid = TimeGrid(_number(g["T"], "T"), _integer(g["n_steps"], "n_steps"))
        truth = raw["truth"]
        truth_x0 = _array(truth["initial_state"], "initial_state")
        truth_u = truth.get("control")
        if truth_u is not None:
            truth_u = _array(truth_u, "truth control")
        obs = raw["observation"]
        h_indices = obs.get("h_indices", "full")
        if h_indices == "full":
            h_indices = list(range(model.state_dim))
        h_indices = [_integer(i, "h_indices entry") for i in h_indices]
        R = _matrix_from_config(obs.get("R", 1.0), len(h_indices), "R")
        cost_section = raw.get("cost", {})
        cost_kind = cost_section.get("kind", "minimum_energy")
        if cost_kind not in ("minimum_energy", "onsager_machlup"):
            raise InvalidSpecError(f"unknown cost kind {cost_kind!r}")
        S = _matrix_from_config(cost_section.get("S", 1.0), model.control_dim, "S")
        assim = raw.get("assimilation", {})
        assim_x0 = _array(assim.get("initial_state", truth["initial_state"]), "initial_state")
        control_set = _build_control_set(raw.get("control_set", {}), model.control_dim)
        optimizer = OptimizerConfig(**raw.get("optimizer", {}))
        cfg = ExperimentConfig(
            model=model,
            grid=grid,
            truth_initial_state=truth_x0,
            truth_control=truth_u,
            h_indices=h_indices,
            R=R,
            noise_scale=_number(obs.get("noise_scale", 0.1), "noise_scale"),
            seed=_integer(obs.get("seed", 0), "seed"),
            cost_kind=cost_kind,
            S=S,
            assim_initial_state=assim_x0,
            control_set=control_set,
            optimizer=optimizer,
            raw=raw,
        )
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        if isinstance(err, InvalidSpecError):
            raise
        raise InvalidSpecError(f"malformed experiment config: {err}") from err
    n = model.state_dim
    if truth_x0.shape != (n,) or assim_x0.shape != (n,):
        raise InvalidSpecError("initial states must match the model state dimension")
    if truth_u is not None and truth_u.shape != (model.control_dim,):
        raise InvalidSpecError("truth control must match the model control dimension")
    if not all(0 <= i < n for i in h_indices):
        raise InvalidSpecError(f"h_indices {h_indices} out of range for state dimension {n}")
    if not (0.0 <= cfg.noise_scale < np.inf):
        raise InvalidSpecError(f"noise_scale must be finite and nonnegative, got {cfg.noise_scale}")
    # The generator key is seed + stream * 2**64: a larger seed would draw
    # another seed's stream.
    if not 0 <= cfg.seed < 1 << 64:
        raise InvalidSpecError(f"seed must be in [0, 2**64), got {cfg.seed}")
    return cfg


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def build_cost(config: ExperimentConfig) -> CostSpec:
    h, h_jac = coordinate_observation(config.h_indices, config.model.state_dim)
    quad = QuadraticCostSpec(h=h, h_jac=h_jac, R=config.R, S=config.S)
    if config.cost_kind == "minimum_energy":
        return build_minimum_energy(quad)
    return build_onsager_machlup(quad, config.model)


def _truth_control_path(config: ExperimentConfig) -> SampledPath:
    if config.truth_control is None:
        return SampledPath.zeros(config.grid, config.model.control_dim)
    vals = np.tile(config.truth_control, (config.grid.n_nodes, 1))
    return SampledPath(config.grid, vals)


def simulate_truth(config: ExperimentConfig):
    """Integrate the truth and manufacture the observation path.

    zeta is the cumulative trapezoid of h(t, x_truth(t)) (integrated
    observations); eta adds noise_scale times a Wiener sample.
    """
    u_truth = _truth_control_path(config)
    truth = integrate_state(config.model, u_truth, config.truth_initial_state, config.grid)
    h, _ = coordinate_observation(config.h_indices, config.model.state_dim)
    hv = h(config.grid.times, truth.values)
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
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def check_outdir(outdir) -> None:
    """Reject, creating nothing, an output directory ``make_outdir`` could
    not make: a path naming a non-directory, or one whose nearest existing
    ancestor is not a directory."""
    outdir = Path(outdir)
    try:
        existing = next(p for p in (outdir, *outdir.parents) if p.exists())
    except OSError as err:
        raise InvalidSpecError(f"cannot use {str(outdir)!r} as output directory: {err}") from err
    if not existing.is_dir():
        raise InvalidSpecError(
            f"cannot use {str(outdir)!r} as output directory: {str(existing)!r} is not a directory"
        )


def make_outdir(outdir) -> Path:
    """Create an output directory; a path that cannot be one is an invalid input."""
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise InvalidSpecError(f"cannot use {str(outdir)!r} as output directory: {err}") from err
    return outdir


def cmd_simulate(config: ExperimentConfig, outdir, timings: bool = False) -> dict:
    """Write truth.csv, eta.csv, manifest.json into outdir."""
    outdir = make_outdir(outdir)
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
        raise InvalidParameterError(f"run_assimilation takes jobs=1 only, got {jobs!r}")
    results = minimize_batch(
        config.model, build_cost(config), eta, config.assim_initial_state,
        _multistart_initials(config), config.control_set, config.optimizer,
    )
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

    The truth path (``truth_file``, else a truth.csv beside ``eta_file``)
    is read and checked, if there is one, before the solve.
    """
    eta = read_observation(config, eta_file)
    truth_candidate = Path(truth_file) if truth_file else Path(eta_file).parent / "truth.csv"
    truth = None
    if truth_candidate.exists():
        truth = _read_checked_path(config, truth_candidate, "truth", config.model.state_dim)
    outdir = make_outdir(outdir)
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
    me_cfg = replace(config, cost_kind="minimum_energy")
    payload["cost_minimum_energy"] = eval_cost(build_cost(me_cfg), triple.x, triple.u, eta)
    try:
        om_cfg = replace(config, cost_kind="onsager_machlup")
        payload["cost_onsager_machlup"] = eval_cost(build_cost(om_cfg), triple.x, triple.u, eta)
    except (InvalidSpecError, UnsupportedCostError):
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
