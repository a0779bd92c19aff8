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
    OnsagerMachlupSpec,
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
from .grid import ObservationPath, SampledPath, TimeGrid, read_path_csv, write_path_csv
from .optimizer import AssimilationResult, ControlSetSpec, OptimizerConfig, minimize
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
    M = np.asarray(value, dtype=float)
    if M.shape != (dim, dim):
        raise InvalidSpecError(f"{label} must be {dim}x{dim}, got {M.shape}")
    return M


def _build_model(section: dict) -> ModelSpec:
    name = section.get("name")
    params = section.get("params", {})
    if name == "lorenz63":
        return lorenz63_model(Lorenz63Params(**params)) if params else lorenz63_model()
    if name == "lorenz96":
        return lorenz96_model(**params) if params else lorenz96_model()
    if name == "linear":
        return linear_model(params["A"], params.get("B"))
    raise InvalidSpecError(f"unknown model name {name!r}")


def _build_control_set(section: dict, m: int) -> ControlSetSpec:
    kind = section.get("kind", "all_space")
    if kind == "all_space":
        return ControlSetSpec()
    if kind == "box":
        lo = np.broadcast_to(np.asarray(section["lo"], dtype=float), (m,))
        hi = np.broadcast_to(np.asarray(section["hi"], dtype=float), (m,))
        return ControlSetSpec(kind="box", lo=lo, hi=hi)
    if kind == "ball":
        center = np.broadcast_to(
            np.asarray(section.get("center", 0.0), dtype=float), (m,)
        )
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


def load_config(source) -> ExperimentConfig:
    """Parse an experiment config from a dict, JSON text, or file path."""
    if isinstance(source, dict):
        raw = source
    else:
        try:
            text = Path(source).read_text() if not str(source).lstrip().startswith("{") else str(source)
            raw = json.loads(text)
        except (OSError, json.JSONDecodeError) as err:
            raise InvalidSpecError(f"unreadable experiment config: {err}") from err
    try:
        model = _build_model(raw["model"])
        g = raw["grid"]
        grid = TimeGrid(_number(g["T"], "T"), _integer(g["n_steps"], "n_steps"))
        truth = raw["truth"]
        truth_x0 = np.asarray(truth["initial_state"], dtype=float)
        truth_u = truth.get("control")
        if truth_u is not None:
            truth_u = np.asarray(truth_u, dtype=float)
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
        assim_x0 = np.asarray(assim.get("initial_state", truth["initial_state"]), dtype=float)
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
    if not (np.all(np.isfinite(truth_x0)) and np.all(np.isfinite(assim_x0))):
        raise InvalidSpecError("initial states must be finite")
    if truth_u is not None and truth_u.shape != (model.control_dim,):
        raise InvalidSpecError("truth control must match the model control dimension")
    if not all(0 <= i < n for i in h_indices):
        raise InvalidSpecError(f"h_indices {h_indices} out of range for state dimension {n}")
    if not (0.0 <= cfg.noise_scale < np.inf):
        raise InvalidSpecError(f"noise_scale must be finite and nonnegative, got {cfg.noise_scale}")
    if cfg.seed < 0:
        raise InvalidSpecError(f"seed must be nonnegative, got {cfg.seed}")
    return cfg


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def build_cost(config: ExperimentConfig) -> CostSpec:
    h, h_jac = coordinate_observation(config.h_indices, config.model.state_dim)
    quad = QuadraticCostSpec(
        h=h,
        h_jac=h_jac,
        R=config.R,
        S=config.S,
        obs_dim=config.obs_dim,
        control_dim=config.model.control_dim,
    )
    if config.cost_kind == "minimum_energy":
        return build_minimum_energy(quad)
    # The built-in models have a state-independent drift divergence, so one
    # evaluation stands for the whole trajectory.
    div = config.model.divergence(0.0, np.zeros(config.model.state_dim))
    om = OnsagerMachlupSpec(base=quad, model=config.model, div_f=lambda t, x: div)
    return build_onsager_machlup(om)


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
    times = config.grid.times
    hv = np.array([h(times[i], truth.values[i]) for i in range(config.grid.n_nodes)])
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


def cmd_simulate(config: ExperimentConfig, outdir, timings: bool = False) -> dict:
    """Write truth.csv, eta.csv, manifest.json into outdir."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    truth, eta = simulate_truth(config)
    elapsed = time.perf_counter() - t0
    write_path_csv(truth, outdir / "truth.csv")
    write_path_csv(eta.path, outdir / "eta.csv")
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

    The starts are solved one after another; ``jobs`` is kept for callers
    that pass ``jobs=1`` and accepts no other value.
    """
    if jobs != 1:
        raise InvalidParameterError(f"run_assimilation is serial: jobs must be 1, got {jobs!r}")
    cost = build_cost(config)
    results = (
        minimize(
            config.model, cost, eta, config.assim_initial_state, u0,
            config.control_set, config.optimizer,
        )
        for u0 in _multistart_initials(config)
    )
    return min(results, key=lambda r: r.final_cost)


def read_observation(config: ExperimentConfig, eta_file) -> ObservationPath:
    """Read an observation CSV and check it against the config's grid and h."""
    path = read_path_csv(eta_file)
    g = path.grid
    if not config.grid.matches(g):
        raise InvalidSpecError(
            f"eta grid ({g.T}, {g.n_steps}) does not match config grid "
            f"({config.grid.T}, {config.grid.n_steps})"
        )
    if path.dim != config.obs_dim:
        raise InvalidSpecError(
            f"eta has {path.dim} observed components, config observes {config.obs_dim}"
        )
    return ObservationPath(path=path, seed=config.seed, noise_scale=config.noise_scale)


def cmd_assimilate(
    config: ExperimentConfig,
    eta_file,
    outdir,
    truth_file=None,
    timings: bool = False,
) -> dict:
    """Run the assimilation and write estimate/control/costate CSVs + result.json."""
    eta = read_observation(config, eta_file)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
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

    truth_candidate = Path(truth_file) if truth_file else Path(eta_file).parent / "truth.csv"
    if truth_candidate.exists():
        truth = read_path_csv(truth_candidate)
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
