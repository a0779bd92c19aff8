import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from roughassim.cli import main
from roughassim.experiments import (
    config_hash,
    load_config,
    rmse_between,
    simulate_truth,
)
from roughassim.grid import SampledPath, TimeGrid


def lorenz_config(**overrides):
    cfg = {
        "model": {"name": "lorenz63"},
        "grid": {"T": 0.5, "n_steps": 128},
        "truth": {"initial_state": [1.0, 1.0, 25.0]},
        "observation": {"h_indices": "full", "R": 1.0, "noise_scale": 0.1, "seed": 7},
        "assimilation": {"initial_state": [1.5, 0.5, 24.0]},
        "cost": {"kind": "minimum_energy", "S": 50.0},
        "optimizer": {"grad_tol": 0.02, "max_iters": 200},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


class TestLoadConfig:
    def test_dict_and_json_text_and_file_agree(self, tmp_path):
        cfg = lorenz_config()
        a = load_config(cfg)
        b = load_config(json.dumps(cfg))
        c = load_config(write_config(tmp_path, cfg))
        assert config_hash(a) == config_hash(b) == config_hash(c)
        assert a.grid.n_steps == 128
        assert a.model.name == "lorenz63"
        assert a.obs_dim == 3

    def test_defaults_filled(self):
        cfg = load_config({
            "model": {"name": "lorenz63"},
            "grid": {"T": 1.0, "n_steps": 8},
            "truth": {"initial_state": [1.0, 1.0, 25.0]},
            "observation": {},
        })
        assert cfg.noise_scale == 0.1
        assert cfg.cost_kind == "minimum_energy"
        assert cfg.control_set.kind == "all_space"

    @pytest.mark.parametrize("breakage", [
        {"model": {"name": "lorenz64"}},
        {"grid": {"T": -1.0, "n_steps": 8}},
        {"truth": {"initial_state": [1.0, 1.0]}},
        {"observation": {"noise_scale": -0.5}},
        {"cost": {"kind": "map"}},
        {"optimizer": {"grad_tol": -1.0}},
        {"control_set": {"kind": "simplex"}},
        {"grid": {"T": float("inf"), "n_steps": 8}},
        {"observation": {"noise_scale": float("nan")}},
        {"optimizer": {"max_iters": 2.5}},
        {"optimizer": {"multistart": 0}},
        {"observation": {"h_indices": [0, 5]}},
        {"grid": {"T": 1.0, "n_steps": 2.5}},
        {"grid": {"T": "0.5", "n_steps": 8}},
        {"grid": {"T": True, "n_steps": 8}},
        {"grid": {"T": 1.0, "n_steps": True}},
        {"observation": {"noise_scale": "0.1"}},
        {"observation": {"R": "1"}},
        {"cost": {"S": "2"}},
        {"control_set": {"kind": "ball", "radius": float("nan")}},
        {"control_set": {"kind": "ball", "radius": "1"}},
        {"control_set": {"kind": "box", "lo": float("nan"), "hi": 1.0}},
        {"optimizer": {"grad_tol": 0.02, "step_init": 0.5}},
        {"optimizer": {"grad_tol": 0.02, "max_iters": True}},
    ])
    def test_malformed_sections_rejected(self, breakage):
        cfg = lorenz_config(**breakage)
        with pytest.raises(Exception) as err:
            load_config(cfg)
        assert err.type.__name__ in ("InvalidSpecError", "InvalidParameterError")

    def test_hash_is_content_addressed(self):
        a = load_config(lorenz_config())
        b = load_config(lorenz_config(grid={"T": 0.5, "n_steps": 256}))
        assert config_hash(a) != config_hash(b)
        assert config_hash(a) == config_hash(load_config(lorenz_config()))


class TestSimulateTruth:
    def test_zero_noise_observation_is_integrated_h(self):
        cfg = load_config(lorenz_config(observation={"noise_scale": 0.0, "seed": 0}))
        truth, eta = simulate_truth(cfg)
        # eta should be the cumulative trapezoid of the full state
        hv = truth.values
        dt = cfg.grid.dt
        zeta = np.zeros_like(hv)
        zeta[1:] = np.cumsum(0.5 * dt * (hv[:-1] + hv[1:]), axis=0)
        assert np.array_equal(eta.values, zeta)

    def test_noise_deterministic_in_seed(self):
        cfg = load_config(lorenz_config())
        _, eta1 = simulate_truth(cfg)
        _, eta2 = simulate_truth(cfg)
        assert np.array_equal(eta1.values, eta2.values)

    def test_rmse_between(self):
        g = TimeGrid(1.0, 3)
        a = SampledPath.zeros(g, 2)
        b = SampledPath(g, np.full((4, 2), 3.0))
        # per-node squared error 18, RMSE = sqrt(18)
        assert rmse_between(a, b) == pytest.approx(np.sqrt(18.0))


class TestCliSimulate:
    def test_writes_artifacts_byte_deterministically(self, tmp_path):
        cfgfile = write_config(tmp_path, lorenz_config())
        runner = CliRunner()
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            r = runner.invoke(main, ["simulate", "-c", str(cfgfile), "-o", str(out)])
            assert r.exit_code == 0, r.output
            outs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert set(outs[0]) == {"truth.csv", "eta.csv", "manifest.json"}
        assert outs[0] == outs[1]

    def test_timings_flag_adds_wall_clock(self, tmp_path):
        cfgfile = write_config(tmp_path, lorenz_config())
        runner = CliRunner()
        out = tmp_path / "timed"
        r = runner.invoke(main, ["simulate", "-c", str(cfgfile), "-o", str(out), "--timings"])
        assert r.exit_code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "wall_clock_s" in manifest and "per_phase_s" in manifest

    def test_invalid_config_exit_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        r = CliRunner().invoke(main, ["simulate", "-c", str(bad), "-o", str(tmp_path / "o")])
        assert r.exit_code == 3


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("assim")
    cfgfile = write_config(tmp, lorenz_config())
    r = CliRunner().invoke(main, ["simulate", "-c", str(cfgfile), "-o", str(tmp / "sim")])
    assert r.exit_code == 0
    return tmp, cfgfile


class TestCliAssimilate:
    def test_end_to_end_result_schema(self, sim_dir):
        tmp, cfgfile = sim_dir
        out = tmp / "run"
        r = CliRunner().invoke(main, [
            "assimilate", "-c", str(cfgfile), "--eta", str(tmp / "sim" / "eta.csv"),
            "-o", str(out),
        ])
        assert r.exit_code == 0, r.output
        result = json.loads((out / "result.json").read_text())
        expected = {
            "schema_version", "config_hash", "status", "iterations", "final_cost",
            "grad_norm", "mp_residual", "cost_kind", "cost_minimum_energy",
            "cost_onsager_machlup", "rmse_estimate", "rmse_free_run",
        }
        assert expected <= set(result)
        assert result["status"] == "converged"
        assert result["cost_kind"] == "minimum_energy"
        assert result["rmse_estimate"] < result["rmse_free_run"]
        for name in ("estimate.csv", "control.csv", "costate.csv"):
            assert (out / name).exists()

    def test_om_cost_recorded_alongside_me(self, sim_dir):
        tmp, _ = sim_dir
        cfg = lorenz_config(cost={"kind": "onsager_machlup", "S": 50.0})
        cfgfile = write_config(tmp, cfg, name="om.json")
        out = tmp / "om_run"
        r = CliRunner().invoke(main, [
            "assimilate", "-c", str(cfgfile), "--eta", str(tmp / "sim" / "eta.csv"),
            "-o", str(out),
        ])
        assert r.exit_code == 0, r.output
        result = json.loads((out / "result.json").read_text())
        assert result["cost_kind"] == "onsager_machlup"
        # The two running costs differ by the constant drift-divergence rate
        # plus the control-energy change from S = 50 I to the metric Gamma = I.
        gap = result["cost_onsager_machlup"] - result["cost_minimum_energy"]
        from roughassim.dynamics import Lorenz63Params
        from roughassim.grid import read_path_csv

        u = read_path_csv(out / "control.csv")
        energy = float(np.trapezoid(np.sum(u.values**2, axis=1), u.times))
        p = Lorenz63Params()
        expected = (p.sigma + 1 + p.b) * 0.5 + 0.5 * (1.0 - 50.0) * energy
        assert gap == pytest.approx(expected, rel=1e-9)

    def test_eta_grid_mismatch_exit_3(self, sim_dir, tmp_path):
        tmp, _ = sim_dir
        cfg = lorenz_config(grid={"T": 0.5, "n_steps": 64})
        cfgfile = write_config(tmp_path, cfg, name="mismatch.json")
        r = CliRunner().invoke(main, [
            "assimilate", "-c", str(cfgfile), "--eta", str(tmp / "sim" / "eta.csv"),
            "-o", str(tmp_path / "out"),
        ])
        assert r.exit_code == 3
        assert "invalid config" in r.output

    def test_nonconverged_exit_2(self, sim_dir, tmp_path):
        tmp, _ = sim_dir
        cfg = lorenz_config(optimizer={"grad_tol": 1e-12, "max_iters": 2})
        cfgfile = write_config(tmp_path, cfg, name="hard.json")
        r = CliRunner().invoke(main, [
            "assimilate", "-c", str(cfgfile), "--eta", str(tmp / "sim" / "eta.csv"),
            "-o", str(tmp_path / "out2"),
        ])
        assert r.exit_code == 2


class TestCliCheck:
    def test_single_suite_report_and_output(self, tmp_path):
        r = CliRunner().invoke(main, [
            "check", "--suite", "duality", "--seed", "1", "-o", str(tmp_path),
        ])
        assert r.exit_code == 0, r.output
        assert "[PASS] duality/" in r.output
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["suite"] == "duality"
        assert report["seed"] == 1
        assert report["passed"] is True
        for rec in report["checks"]:
            assert {"suite", "name", "value", "tolerance", "passed"} <= set(rec)

    def test_unknown_suite_rejected_by_click(self, tmp_path):
        r = CliRunner().invoke(main, ["check", "--suite", "nonsense", "-o", str(tmp_path)])
        assert r.exit_code == 3  # a command-line error, like an invalid config


class TestCliValueProbe:
    def test_scalar_linear_probe_runs(self, tmp_path):
        cfg = {
            "model": {"name": "linear", "params": {"A": [[-1.0]]}},
            "grid": {"T": 1.0, "n_steps": 256},
            "truth": {"initial_state": [1.0]},
            "observation": {"noise_scale": 0.0, "seed": 0},
        }
        cfgfile = write_config(tmp_path, cfg)
        r = CliRunner().invoke(main, [
            "value-probe", "-c", str(cfgfile), "--h", "1e-4", "--solver", "shoot",
        ])
        assert r.exit_code == 0, r.output
        assert "max_abs_gap" in r.output
        gap = float(r.output.split("max_abs_gap =")[1].splitlines()[0])
        assert gap < 1e-2


def edit_eta(text, edit):
    """A damaged copy of an eta.csv text; "as_is" keeps it intact."""
    lines = text.splitlines()
    if edit == "wrong_columns":
        lines = [line.rsplit(",", 1)[0] for line in lines]
    elif edit == "nonuniform_times":
        t, rest = lines[2].split(",", 1)
        lines[2] = f"{1.5 * float(t)!r},{rest}"
    elif edit == "unparseable":
        lines.append("0.6,one,two,three")
    elif edit == "empty":
        lines = []
    return "\n".join(lines) + "\n"


def assert_clean_exit(result, code):
    """Documented exit code, a one-line message on stderr, no traceback."""
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)
    assert len(result.stderr.strip().splitlines()) == 1, result.stderr
    assert "Traceback" not in result.output


class TestCliErrors:
    @pytest.mark.parametrize("command, overrides, eta_edit, extra, code", [
        pytest.param("simulate", {"observation": {"h_indices": [0, 5]}}, None, [], 3,
                     id="simulate-h-out-of-range"),
        pytest.param("simulate", {"observation": {"noise_scale": float("nan")}}, None, [], 3,
                     id="simulate-nan-noise"),
        pytest.param("simulate", {"truth": {"initial_state": [1e200, 1e200, 1e200]}}, None, [],
                     2, id="simulate-blow-up"),
        pytest.param("assimilate", {}, "wrong_columns", [], 3, id="assimilate-eta-columns"),
        pytest.param("assimilate", {}, "nonuniform_times", [], 3, id="assimilate-eta-times"),
        pytest.param("assimilate", {}, "unparseable", [], 3, id="assimilate-eta-text"),
        pytest.param("assimilate", {}, "empty", [], 3, id="assimilate-eta-empty"),
        pytest.param("value-probe", {}, None, ["--h", "-1"], 3, id="value-probe-negative-h"),
        pytest.param("value-probe", {}, None, ["--h", "nan"], 3, id="value-probe-nan-h"),
        pytest.param("value-probe", {}, "wrong_columns", [], 3, id="value-probe-eta-columns"),
        pytest.param("value-probe", {"grid": {"T": 0.5, "n_steps": 64}}, "as_is", [], 3,
                     id="value-probe-eta-other-grid"),
    ])
    def test_bad_input_exit_code(self, sim_dir, tmp_path, command, overrides, eta_edit,
                                 extra, code):
        tmp, _ = sim_dir
        args = [command, "-c", str(write_config(tmp_path, lorenz_config(**overrides)))]
        if eta_edit is not None:
            eta = tmp_path / "eta.csv"
            eta.write_text(edit_eta((tmp / "sim" / "eta.csv").read_text(), eta_edit))
            args += ["--eta", str(eta)]
        if command != "value-probe":
            args += ["-o", str(tmp_path / "out")]
        assert_clean_exit(CliRunner().invoke(main, args + extra), code)

    @pytest.mark.parametrize("args", [
        pytest.param(["simulate", "-c", "{missing}", "-o", "{out}"], id="missing-config-file"),
        pytest.param(["simulate", "-c", "{config}", "-o", "{out}", "--bogus"],
                     id="unknown-option"),
        pytest.param(["simulat", "-c", "{config}", "-o", "{out}"], id="unknown-command"),
        pytest.param(["--bogus", "simulate", "-c", "{config}", "-o", "{out}"],
                     id="unknown-group-option"),
    ])
    def test_usage_error_exits_3(self, tmp_path, args):
        # Click reports these with its usage text; 2 stays reserved for a
        # failed solve.
        paths = {"missing": tmp_path / "missing.json", "out": tmp_path / "out",
                 "config": write_config(tmp_path, lorenz_config())}
        result = CliRunner().invoke(main, [a.format(**paths) for a in args])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Error:" in result.stderr and "Traceback" not in result.output
        assert not (tmp_path / "out").exists()


def not_integral(v):
    return not float(v).is_integer()


# One strategy of invalid values per config field; a one-element key such as
# ("observation",) replaces the whole section.
BAD_FIELDS = {
    ("model",): st.just("lorenz63"),
    ("model", "name"): st.text(max_size=8).filter(
        lambda s: s not in ("lorenz63", "lorenz96", "linear")),
    ("model", "params"): st.just({"sigma": -1.0}),
    ("grid", "T"): st.one_of(st.floats(max_value=0.0), st.sampled_from([np.inf, np.nan, "one"])),
    ("grid", "n_steps"): st.one_of(
        st.integers(max_value=0), st.floats().filter(not_integral), st.text(max_size=3)),
    ("truth", "initial_state"): st.lists(
        st.floats(allow_nan=False, allow_infinity=False), max_size=5).filter(
        lambda xs: len(xs) != 3),
    ("truth", "control"): st.just([1.0, 2.0]),
    ("assimilation", "initial_state"): st.just([1.0, np.nan, 24.0]),
    ("observation",): st.just("full"),
    ("observation", "h_indices"): st.lists(st.integers(), min_size=1, max_size=4).filter(
        lambda ix: any(not 0 <= i < 3 for i in ix)),
    ("observation", "noise_scale"): st.one_of(
        st.floats(max_value=0.0, exclude_max=True), st.sampled_from([np.inf, np.nan, "loud"])),
    ("observation", "seed"): st.one_of(st.integers(max_value=-1), st.just(2.5)),
    ("observation", "R"): st.just([[1.0, 0.0], [0.0, 1.0]]),
    ("cost", "kind"): st.text(max_size=8).filter(
        lambda s: s not in ("minimum_energy", "onsager_machlup")),
    ("cost", "S"): st.sampled_from([[1.0, 2.0], "big"]),
    ("control_set", "kind"): st.text(max_size=8).filter(lambda s: s != "all_space"),
    ("optimizer", "grad_tol"): st.one_of(st.floats(max_value=0.0), st.just(np.nan)),
    ("optimizer", "max_iters"): st.one_of(
        st.integers(max_value=0), st.floats().filter(not_integral)),
    ("optimizer", "multistart"): st.integers(max_value=0),
    ("optimizer", "no_such_option"): st.integers(),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(BAD_FIELDS)).flatmap(
    lambda key: st.tuples(st.just(key), BAD_FIELDS[key])))
def test_config_fuzz_exits_3(fuzz_dir, field_and_value):
    key, value = field_and_value
    cfg = lorenz_config(grid={"T": 0.5, "n_steps": 16}, control_set={"kind": "all_space"})
    section = cfg
    for name in key[:-1]:
        section = section[name]
    section[key[-1]] = value
    cfgfile = write_config(fuzz_dir, cfg)
    result = CliRunner().invoke(main, ["simulate", "-c", str(cfgfile), "-o", str(fuzz_dir / "o")])
    assert_clean_exit(result, 3)
