import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roughassim import cli
from roughassim.cli import main
from roughassim.dynamics import lorenz63_drift
from roughassim.errors import InvalidSpecError
from roughassim.experiments import (
    cmd_assimilate,
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


def l96_config(**params):
    """Overrides for a four-variable Lorenz'96 twin with the given parameters."""
    return {
        "model": {"name": "lorenz96", "params": {"n": 4, **params}},
        "truth": {"initial_state": [8.0, 8.5, 7.5, 8.0]},
        "assimilation": {"initial_state": [8.0, 8.0, 8.0, 8.0]},
    }


def write_config(tmp_path, cfg, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


NEGATIVE_I3 = [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]


class TestLoadConfig:
    def test_dict_and_json_text_and_file_agree(self, tmp_path):
        # A dict and a file path agree; JSON text is not a config source.
        cfg = lorenz_config()
        a = load_config(cfg)
        c = load_config(write_config(tmp_path, cfg))
        assert config_hash(a) == config_hash(c)
        with pytest.raises(InvalidSpecError):
            load_config(json.dumps(cfg))
        assert a.grid.n_steps == 128
        x = np.array([1.0, -2.0, 20.0])
        assert np.array_equal(a.model.f(0.0, x), lorenz63_drift(x))
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
        {"truth": {"initial_state": ["1", "1", "25"]}},
        {"truth": {"initial_state": [True, 1, 25]}},
        {"truth": {"initial_state": [1.0, 1.0, 25.0], "control": [0.0, 0.0, 0.0]}},
        {"control_set": {"kind": "box", "lo": "-1", "hi": True}},
        {"control_set": {"kind": "box", "lo": [-1.0, -1.0, False], "hi": 1.0}},
        {"control_set": {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}},
        {"observation": {"R": [["1", 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}},
        {"cost": {"S": [[1.0, 0.0, 0.0], [0.0, True, 0.0], [0.0, 0.0, 1.0]]}},
        {"model": {"name": "linear", "params": {"A": [["1"]]}},
         "truth": {"initial_state": [1.0]}, "assimilation": {"initial_state": [1.0]}},
        {"model": {"name": "linear", "params": {"A": [[-1.0]], "B": [[float("nan")]]}},
         "truth": {"initial_state": [1.0]}, "assimilation": {"initial_state": [1.0]}},
        {"model": {"name": "lorenz63", "params": {"sigma": True}}},
        {"model": {"name": "lorenz63", "params": {"r": float("nan")}}},
        l96_config(forcing="8"),
        l96_config(forcing=float("nan")),
        {"optimizer": {"grad_tol": True}},
        {"optimizer": {"grad_tol": float("inf")}},
        {"observation": {"seed": 2**64}},
        {"observation": {"seed": 2**130}},
        {"observation": {"h_indices": []}},
        {"model": {"name": "linear", "params": {"A": [[-1.0]], "B": [[]]}},
         "truth": {"initial_state": [1.0]}, "assimilation": {"initial_state": [1.0]}},
        {"observation": {"seed": 2**1100}},
        {"observation": {"h_indices": [0, 2**1100]}},
        {"grid": {"T": 1.0, "n_steps": 10**400}},
        {"grid": {"T": 1.0, "n_steps": 8, "dt": 0.125}},
        {"control_set": {"kind": "ball", "radius": 1.0, "centre": 0.0}},
        {"model": {"name": "linear", "params": {"A": NEGATIVE_I3, "C": 1.0}}},
        {"control_set": {"kind": "box", "lo": [-1.0, -1.0], "hi": 1.0}},
        {"control_set": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}},
        {"grid": {"T": 1.0, "n_steps": 8.0}},
        l96_config(n=4.0),
        {"optimizer": {"max_iters": 400.0}},
        {"optimizer": {"multistart": 2.0}},
        {"observation": {"seed": 7.0}},
        {"observation": {"h_indices": [0, 2.0]}},
        {"control_set": {"kind": "box", "lo": float("-inf"), "hi": 1.0}},
        {"control_set": {"kind": "all_space", "lo": "-1"}},
        {"control_set": {"kind": "box", "lo": -1.0, "hi": 1.0, "radius": "1"}},
        {"control_set": {"kind": "all_space", "center": None}},
    ])
    def test_malformed_sections_rejected(self, breakage):
        cfg = lorenz_config(**breakage)
        with pytest.raises(InvalidSpecError):
            load_config(cfg)

    @pytest.mark.parametrize("n, B, m", [
        (1, 1.0, 1),
        (1, [1.0], 1),
        (1, [[1.0, 0.0]], 2),
        (2, [1.0, 0.5], None),  # read as one row, not the two the states need
        (2, [[1.0], [0.5]], 1),
        (2, [[float("inf")], [0.5]], None),
        (1, [[]], None),
        (2, None, 2),
    ])
    def test_linear_control_matrix_verdicts(self, n, B, m):
        # m is the control count of an accepted B; None marks a refused one.
        start = [1.0] * n
        cfg = lorenz_config(model={"name": "linear", "params": {"A": (-np.eye(n)).tolist(),
                                                                "B": B}},
                            truth={"initial_state": start},
                            assimilation={"initial_state": start})
        if m is None:
            with pytest.raises(InvalidSpecError):
                load_config(cfg)
        else:
            assert load_config(cfg).model.control_dim == m

    def test_sections_are_their_constructors_keywords(self):
        # Each spelling the parser took before still loads: a null B, scalar
        # and vector bounds, a ball, explicit Lorenz parameters.
        cfg = load_config(lorenz_config(
            model={"name": "linear", "params": {"A": NEGATIVE_I3, "B": None}},
            control_set={"kind": "box", "lo": -1.0, "hi": [1.0, 2.0, 3.0]}))
        assert cfg.model.control_dim == 3
        assert cfg.control_set.project_values(np.full(3, 5.0)).tolist() == [1.0, 2.0, 3.0]
        ball = load_config(lorenz_config(control_set={"kind": "ball", "radius": 0.5}))
        assert np.allclose(ball.control_set.project_values(np.array([3.0, 0.0, 4.0])),
                           [0.3, 0.0, 0.4])
        x = np.array([1.0, -2.0, 20.0])
        params = {"sigma": 7.5, "r": 31.0, "b": 2.5}
        l63 = load_config(lorenz_config(model={"name": "lorenz63", "params": params}))
        assert l63.model.f(0.0, x).tobytes() == lorenz63_drift(x, **params).tobytes()
        # A count is an integer: an integral JSON float is an invalid config.
        for counts in ({"max_iters": 400.0}, {"multistart": 2.0}):
            with pytest.raises(InvalidSpecError, match="must be an integer"):
                load_config(lorenz_config(optimizer=counts))

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

    def test_a_named_truth_file_must_exist(self, sim_dir, tmp_path):
        # Only the implicit truth.csv beside the eta file is optional: a named
        # one that is missing is refused before anything is written.
        tmp, cfgfile = sim_dir
        config = load_config(cfgfile)
        with pytest.raises(InvalidSpecError, match="unreadable path file"):
            cmd_assimilate(config, tmp / "sim" / "eta.csv", tmp_path / "out",
                           truth_file=tmp_path / "missing.csv")
        assert not (tmp_path / "out").exists()

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
        from roughassim.grid import read_path_csv

        u = read_path_csv(out / "control.csv")
        energy = float(np.trapezoid(np.sum(u.values**2, axis=1), u.times))
        sigma, b = 10.0, 8.0 / 3.0  # the Lorenz'63 defaults
        expected = (sigma + 1 + b) * 0.5 + 0.5 * (1.0 - 50.0) * energy
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
    """A damaged copy of a path CSV text; "as_is" keeps it intact."""
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
    elif edit == "every_other_node":
        lines = lines[:1] + lines[1::2]
    elif edit == "not_utf8":  # only the header changes, and it is skipped
        lines[0] = "\N{LATIN SMALL LETTER E WITH ACUTE}" + lines[0][1:]
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
        pytest.param("simulate", l96_config(forcing="8"), None, [], 3,
                     id="simulate-string-forcing"),
        pytest.param("assimilate", {}, "wrong_columns", [], 3, id="assimilate-eta-columns"),
        pytest.param("assimilate", {}, "nonuniform_times", [], 3, id="assimilate-eta-times"),
        pytest.param("assimilate", {}, "unparseable", [], 3, id="assimilate-eta-text"),
        pytest.param("assimilate", {}, "empty", [], 3, id="assimilate-eta-empty"),
        pytest.param("value-probe", {}, None, ["--h", "-1"], 3, id="value-probe-negative-h"),
        pytest.param("value-probe", {}, None, ["--h", "nan"], 3, id="value-probe-nan-h"),
        pytest.param("value-probe", {}, None, ["--h", "inf"], 3, id="value-probe-inf-h"),
        pytest.param("value-probe", {}, "wrong_columns", [], 3, id="value-probe-eta-columns"),
        pytest.param("value-probe", {"grid": {"T": 0.5, "n_steps": 64}}, "as_is", [], 3,
                     id="value-probe-eta-other-grid"),
        pytest.param("simulate", {"observation": {"seed": 2**64}}, None, [], 3,
                     id="simulate-seed-2**64"),
        pytest.param("simulate", {"observation": {"seed": 2**130}}, None, [], 3,
                     id="simulate-seed-2**130"),
        pytest.param("check", None, None, ["--seed", str(2**128)], 3, id="check-seed-2**128"),
        pytest.param("check", None, None, ["--suite", "valueprobe", "--seed", str(2**64)], 3,
                     id="check-seed-2**64"),
        pytest.param("assimilate", {}, "as_is", ["--truth", "{truth:every_other_node}"], 3,
                     id="assimilate-truth-other-grid"),
        pytest.param("assimilate", {}, "as_is", ["--truth", "{truth:wrong_columns}"], 3,
                     id="assimilate-truth-columns"),
        pytest.param("assimilate", {}, "not_utf8", [], 3, id="assimilate-eta-not-utf8"),
        pytest.param("simulate", {}, None, ["-o", "{file}"], 3, id="simulate-outdir-is-a-file"),
        pytest.param("assimilate", {}, "as_is", ["-o", "{file}"], 3,
                     id="assimilate-outdir-is-a-file"),
        pytest.param("check", None, None, ["--suite", "duality", "-o", "{file}"], 3,
                     id="check-outdir-is-a-file"),
        pytest.param("value-probe", {"observation": {"h_indices": []}}, None, [], 3,
                     id="value-probe-empty-h"),
        pytest.param("simulate", {
            "model": {"name": "linear", "params": {"A": [[-1.0, 0.0], [0.0, -1.0]],
                                                   "B": [[1.0], [0.0]]}},
            "truth": {"initial_state": [1.0, 1.0]}, "assimilation": {"initial_state": [1.0, 1.0]},
            "cost": {"kind": "onsager_machlup"}}, None, [], 3,
                     id="simulate-om-cost-the-model-cannot-carry"),
        pytest.param("simulate", {"control_set": {"kind": "all_space", "lo": -1, "hi": 1}}, None,
                     [], 3, id="simulate-all-space-with-bounds"),
        pytest.param("assimilate", {"control_set": {"kind": "box", "lo": -1, "hi": 1,
                                                    "radius": 2}}, "as_is", [], 3,
                     id="assimilate-box-with-radius"),
        pytest.param("simulate", {}, None, ["-o", "{blocked:truth.csv}"], 3,
                     id="simulate-truth-csv-is-a-directory"),
        pytest.param("simulate", {}, None, ["-o", "{blocked:manifest.json}"], 3,
                     id="simulate-manifest-is-a-directory"),
    ])
    def test_bad_input_exit_code(self, sim_dir, tmp_path, command, overrides, eta_edit,
                                 extra, code):
        tmp, _ = sim_dir
        args = [command]
        if overrides is not None:  # check reads no config
            args += ["-c", str(write_config(tmp_path, lorenz_config(**overrides)))]
        if eta_edit is not None:
            eta = tmp_path / "eta.csv"
            text = edit_eta((tmp / "sim" / "eta.csv").read_text(), eta_edit)
            eta.write_text(text, encoding="latin-1")
            args += ["--eta", str(eta)]
        if command != "value-probe":
            args += ["-o", str(tmp_path / "out")]  # a later -o overrides it

        def resolve(arg):
            """ "{file}" names an existing file, "{truth:<edit>}" a damaged truth copy,
            "{blocked:<artifact>}" an output directory where that artifact is a directory."""
            if arg == "{file}":
                (tmp_path / "taken").write_text("")
                return str(tmp_path / "taken")
            if arg.startswith("{blocked:"):
                (tmp_path / "blocked" / arg[9:-1]).mkdir(parents=True)
                return str(tmp_path / "blocked")
            if arg.startswith("{truth:"):
                truth = tmp_path / "truth.csv"
                truth.write_text(edit_eta((tmp / "sim" / "truth.csv").read_text(), arg[7:-1]))
                return str(truth)
            return arg

        assert_clean_exit(CliRunner().invoke(main, args + [resolve(a) for a in extra]), code)
        assert not list(tmp_path.glob("out/*.csv"))

    @pytest.mark.parametrize("command, artifact", [
        ("simulate", "truth.csv"), ("simulate", "eta.csv"), ("simulate", "manifest.json"),
        ("assimilate", "estimate.csv"), ("assimilate", "costate.csv"),
        ("assimilate", "result.json"),
    ])
    def test_artifact_directory_rejected_before_any_write(self, sim_dir, tmp_path, command,
                                                         artifact):
        tmp, _ = sim_dir
        out = tmp_path / "out"
        (out / artifact).mkdir(parents=True)
        args = [command, "-c", str(write_config(tmp_path, lorenz_config())), "-o", str(out)]
        if command == "assimilate":
            args += ["--eta", str(tmp / "sim" / "eta.csv")]
        result = CliRunner().invoke(main, args)
        assert_clean_exit(result, 3)
        assert "is a directory" in result.stderr
        assert [p.name for p in out.iterdir()] == [artifact]
        assert not any((out / artifact).iterdir())

    @pytest.mark.parametrize("outdir", ["taken", "taken/sub", "blocked"])
    def test_check_rejects_outdir_before_the_suite(self, tmp_path, monkeypatch, outdir):
        def no_suite(*args):
            raise AssertionError("run_suite called")

        monkeypatch.setattr(cli, "run_suite", no_suite)
        (tmp_path / "taken").write_text("")
        (tmp_path / "blocked" / "report.json").mkdir(parents=True)
        result = CliRunner().invoke(main, ["check", "-o", str(tmp_path / outdir)])
        assert_clean_exit(result, 3)
        expected = "it is a directory" if outdir == "blocked" else "not a directory"
        assert expected in result.stderr

    def test_check_failing_suite_leaves_no_outdir(self, tmp_path):
        out = tmp_path / "fresh" / "out"
        result = CliRunner().invoke(main, ["check", "--seed", str(2**128), "-o", str(out)])
        assert_clean_exit(result, 3)
        assert not (tmp_path / "fresh").exists()

    def test_config_not_utf8_exits_3(self, tmp_path):
        # A Latin-1 e-acute in a key that loading ignores.
        config = write_config(tmp_path, lorenz_config(note="e"))
        config.write_bytes(config.read_bytes().replace(b'"e"', b'"\xe9"'))
        result = CliRunner().invoke(main, ["simulate", "-c", str(config), "-o", str(tmp_path)])
        assert_clean_exit(result, 3)

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


NONSYMMETRIC_R = [[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
LINEAR_WITH_UNKNOWN_KEY = {"name": "linear", "params": {"A": NEGATIVE_I3, "C": 1.0}}

# One strategy of invalid values per config field; a one-element key such as
# ("observation",) replaces the whole section.
BAD_FIELDS = {
    ("model",): st.sampled_from(["lorenz63", LINEAR_WITH_UNKNOWN_KEY]),
    ("model", "name"): st.text(max_size=8).filter(
        lambda s: s not in ("lorenz63", "lorenz96", "linear")),
    ("model", "params"): st.just({"sigma": -1.0}),
    ("grid", "T"): st.one_of(st.floats(max_value=0.0), st.sampled_from([np.inf, np.nan, "one"])),
    ("grid", "dt"): st.floats(),
    ("grid", "n_steps"): st.one_of(st.integers(max_value=0), st.floats(), st.text(max_size=3)),
    ("truth", "initial_state"): st.lists(
        st.floats(allow_nan=False, allow_infinity=False), max_size=5).filter(
        lambda xs: len(xs) != 3),
    ("assimilation", "initial_state"): st.just([1.0, np.nan, 24.0]),
    ("observation",): st.just("full"),
    ("observation", "h_indices"): st.one_of(
        st.lists(st.integers(), max_size=4).filter(
            lambda ix: not ix or any(not 0 <= i < 3 for i in ix)),
        st.lists(st.floats(), min_size=1, max_size=3)),
    ("observation", "noise_scale"): st.one_of(
        st.floats(max_value=0.0, exclude_max=True), st.sampled_from([np.inf, np.nan, "loud"])),
    ("observation", "seed"): st.one_of(
        st.integers(max_value=-1), st.floats(), st.just(2**1100)),
    ("observation", "R"): st.sampled_from([[[1.0, 0.0], [0.0, 1.0]], NONSYMMETRIC_R, -1.0]),
    ("cost", "kind"): st.text(max_size=8).filter(
        lambda s: s not in ("minimum_energy", "onsager_machlup")),
    ("cost", "S"): st.sampled_from([[1.0, 2.0], "big", 0.0]),
    ("control_set",): st.sampled_from([
        {"kind": "box", "lo": [-1.0, -1.0], "hi": 1.0},
        {"kind": "ball", "radius": 1.0, "center": [0.0, 0.0]},
        {"kind": "box", "lo": -np.inf, "hi": 1.0},
    ]),
    ("control_set", "kind"): st.text(max_size=8).filter(lambda s: s != "all_space"),
    ("control_set", "centre"): st.just(0.0),
    ("optimizer", "grad_tol"): st.one_of(st.floats(max_value=0.0), st.just(np.nan)),
    ("optimizer", "max_iters"): st.one_of(st.integers(max_value=0), st.floats()),
    ("optimizer", "multistart"): st.one_of(st.integers(max_value=0), st.floats()),
    ("optimizer", "no_such_option"): st.integers(),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(deadline=None, derandomize=True)
@given(st.sampled_from(sorted(BAD_FIELDS)).flatmap(
    lambda key: st.tuples(st.just(key), BAD_FIELDS[key])))
@example((("observation", "R"), NONSYMMETRIC_R))
@example((("observation", "R"), -1.0))
@example((("cost", "S"), 0.0))
@example((("observation", "h_indices"), []))
@example((("model",), LINEAR_WITH_UNKNOWN_KEY))
@example((("grid", "dt"), 0.125))
@example((("control_set", "centre"), 0.0))
@example((("control_set",), {"kind": "box", "lo": [-1.0, -1.0], "hi": 1.0}))
@example((("observation", "seed"), 2**1100))
@example((("cost",), {"knd": "onsager_machlup"}))
@example((("observation", "noise"), 0.1))
@example((("truth", "initial_stat"), [1.0, 1.0, 25.0]))
@example((("assimilation", "initial_stat"), [1.5, 0.5, 24.0]))
@example((("optimiser",), {"grad_tol": 0.02}))
@example((("grid", "n_steps"), 128.0))
@example((("optimizer", "max_iters"), 400.0))
@example((("observation", "seed"), 7.0))
@example((("control_set",), {"kind": "box", "lo": -np.inf, "hi": 1.0}))
@example((("control_set", "center"), 0.0))
@example((("truth", "control"), [0.0, 0.0, 0.0]))
def test_config_fuzz_exits_3(sim_dir, fuzz_dir, field_and_value):
    """simulate, assimilate (on a valid eta) and value-probe reject the config
    alike: exit 3, one line on stderr, nothing written."""
    key, value = field_and_value
    cfg = lorenz_config(control_set={"kind": "all_space"})
    section = cfg
    for name in key[:-1]:
        section = section[name]
    section[key[-1]] = value
    cfgfile = write_config(fuzz_dir, cfg)
    out = fuzz_dir / "o"
    eta = str(sim_dir[0] / "sim" / "eta.csv")
    for args in (["simulate", "-o", str(out)], ["assimilate", "--eta", eta, "-o", str(out)],
                 ["value-probe"]):
        result = CliRunner().invoke(main, args + ["-c", str(cfgfile)])
        assert_clean_exit(result, 3)
        assert not out.exists()
