"""Command-line surface: simulate, assimilate, check, value-probe.

Exit codes: 0 success, 1 check failure, 2 non-convergence or blow-up,
3 invalid config, input file or command line.  Every error the package
raises is typed (:class:`RoughAssimError`); :class:`_ExitCodes` turns it
into a one-line message on stderr and its exit code, so no command handles
errors itself.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from .checks import SUITES, run_suite
from .errors import BlowUpError, NoConvergenceError, RoughAssimError
from .experiments import (
    build_cost,
    cmd_assimilate,
    cmd_simulate,
    load_config,
    read_observation,
    simulate_truth,
)
from .shooting import value_probe

EXIT_CHECK_FAILURE = 1
EXIT_NO_CONVERGENCE = 2
EXIT_INVALID_CONFIG = 3


class _ExitCodes(click.Group):
    """Maps usage errors and a command's :class:`RoughAssimError` to exit codes."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as err:
            err.exit_code = EXIT_INVALID_CONFIG
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as err:
            err.exit_code = EXIT_INVALID_CONFIG
            raise
        except RoughAssimError as err:
            if isinstance(err, (BlowUpError, NoConvergenceError)):
                prefix, code = f"{ctx.invoked_subcommand} failed", EXIT_NO_CONVERGENCE
            else:
                prefix, code = "invalid config", EXIT_INVALID_CONFIG
            message = " ".join(str(err).split())
        click.echo(f"{prefix}: {message}", err=True)
        sys.exit(code)


@click.group(cls=_ExitCodes)
def main():
    """Variational assimilation against rough integrated observations."""


@main.command()
@click.option("-c", "--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("-o", "--outdir", required=True, type=click.Path())
@click.option("--timings", is_flag=True, help="record wall-clock timings in the manifest")
def simulate(config_path, outdir, timings):
    """Integrate the truth and write truth.csv, eta.csv, manifest.json."""
    cmd_simulate(load_config(config_path), outdir, timings=timings)
    click.echo(f"wrote truth.csv, eta.csv, manifest.json to {outdir}")


@main.command()
@click.option("-c", "--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--eta", "eta_file", required=True, type=click.Path(exists=True))
@click.option("-o", "--outdir", required=True, type=click.Path())
@click.option("--truth", "truth_file", type=click.Path(exists=True), default=None)
@click.option("--timings", is_flag=True, help="record wall-clock time in result.json")
def assimilate(config_path, eta_file, outdir, truth_file, timings):
    """Minimize the performance index against an observation path."""
    config = load_config(config_path)
    payload = cmd_assimilate(config, eta_file, outdir, truth_file=truth_file, timings=timings)
    click.echo(
        f"status={payload['status']} iterations={payload['iterations']} "
        f"final_cost={payload['final_cost']:.6g} mp_residual={payload['mp_residual']:.3g}"
    )
    if payload["status"] != "converged":
        sys.exit(EXIT_NO_CONVERGENCE)


@main.command()
@click.option(
    "--suite",
    type=click.Choice(("all",) + SUITES),
    default="all",
    show_default=True,
)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("-o", "--outdir", type=click.Path(), default=".", show_default=True)
def check(suite, seed, outdir):
    """Run the named diagnostic suite and write report.json."""
    report = run_suite(suite, seed)
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for rec in report["checks"]:
        mark = "PASS" if rec["passed"] else "FAIL"
        click.echo(
            f"[{mark}] {rec['suite']}/{rec['name']}: "
            f"value={rec['value']:.6g} tolerance={rec['tolerance']:.6g}"
        )
    if not report["passed"]:
        sys.exit(EXIT_CHECK_FAILURE)


@main.command(name="value-probe")
@click.option("-c", "--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--h", "h", type=float, default=1e-4, show_default=True)
@click.option("--eta", "eta_file", type=click.Path(exists=True), default=None)
@click.option(
    "--solver",
    type=click.Choice(("shoot", "gradient")),
    default="shoot",
    show_default=True,
)
def value_probe_cmd(config_path, h, eta_file, solver):
    """Compare the finite-difference value gradient against lambda(0).

    Uses the observation path in --eta when given, otherwise simulates
    one from the config's truth section.
    """
    config = load_config(config_path)
    eta = read_observation(config, eta_file) if eta_file else simulate_truth(config)[1]
    probe = value_probe(
        config.model,
        build_cost(config),
        eta,
        config.assim_initial_state,
        h=h,
        solver=solver,
        control_set=config.control_set,
        opt_config=config.optimizer,
    )
    click.echo("dV_fd    = " + np.array2string(probe["dV_fd"], precision=6))
    click.echo("lambda0  = " + np.array2string(probe["lambda0"], precision=6))
    click.echo(f"max_abs_gap = {probe['max_abs_gap']:.6g}")
    click.echo(f"value       = {probe['value']:.6g}")


if __name__ == "__main__":  # pragma: no cover
    main()
