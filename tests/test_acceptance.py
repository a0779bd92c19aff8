"""End-to-end acceptance suite.

Each test exercises one numbered acceptance criterion at its stated
tolerance and prints a single [PASS]/[FAIL] line (outside the pytest
capture so the lines always appear in the run log).
"""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from oracles import cost_central_difference, pvar_exhaustive, riccati_lq
from roughassim.adjoint import (
    control_gradient,
    pointwise_hamiltonian_minimizer,
    solve_costate,
)
from roughassim.cli import main as cli_main
from roughassim.cost import eval_cost
from roughassim.dynamics import integrate_state
from roughassim.grid import SampledPath, TimeGrid
from roughassim.optimizer import OptimizerConfig, minimize
from roughassim.roughpath import (
    oscillation,
    p_variation,
    sample_wiener,
    wiener_rng,
    young_bound_check,
    young_integral,
)
from roughassim.shooting import shoot, value_probe

from conftest import make_lorenz_twin, scalar_lq


@pytest.fixture
def criterion(capsys):
    """Report one acceptance criterion: print a pass/fail line, then assert."""

    def _criterion(number, passed, detail):
        mark = "PASS" if passed else "FAIL"
        line = f"[{mark}] criterion {number}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert passed, line

    return _criterion


def _random_path(n_steps, dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    steps = scale * rng.normal(size=(n_steps, dim))
    vals = np.vstack([np.zeros((1, dim)), np.cumsum(steps, axis=0)])
    return SampledPath(TimeGrid(1.0, n_steps), vals)


def test_criterion_1_pvariation_oracle_equivalence(criterion):
    worst = 0.0
    for trial in range(50):
        dim = 3 if trial % 2 else 1
        n_steps = 5 + trial % 8  # up to 12 intervals
        path = _random_path(n_steps, dim, seed=trial)
        p = 1.0 + 0.4 * (trial % 6)
        dp = p_variation(path, p)
        oracle = pvar_exhaustive(path.values, p)
        worst = max(worst, abs(dp - oracle))
    criterion(1, worst < 1e-12,
               f"DP vs exhaustive p-variation, worst gap {worst:.3g} (tol 1e-12)")


def test_criterion_2_young_integral_contracts(criterion):
    # (a) left-vs-midpoint tag defect shrinks by >= 1.3x per grid doubling
    # for Wiener integrator pairs, nested so refinement adds information.
    worst_ratio = np.inf
    for seed in range(20):
        fine = TimeGrid(1.0, 1024)
        w = sample_wiener(fine, 1, seed=seed)
        x = SampledPath(fine, np.sin(3.0 * fine.times))
        defects = []
        for stride in (2, 1):
            xs, ws = x.restrict(stride), w.restrict(stride)
            defects.append(abs(young_integral(xs, ws, "left")
                               - young_integral(xs, ws, "midpoint")))
        worst_ratio = min(worst_ratio, defects[0] / max(defects[1], 1e-300))
    tag_ok = worst_ratio >= 1.3
    # (b) two-path bound on 100 random piecewise-linear pairs with theta > 1.
    violations = 0
    for seed in range(100):
        x = _random_path(32, 1, seed=seed, scale=0.5)
        y = _random_path(32, 1, seed=5000 + seed, scale=0.5)
        res = young_bound_check(x, y, 1.5, 1.5)  # 1/p + 1/q = 4/3 > 1
        if res["lhs"] > res["rhs"] + 1e-12:
            violations += 1
    bound_ok = violations == 0
    criterion(2, tag_ok and bound_ok,
               f"tag defect ratio {worst_ratio:.3g} (>= 1.3), "
               f"bound violations {violations}/100")


def test_criterion_3_inequality_suite(criterion):
    failures = []
    for seed in range(100):
        path = _random_path(24, 2, seed=seed)
        v1, v15, v2, v3 = (p_variation(path, p) for p in (1.0, 1.5, 2.0, 3.0))
        osc = oscillation(path)
        # monotonicity in p
        if not (v1 + 1e-12 >= v15 >= v2 - 1e-12 >= v3 - 2e-12):
            failures.append(("monotone", seed))
        # interpolation: Vp <= Vq^{q/p} osc^{1-q/p} for q < p
        if v2 > v15 ** (1.5 / 2.0) * osc ** (1.0 - 1.5 / 2.0) + 1e-12:
            failures.append(("interpolation", seed))
        # product: pointwise product of scalar components
        a = SampledPath(path.grid, path.values[:, :1])
        b = SampledPath(path.grid, path.values[:, 1:])
        prod = SampledPath(path.grid, a.values * b.values)
        sup_a = np.max(np.abs(a.values))
        sup_b = np.max(np.abs(b.values))
        lhs = p_variation(prod, 2.0)
        rhs = sup_a * p_variation(b, 2.0) + sup_b * p_variation(a, 2.0)
        if lhs > rhs + 1e-12:
            failures.append(("product", seed))
        # chain rule through a Lipschitz map (here sin, constant 1)
        mapped = SampledPath(path.grid, np.sin(path.values))
        if p_variation(mapped, 2.0) > p_variation(path, 2.0) + 1e-12:
            failures.append(("chain", seed))
    criterion(3, not failures,
               f"monotone/interpolation/product/chain on 100 paths, "
               f"violations {len(failures)}")


def test_criterion_4_duality_identity(criterion):
    from roughassim.adjoint import duality_check

    def smooth(grid, seed, stream):
        rng = wiener_rng(seed, stream)
        c = rng.normal(size=(3, 2))
        t = grid.times[:, None]
        return SampledPath(grid, c[0] + c[1] * np.sin(2 * np.pi * t) + c[2] * t)

    worst, worst_ratio = 0.0, 0.0
    for seed in range(20):
        resids = []
        for n in (512, 1024):
            g = TimeGrid(1.0, n)
            a = smooth(g, seed, 31)
            b = smooth(g, seed, 37)
            rng = wiener_rng(seed, 41)
            A0, A1 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
            Mvals = np.array([A0 + np.sin(2 * np.pi * t) * A1 for t in g.times])
            resids.append(duality_check(Mvals, a, b, rng.normal(size=2), rng.normal(size=2)))
        worst = max(worst, resids[0])
        worst_ratio = max(worst_ratio, resids[1] / max(resids[0], 1e-300))
    criterion(4, worst < 1e-3 and worst_ratio < 1.0,
               f"residual {worst:.3g} (< 1e-3) at n=512, "
               f"refinement ratio {worst_ratio:.3g} (< 1)")


def test_criterion_5_adjoint_gradient_fd(criterion):
    # Short window + fine grid keep the first-order Euler defect of the
    # continuous costate recursion below the stated tolerance.
    problem, xi, truth = make_lorenz_twin(
        seed=0, n_steps=4096, T=0.0625, noise=0.01
    )
    grid = problem.eta.grid
    rng = np.random.default_rng(1)
    u = SampledPath(grid, rng.normal(size=(grid.n_nodes, 3)))
    x = integrate_state(problem.model, u, xi, grid)
    lam = solve_costate(problem, x, u)
    G = control_gradient(problem, x, u, lam)
    nodes = rng.choice(np.arange(1, grid.n_steps), size=20, replace=False)
    h = 1e-5
    worst = 0.0
    for node in nodes:
        fd = np.empty(3)
        for comp in range(3):
            fd[comp] = cost_central_difference(problem, u, xi, int(node), comp, h)
        pred = grid.dt * G.values[node]
        rel = np.linalg.norm(fd - pred) / max(np.linalg.norm(fd), np.linalg.norm(pred), 1e-12)
        worst = max(worst, rel)
    criterion(5, worst < 1e-3,
               f"gradient vs FD at 20 nodes, worst relative error {worst:.3g} (< 1e-3)")


def test_criterion_6_lq_ground_truth(criterion):
    a, q, r, T, n = -1.0, 1.0, 1.0, 1.0, 1024
    grid = TimeGrid(T, n)
    problem = scalar_lq(grid, a, q, r)
    xi = np.array([1.3])
    P = riccati_lq(a, q, r, T, n)
    V = 0.5 * P[0] * xi[0] ** 2
    lam0_oracle = P[0] * xi[0]

    gaps = {}
    res = minimize(problem, xi, SampledPath.zeros(grid, 1),
                   OptimizerConfig(grad_tol=1e-4, max_iters=3000))
    u_ric = -(P * res.triple.x.values[:, 0]) / r
    gaps["pg_u"] = float(np.max(np.abs(res.triple.u.values[:, 0] - u_ric)))
    gaps["pg_V"] = abs(res.final_cost - V)
    gaps["pg_lam0"] = abs(res.triple.lam.values[0, 0] - lam0_oracle)

    triple = shoot(problem, xi)
    u_ric_s = -(P * triple.x.values[:, 0]) / r
    gaps["shoot_u"] = float(np.max(np.abs(triple.u.values[:, 0] - u_ric_s)))
    gaps["shoot_V"] = abs(eval_cost(problem.cost, triple.x, triple.u, problem.eta) - V)
    gaps["shoot_lam0"] = abs(triple.lam.values[0, 0] - lam0_oracle)

    worst = max(gaps.values())
    criterion(6, worst < 1e-3,
               "Riccati-oracle gaps "
               + ", ".join(f"{k}={v:.2e}" for k, v in gaps.items())
               + " (all < 1e-3)")


def _twin_setup(seed):
    return make_lorenz_twin(seed=seed, n_steps=1024, T=2.0, noise=0.1, S=50.0)


def _perturbed_initial(xi, seed):
    return xi + 0.5 * wiener_rng(seed, stream=500).normal(size=3)


def test_criterion_7_maximum_principle_certificate(criterion):
    problem, xi, truth = _twin_setup(seed=42)
    grid = problem.eta.grid
    x0 = _perturbed_initial(xi, 42)
    res = minimize(problem, x0, SampledPath.zeros(grid, 3),
                   OptimizerConfig(grad_tol=0.02, max_iters=400))
    trace = np.array(res.cost_trace)
    monotone = bool(np.all(np.diff(trace) <= 1e-12))
    A = abs(res.final_cost)
    mp_ok = res.mp_residual < 1e-3 * (1.0 + A)
    # converged control equals the projected closed-form minimizer pointwise
    worst_u = 0.0
    for i in range(grid.n_nodes):
        t = grid.times[i]
        ustar = pointwise_hamiltonian_minimizer(
            problem, t, res.triple.x.values[i], res.triple.lam.values[i]
        )
        worst_u = max(worst_u, float(np.max(np.abs(res.triple.u.values[i] - ustar))))
    u_ok = worst_u < 1e-3
    criterion(7, res.status == "converged" and monotone and mp_ok and u_ok,
               f"status={res.status}, monotone={monotone}, "
               f"mp_residual={res.mp_residual:.3g} (< {1e-3 * (1 + A):.3g}), "
               f"max |u - u*| = {worst_u:.3g} (< 1e-3)")


def test_criterion_8_twin_experiment_skill(criterion):
    wins = 0
    details = []
    for seed in range(10):
        problem, xi, truth = _twin_setup(seed)
        grid = problem.eta.grid
        x0 = _perturbed_initial(xi, seed)
        free = integrate_state(problem.model, SampledPath.zeros(grid, 3), x0, grid)
        res = minimize(problem, x0, SampledPath.zeros(grid, 3),
                       OptimizerConfig(grad_tol=0.02, max_iters=400))
        rmse_est = float(np.sqrt(np.mean(np.sum((res.triple.x.values - truth.values) ** 2, axis=1))))
        rmse_free = float(np.sqrt(np.mean(np.sum((free.values - truth.values) ** 2, axis=1))))
        if rmse_est < rmse_free:
            wins += 1
        details.append(f"{rmse_est:.2f}<{rmse_free:.2f}")
    criterion(8, wins >= 9, f"RMSE wins {wins}/10 (need >= 9): " + " ".join(details))


def test_criterion_9_value_function_probe(criterion):
    # scalar LQ
    a, q, r, T, n = -1.0, 1.0, 1.0, 1.0, 2048
    out = value_probe(scalar_lq(TimeGrid(T, n), a, q, r), np.array([1.3]), h=1e-4)
    lq_gap = out["max_abs_gap"]
    lq_ok = lq_gap < 1e-3
    # Lorenz'63 short horizon, 3 seeds
    lorenz_ok = True
    lorenz_gaps = []
    for seed in range(3):
        problem, xi, truth = make_lorenz_twin(
            seed=seed, n_steps=256, T=0.5, noise=0.1
        )
        probe = value_probe(problem, xi, h=1e-4, solver="shoot")
        limit = 1e-2 * (1.0 + float(np.linalg.norm(probe["lambda0"])))
        lorenz_gaps.append(probe["max_abs_gap"])
        lorenz_ok = lorenz_ok and probe["max_abs_gap"] < limit
    criterion(9, lq_ok and lorenz_ok,
               f"LQ gap {lq_gap:.3g} (< 1e-3), Lorenz gaps "
               + ", ".join(f"{g:.3g}" for g in lorenz_gaps)
               + " (< 1e-2 (1+|lambda0|))")


def test_criterion_10_wiener_roughness_dichotomy(criterion):
    stable_lo, stable_hi = np.inf, 0.0
    growth_min = np.inf
    for seed in range(20):
        fine = TimeGrid(1.0, 4096)
        w = sample_wiener(fine, 1, seed=seed)
        # p = 2.5 (> 2): stable under one grid doubling
        v_coarse = p_variation(w.restrict(8), 2.5)
        v_fine = p_variation(w.restrict(4), 2.5)
        ratio = v_fine / v_coarse
        stable_lo, stable_hi = min(stable_lo, ratio), max(stable_hi, ratio)
        # p = 1.5 (< 2): grows across the refinement span
        g_coarse = p_variation(w.restrict(32), 1.5)
        g_fine = p_variation(w, 1.5)
        growth_min = min(growth_min, g_fine / g_coarse)
    ok = 0.8 <= stable_lo and stable_hi <= 1.25 and growth_min > 1.3
    criterion(10, ok,
               f"p=2.5 ratio in [{stable_lo:.3f}, {stable_hi:.3f}] "
               f"(within [0.8, 1.25]), p=1.5 growth >= {growth_min:.3f} (> 1.3)")


def test_criterion_11_reproducibility(criterion, tmp_path):
    cfg = {
        "model": {"name": "lorenz63"},
        "grid": {"T": 0.5, "n_steps": 128},
        "truth": {"initial_state": [1.0, 1.0, 25.0]},
        "observation": {"h_indices": "full", "R": 1.0, "noise_scale": 0.1, "seed": 7},
        "assimilation": {"initial_state": [1.5, 0.5, 24.0]},
        "cost": {"kind": "minimum_energy", "S": 50.0},
        "optimizer": {"grad_tol": 0.02, "max_iters": 200},
    }
    cfgfile = tmp_path / "config.json"
    cfgfile.write_text(json.dumps(cfg))
    runner = CliRunner()
    artifacts = []
    for run in ("one", "two"):
        simdir = tmp_path / run / "sim"
        rundir = tmp_path / run / "assim"
        r = runner.invoke(cli_main, ["simulate", "-c", str(cfgfile), "-o", str(simdir)])
        assert r.exit_code == 0, r.output
        r = runner.invoke(cli_main, [
            "assimilate", "-c", str(cfgfile), "--eta", str(simdir / "eta.csv"),
            "-o", str(rundir), "--truth", str(simdir / "truth.csv"),
        ])
        assert r.exit_code == 0, r.output
        blob = {}
        for d in (simdir, rundir):
            for f in sorted(d.iterdir()):
                blob[f"{d.name}/{f.name}"] = f.read_bytes()
        artifacts.append(blob)
    identical = artifacts[0] == artifacts[1]
    criterion(11, identical,
               f"simulate+assimilate reruns byte-identical over "
               f"{len(artifacts[0])} artifacts: {identical}")
