"""Deterministic diagnostic suites behind the `assim check` command.

Each suite returns a list of check records {name, value, tolerance,
passed}; a check passes when its measured value stays within tolerance.
Values are worst cases over seeded random ensembles, so a green report
certifies every trial.
"""

from __future__ import annotations

import numpy as np

from .adjoint import (
    OptimalTriple,
    control_gradient,
    duality_sweep,
    max_principle_residual,
    pointwise_hamiltonian_minimizer,
    solve_costate,
)
from .cost import QuadraticCostSpec, build_minimum_energy, coordinate_observation, eval_cost
from .dynamics import integrate_state, linear_model, rk4_sweep
from .errors import BlowUpError, InvalidParameterError
from .experiments import build_cost, load_config, simulate_truth
from .grid import SampledPath, TimeGrid
from .optimizer import ControlSetSpec
from .roughpath import (
    oscillation,
    p_variation,
    p_variation_bruteforce,
    sample_wiener,
    wiener_rng,
    young_bound_check,
    young_integral,
)
from .shooting import value_probe

#: The diagnostic suites; suite ``name`` runs ``suite_<name>(seed)``.
SUITES = ("roughpath", "adjoint", "duality", "gradient", "valueprobe")


def _record(name, value, tolerance, larger_is_fail=True):
    passed = value <= tolerance if larger_is_fail else value >= tolerance
    return {
        "name": name,
        "value": float(value),
        "tolerance": float(tolerance),
        "passed": bool(passed),
    }


def _random_walk(grid, dim, seed, stream):
    rng = wiener_rng(seed, stream)
    steps = rng.normal(size=(grid.n_steps, dim))
    vals = np.vstack([np.zeros((1, dim)), np.cumsum(steps, axis=0)])
    return SampledPath(grid, vals)


def _smooth_random(grid, dim, seed, stream, n_modes=4):
    """Random trigonometric polynomial sampled on the grid (piecewise linear)."""
    rng = wiener_rng(seed, stream)
    t = grid.times / grid.T
    vals = np.zeros((grid.n_nodes, dim))
    for k in range(1, n_modes + 1):
        vals += rng.normal(size=dim) * np.sin(2 * np.pi * k * t)[:, None]
        vals += rng.normal(size=dim) * np.cos(2 * np.pi * k * t)[:, None]
    return SampledPath(grid, vals)


def suite_roughpath(seed: int = 0) -> list:
    checks = []
    # Dynamic program vs exhaustive enumeration on short paths.
    worst = 0.0
    for trial in range(50):
        dim = 1 if trial % 2 == 0 else 3
        path = _random_walk(TimeGrid(1.0, 10), dim, seed, 100 + trial)
        p = 1.0 + (trial % 5) * 0.5
        worst = max(worst, abs(p_variation(path, p) - p_variation_bruteforce(path, p)))
    checks.append(_record("pvariation_dp_vs_bruteforce", worst, 1e-12))

    # Variation inequalities on random walks.
    mono = interp = prod = chain = ac = 0.0
    grid = TimeGrid(1.0, 64)
    for trial in range(100):
        y = _random_walk(grid, 2, seed, 300 + trial)
        p, q = 2.5, 1.5
        vp, vq = p_variation(y, p), p_variation(y, q)
        mono = max(mono, vp - vq)
        interp = max(interp, vp - vq ** (q / p) * oscillation(y) ** (1 - q / p))
        x = _random_walk(grid, 2, seed, 500 + trial)
        xy = SampledPath(grid, x.values * y.values)
        bound = p_variation(x, p) * np.max(np.linalg.norm(y.values, axis=1)) + vp * np.max(
            np.linalg.norm(x.values, axis=1)
        )
        prod = max(prod, p_variation(xy, p) - bound)
        kappa = 0.5
        ys = _random_walk(grid, 1, seed, 700 + trial)
        psi_y = SampledPath(grid, np.abs(ys.values) ** kappa)
        chain_bound = p_variation(ys, kappa * p) ** kappa + grid.T**kappa
        chain = max(chain, p_variation(psi_y, p) - chain_bound)
        total_var = float(np.sum(np.abs(np.diff(ys.values, axis=0))))
        ac = max(ac, p_variation(ys, 1.0 + (trial % 4) * 0.7) - total_var)
    checks.append(_record("variation_monotonicity", mono, 1e-12))
    checks.append(_record("variation_interpolation", interp, 1e-12))
    checks.append(_record("variation_product_rule", prod, 1e-12))
    checks.append(_record("variation_chain_rule", chain, 1e-12))
    checks.append(_record("variation_ac_bound", ac, 1e-12))

    # Young-Loeve bound on piecewise-linear pairs.
    worst_excess = 0.0
    for trial in range(100):
        g = TimeGrid(1.0, 32)
        x = _smooth_random(g, 1, seed, 900 + trial)
        y = _smooth_random(g, 1, seed, 1100 + trial)
        res = young_bound_check(x, y, 1.5, 1.5)
        worst_excess = max(worst_excess, res["lhs"] - res["rhs"])
    checks.append(_record("young_loeve_bound", worst_excess, 1e-12))

    # Integration by parts under the left tag, with refinement.
    resids = []
    for n in (512, 1024):
        g = TimeGrid(1.0, n)
        x = SampledPath.from_function(g, lambda t: np.sin(2 * np.pi * t))
        y = SampledPath.from_function(g, np.exp)
        bdry = float(x.values[-1, 0] * y.values[-1, 0] - x.values[0, 0] * y.values[0, 0])
        resids.append(abs(young_integral(x, y) + young_integral(y, x) - bdry))
    checks.append(_record("young_integration_by_parts", resids[0], 1e-1))
    checks.append(_record("young_integration_by_parts_refines", resids[1] / resids[0], 0.75))

    # Tag independence under refinement against Wiener integrators.
    min_ratio = np.inf
    for s in range(20):
        fine = sample_wiener(TimeGrid(1.0, 2048), 1, seed, stream=1300 + s)
        coarse = fine.restrict(2)
        gaps = []
        for w in (coarse, fine):
            x = SampledPath.from_function(w.grid, np.sin)
            gaps.append(abs(young_integral(x, w, "left") - young_integral(x, w, "midpoint")))
        min_ratio = min(min_ratio, gaps[0] / gaps[1])
    checks.append(_record("young_tag_refinement_ratio", min_ratio, 1.3, larger_is_fail=False))

    # Wiener grid-variation dichotomy: stable at p=2.5, unbounded at p=1.5.
    lo_25, hi_25, lo_15 = np.inf, 0.0, np.inf
    for s in range(20):
        fine = sample_wiener(TimeGrid(1.0, 4096), 1, seed, stream=1500 + s)
        v128 = p_variation(fine.restrict(32), 1.5)
        v4096 = p_variation(fine, 1.5)
        lo_15 = min(lo_15, v4096 / v128)
        v1024 = p_variation(fine.restrict(4), 2.5)
        v2048 = p_variation(fine.restrict(2), 2.5)
        lo_25 = min(lo_25, v2048 / v1024)
        hi_25 = max(hi_25, v2048 / v1024)
    checks.append(_record("wiener_pvar_stable_p2.5_low", lo_25, 0.8, larger_is_fail=False))
    checks.append(_record("wiener_pvar_stable_p2.5_high", hi_25, 1.25))
    checks.append(_record("wiener_pvar_grows_p1.5", lo_15, 1.3, larger_is_fail=False))
    return checks


def _lorenz_setup(seed, n_steps=512, T=1.0, noise=0.1):
    """Fully observed Lorenz'63 twin with a minimum-energy cost, R = S = I."""
    config = load_config(
        {
            "model": {"name": "lorenz63"},
            "grid": {"T": T, "n_steps": n_steps},
            "truth": {"initial_state": [1.0, 1.0, 25.0]},
            "observation": {"h_indices": "full", "R": 1.0, "noise_scale": noise, "seed": seed},
            "cost": {"kind": "minimum_energy", "S": 1.0},
        }
    )
    truth, eta = simulate_truth(config)
    return config.model, config.grid, build_cost(config), config.truth_initial_state, truth, eta


def _scalar_lq(a):
    """xdot = a x + u with phi = x^2/2 + u^2/2 (R = S = 1, observing x)."""
    h, h_jac = coordinate_observation([0], 1)
    quad = QuadraticCostSpec(h=h, h_jac=h_jac, R=np.eye(1), S=np.eye(1))
    return linear_model([[a]]), build_minimum_energy(quad)


def suite_adjoint(seed: int = 0) -> list:
    checks = []
    model, grid, cost, xi, truth, eta = _lorenz_setup(seed)
    u = SampledPath.zeros(grid, 3)
    lam = solve_costate(model, cost, truth, u, eta)
    checks.append(_record("costate_terminal_condition", np.max(np.abs(lam.values[-1])), 0.0))

    # Closed-form linear adjoint: xdot = a x, phi = x^2/2, psi = 0.
    a = -0.7
    lin, lcost = _scalar_lq(a)
    lgrid = TimeGrid(1.0, 1024)
    zero_eta = SampledPath.zeros(lgrid, 1)
    # R = 1 keeps phi = x^2/2 + u^2/2 but psi couples to the zero path, so
    # the stochastic term vanishes and the linear adjoint is closed form.
    x0 = np.array([1.3])
    xlin = integrate_state(lin, SampledPath.zeros(lgrid, 1), x0, lgrid)
    lam_lin = solve_costate(lin, lcost, xlin, SampledPath.zeros(lgrid, 1), zero_eta)
    t = lgrid.times
    exact = x0[0] * np.exp(-a * t) * (np.exp(2 * a * lgrid.T) - np.exp(2 * a * t)) / (2 * a)
    checks.append(
        _record("costate_linear_closed_form", np.max(np.abs(lam_lin.values[:, 0] - exact)), 1e-4)
    )

    # Zero residual when the control sits at the pointwise minimizer.
    unconstrained = ControlSetSpec()
    ustar = pointwise_hamiltonian_minimizer(
        cost, model, grid.times, truth.values, lam.values, unconstrained
    )
    triple = OptimalTriple(x=truth, u=SampledPath(grid, ustar), lam=lam)
    checks.append(
        _record(
            "mp_residual_at_minimizer",
            max_principle_residual(triple, cost, model, unconstrained),
            1e-12,
        )
    )

    # Costate grid q-variation stabilizes under refinement for q = 2.5.
    ratios = []
    for s in range(3):
        fine_setup = _lorenz_setup(seed + s, n_steps=2048, T=1.0)
        modelf, gridf, costf, xif, truthf, etaf = fine_setup
        lamf = solve_costate(modelf, costf, truthf, SampledPath.zeros(gridf, 3), etaf)
        coarse = lamf.restrict(2)
        ratios.append(p_variation(lamf, 2.5) / p_variation(coarse, 2.5))
    checks.append(_record("costate_qvar_ratio_high", max(ratios), 1.25))
    checks.append(_record("costate_qvar_ratio_low", min(ratios), 0.8, larger_is_fail=False))
    return checks


def suite_duality(seed: int = 0) -> list:
    draws = range(20)
    resids = {}
    for n in (512, 1024):
        g = TimeGrid(1.0, n)
        a = np.stack([_smooth_random(g, 2, seed + s, 31).values for s in draws])
        b = np.stack([_smooth_random(g, 2, seed + s, 37).values for s in draws])
        M, ends = [], []
        for s in draws:
            rng = wiener_rng(seed + s, 41)
            A0, A1 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
            M.append(A0 + np.sin(2 * np.pi * g.times)[:, None, None] * A1)
            ends.append((rng.normal(size=2), rng.normal(size=2)))
        zeta0, lambdaT = (np.stack(e) for e in zip(*ends))
        resids[n] = duality_sweep(g, np.stack(M), a, b, zeta0, lambdaT)
    worst = float(np.max(resids[512]))
    worst_ratio = float(np.max(resids[1024] / np.maximum(resids[512], 1e-300)))
    return [
        _record("duality_residual_n512", worst, 1e-3),
        _record("duality_residual_refines", worst_ratio, 0.9),
    ]


def _central_differences(model, cost, u, xi, eta, nodes, h) -> np.ndarray:
    """d(cost)/d u[node, component] by central differences of forward + cost.

    Returns one row per node.  The two perturbed forward solves of every
    entry run as one member batch; each cost is evaluated on its own.
    """
    grid = u.grid
    m = u.values.shape[1]
    probes = np.repeat(u.values[None], 2 * m * len(nodes), axis=0)
    entries = [(node, comp) for node in nodes for comp in range(m)]
    for k, (node, comp) in enumerate(entries):
        probes[2 * k, node, comp] += h
        probes[2 * k + 1, node, comp] += -h
    states, blown = rk4_sweep(model, probes, xi, grid)
    costs = np.empty(len(probes))
    for k, (up, x) in enumerate(zip(probes, states)):
        if blown[k] >= 0:
            raise BlowUpError(int(blown[k]))
        costs[k] = eval_cost(cost, SampledPath(grid, x), SampledPath(grid, up), eta)
    return ((costs[0::2] - costs[1::2]) / (2.0 * h)).reshape(len(nodes), m)


def suite_gradient(seed: int = 0) -> list:
    # Fine grid + short window keep the O(dt) continuous-vs-discrete adjoint
    # defect (scaling like dt * |Jacobian|) below the 1e-3 certificate.
    model, grid, cost, xi, truth, eta = _lorenz_setup(seed, n_steps=4096, T=0.0625, noise=0.01)
    rng = wiener_rng(seed, 53)
    u = SampledPath(grid, rng.normal(size=(grid.n_nodes, 3)))
    x = integrate_state(model, u, xi, grid)
    lam = solve_costate(model, cost, x, u, eta)
    G = control_gradient(model, cost, x, u, lam)
    worst = 0.0
    nodes = rng.choice(np.arange(1, grid.n_steps), size=20, replace=False)
    fds = _central_differences(model, cost, u, xi, eta, nodes, 1e-5)
    for node, fd in zip(nodes, fds):
        pred = grid.dt * G.values[node]
        rel = np.linalg.norm(fd - pred) / max(np.linalg.norm(fd), np.linalg.norm(pred), 1e-12)
        worst = max(worst, rel)
    return [_record("gradient_fd_rel_gap", worst, 1e-3)]


def suite_valueprobe(seed: int = 0) -> list:
    lin, cost = _scalar_lq(1.0)
    grid = TimeGrid(1.0, 2048)
    eta = SampledPath.zeros(grid, 1)
    probe = value_probe(lin, cost, eta, np.array([0.8]), h=1e-4, solver="shoot")
    return [_record("valueprobe_scalar_lq_gap", probe["max_abs_gap"], 1e-3)]


def run_suite(suite: str, seed: int = 0) -> dict:
    """Run one named suite (or "all") and return the report payload."""
    names = SUITES if suite == "all" else (suite,)
    all_checks = []
    for name in names:
        if name not in SUITES:
            raise InvalidParameterError(
                f"unknown suite {name!r}; choose from {('all',) + SUITES}"
            )
        # Looked up by name at call time, so a wrapper bound to the module
        # attribute (a profiler or tracer) sees the suite call.
        for rec in globals()[f"suite_{name}"](seed):
            rec["suite"] = name
            all_checks.append(rec)
    return {
        "schema_version": 1,
        "suite": suite,
        "seed": seed,
        "checks": all_checks,
        "passed": all(c["passed"] for c in all_checks),
    }
