"""Deterministic diagnostic suites behind the `assim check` command.

Each suite returns a list of check records {name, value, tolerance,
passed}; a check passes when its measured value stays within tolerance.
Values are worst cases over seeded random ensembles, so a green report
certifies every trial.  Each trial family is drawn once as a (B, n, d)
stack that the stacked kernels read; a path is built only for a public
door under test.
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
from .cost import QuadraticCostSpec, _cost_blowup, _eval_costs, build_minimum_energy
from .cost import coordinate_observation
from .dynamics import integrate_state, linear_model, rk4_sweep
from .errors import BlowUpError, InvalidSpecError
from .experiments import build_cost, load_config, simulate_truth
from .grid import SampledPath, TimeGrid, _seed
from .problem import AssimilationProblem
from .roughpath import (
    _p_variations,
    _walks,
    _widths,
    _young_loeve_sides,
    _young_sum,
    p_variation,  # unused here; perfbench traces it as checks.p_variation
    p_variation_bruteforce,
    wiener_rng,
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


def _smooth_randoms(grid, dim, keys, n_modes=4):
    """Random trigonometric polynomials sampled on the grid (piecewise
    linear), one per (seed, stream) key: a stack (B, n_nodes, dim)."""
    t = grid.times / grid.T
    coeffs = np.stack([wiener_rng(*key).normal(size=(2 * n_modes, dim)) for key in keys])
    vals = np.zeros((len(coeffs), grid.n_nodes, dim))
    for k in range(1, n_modes + 1):
        vals += coeffs[:, None, 2 * k - 2] * np.sin(2 * np.pi * k * t)[:, None]
        vals += coeffs[:, None, 2 * k - 1] * np.cos(2 * np.pi * k * t)[:, None]
    return vals


def suite_roughpath(seed: int = 0) -> list:
    checks = []
    # Dynamic program vs exhaustive enumeration on short paths.
    # Trial k has dimension 1 or 3 as k is even or odd and p = 1 + (k % 5) / 2,
    # so the trials k = r (mod 10) share both: one stack.
    worst, g = 0.0, TimeGrid(1.0, 10)
    for r in range(10):
        dim, p = 1 if r % 2 == 0 else 3, 1.0 + (r % 5) * 0.5
        walks = _walks(g, dim, seed, range(100 + r, 150, 10), 1.0)
        for walk, dp in zip(walks, _p_variations(walks, p).tolist()):
            worst = max(worst, abs(dp - p_variation_bruteforce(SampledPath(g, walk), p)))
    checks.append(_record("pvariation_dp_vs_bruteforce", worst, 1e-12))

    # Variation inequalities on random walks.
    grid, trials = TimeGrid(1.0, 64), range(100)
    ys, xs = (_walks(grid, 2, seed, range(first, first + 100), 1.0) for first in (300, 500))
    scalars = _walks(grid, 1, seed, range(700, 800), 1.0)
    p, q, kappa = 2.5, 1.5, 0.5
    vps, vqs = _p_variations(ys, p).tolist(), _p_variations(ys, q).tolist()
    vxs, vxys = _p_variations(xs, p).tolist(), _p_variations(xs * ys, p).tolist()
    v_kappa = _p_variations(scalars, kappa * p).tolist()
    v_psi = _p_variations(np.abs(scalars) ** kappa, p).tolist()
    v_ac = [_p_variations(scalars[r::4], 1.0 + r * 0.7).tolist() for r in range(4)]
    osc = _widths(ys).tolist()
    ysup, xsup = (np.max(np.linalg.norm(v, axis=-1), axis=-1).tolist() for v in (ys, xs))
    total_vars = np.sum(np.abs(np.diff(scalars[..., 0], axis=-1)), axis=-1).tolist()
    mono = interp = prod = chain = ac = 0.0
    for trial in trials:
        vp, vq = vps[trial], vqs[trial]
        mono = max(mono, vp - vq)
        interp = max(interp, vp - vq ** (q / p) * osc[trial] ** (1 - q / p))
        bound = vxs[trial] * ysup[trial] + vp * xsup[trial]
        prod = max(prod, vxys[trial] - bound)
        chain_bound = v_kappa[trial] ** kappa + grid.T**kappa
        chain = max(chain, v_psi[trial] - chain_bound)
        ac = max(ac, v_ac[trial % 4][trial // 4] - total_vars[trial])
    checks.append(_record("variation_monotonicity", mono, 1e-12))
    checks.append(_record("variation_interpolation", interp, 1e-12))
    checks.append(_record("variation_product_rule", prod, 1e-12))
    checks.append(_record("variation_chain_rule", chain, 1e-12))
    checks.append(_record("variation_ac_bound", ac, 1e-12))

    # Young-Loeve bound on piecewise-linear pairs.
    g = TimeGrid(1.0, 32)
    xs, ys = (_smooth_randoms(g, 1, [(seed, k + t) for t in range(100)]) for k in (900, 1100))
    worst_excess = 0.0
    vxs, vys = _p_variations(xs, 1.5).tolist(), _p_variations(ys, 1.5).tolist()
    for x, y, vx, vy in zip(xs, ys, vxs, vys):
        res = _young_loeve_sides(_young_sum(x, y), x, y, vx, vy, 1.0 / 1.5 + 1.0 / 1.5)
        worst_excess = max(worst_excess, res["lhs"] - res["rhs"])
    checks.append(_record("young_loeve_bound", worst_excess, 1e-12))

    # Integration by parts under the left tag, with refinement.
    resids = []
    for n in (512, 1024):
        g = TimeGrid(1.0, n)
        x = SampledPath(g, np.sin(2 * np.pi * g.times))
        y = SampledPath(g, np.exp(g.times))
        bdry = float(x.values[-1, 0] * y.values[-1, 0] - x.values[0, 0] * y.values[0, 0])
        resids.append(abs(young_integral(x, y) + young_integral(y, x) - bdry))
    checks.append(_record("young_integration_by_parts", resids[0], 1e-1))
    checks.append(_record("young_integration_by_parts_refines", resids[1] / resids[0], 0.75))

    # Tag independence under refinement against Wiener integrators.
    min_ratio = np.inf
    fine, coarse = TimeGrid(1.0, 2048), TimeGrid(1.0, 1024)
    sines = [np.sin(g.times)[:, None] for g in (coarse, fine)]
    for w in _walks(fine, 1, seed, range(1300, 1320), np.sqrt(fine.dt)):
        gaps = [abs(_young_sum(x, wv, "left") - _young_sum(x, wv, "midpoint"))
                for x, wv in zip(sines, (w[::2], w))]
        min_ratio = min(min_ratio, gaps[0] / gaps[1])
    checks.append(_record("young_tag_refinement_ratio", min_ratio, 1.3, larger_is_fail=False))

    # Wiener grid-variation dichotomy: stable at p=2.5, unbounded at p=1.5.
    g = TimeGrid(1.0, 4096)
    fines = _walks(g, 1, seed, range(1500, 1520), np.sqrt(g.dt))
    v4096, v128 = (_p_variations(fines[:, ::k], 1.5).tolist() for k in (1, 32))
    v2048, v1024 = (_p_variations(fines[:, ::k], 2.5).tolist() for k in (2, 4))
    lo_15 = min(a / b for a, b in zip(v4096, v128))
    lo_25 = min(a / b for a, b in zip(v2048, v1024))
    hi_25 = max(a / b for a, b in zip(v2048, v1024))
    checks.append(_record("wiener_pvar_stable_p2.5_low", lo_25, 0.8, larger_is_fail=False))
    checks.append(_record("wiener_pvar_stable_p2.5_high", hi_25, 1.25))
    checks.append(_record("wiener_pvar_grows_p1.5", lo_15, 1.3, larger_is_fail=False))
    return checks


def _lorenz_setup(seed, n_steps=512, T=1.0, noise=0.1):
    """Fully observed Lorenz'63 twin with a minimum-energy cost, R = S = I:
    the problem, the truth's initial state and the truth."""
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
    problem = AssimilationProblem(config.model, build_cost(config), eta)
    return problem, config.truth_initial_state, truth


def _scalar_lq(a, grid):
    """xdot = a x + u with phi = x^2/2 + u^2/2 (R = S = 1, observing x),
    observed along the zero path on ``grid``."""
    h, h_jac = coordinate_observation([0], 1)
    quad = QuadraticCostSpec(h=h, h_jac=h_jac, R=np.eye(1), S=np.eye(1))
    model, cost = linear_model([[a]]), build_minimum_energy(quad)
    return AssimilationProblem(model, cost, SampledPath.zeros(grid, 1))


def suite_adjoint(seed: int = 0) -> list:
    checks = []
    problem, xi, truth = _lorenz_setup(seed)
    grid = problem.eta.grid
    u = SampledPath.zeros(grid, 3)
    lam = solve_costate(problem, truth, u)
    checks.append(_record("costate_terminal_condition", np.max(np.abs(lam.values[-1])), 0.0))

    # Closed-form linear adjoint: xdot = a x, phi = x^2/2, psi = 0.
    a = -0.7
    lgrid = TimeGrid(1.0, 1024)
    # R = 1 keeps phi = x^2/2 + u^2/2 but psi couples to the zero path, so
    # the stochastic term vanishes and the linear adjoint is closed form.
    lin = _scalar_lq(a, lgrid)
    x0 = np.array([1.3])
    xlin = integrate_state(lin.model, SampledPath.zeros(lgrid, 1), x0, lgrid)
    lam_lin = solve_costate(lin, xlin, SampledPath.zeros(lgrid, 1))
    t = lgrid.times
    exact = x0[0] * np.exp(-a * t) * (np.exp(2 * a * lgrid.T) - np.exp(2 * a * t)) / (2 * a)
    checks.append(
        _record("costate_linear_closed_form", np.max(np.abs(lam_lin.values[:, 0] - exact)), 1e-4)
    )

    # Zero residual when the control sits at the pointwise minimizer.
    ustar = pointwise_hamiltonian_minimizer(problem, grid.times, truth.values, lam.values)
    triple = OptimalTriple(x=truth, u=SampledPath(grid, ustar), lam=lam)
    checks.append(
        _record("mp_residual_at_minimizer", max_principle_residual(triple, problem), 1e-12)
    )

    # Costate grid q-variation stabilizes under refinement for q = 2.5.
    lams = []
    for s in range(3):
        problemf, _, truthf = _lorenz_setup((seed + s) % 2**64, n_steps=2048, T=1.0)
        lams.append(solve_costate(problemf, truthf, SampledPath.zeros(problemf.eta.grid, 3)).values)
    fine, coarse = (_p_variations(np.stack(lams)[:, ::k], 2.5).tolist() for k in (1, 2))
    ratios = [a / b for a, b in zip(fine, coarse)]
    checks.append(_record("costate_qvar_ratio_high", max(ratios), 1.25))
    checks.append(_record("costate_qvar_ratio_low", min(ratios), 0.8, larger_is_fail=False))
    return checks


def suite_duality(seed: int = 0) -> list:
    # Draw s takes its numbers from seed + s, wrapped into the seed range.
    draws = [(seed + s) % 2**64 for s in range(20)]
    resids = {}
    for n in (512, 1024):
        g = TimeGrid(1.0, n)
        a, b = (_smooth_randoms(g, 2, [(d, stream) for d in draws]) for stream in (31, 37))
        M, ends = [], []
        for d in draws:
            rng = wiener_rng(d, 41)
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


def _central_differences(problem, u, xi, nodes, h) -> np.ndarray:
    """d(cost)/d u[node, component] by central differences of forward + cost.

    Returns one row per node.  The two perturbed forward solves of every
    entry run as one member batch, and their costs are one stacked
    evaluation; the first entry whose sweep or cost blows up raises.
    """
    m = u.values.shape[1]
    probes = np.repeat(u.values[None], 2 * m * len(nodes), axis=0)
    entries = [(node, comp) for node in nodes for comp in range(m)]
    for k, (node, comp) in enumerate(entries):
        probes[2 * k, node, comp] += h
        probes[2 * k + 1, node, comp] += -h
    states, blown = rk4_sweep(problem.model, probes, xi, u.grid)
    costs, bad = _eval_costs(problem.cost, states, probes, problem.eta)
    for node, at in zip(blown, bad):  # the first entry to blow up raises
        if node >= 0 or at >= 0:
            raise BlowUpError(int(node)) if node >= 0 else _cost_blowup(at)
    return ((costs[0::2] - costs[1::2]) / (2.0 * h)).reshape(len(nodes), m)


def suite_gradient(seed: int = 0) -> list:
    # Fine grid + short window keep the O(dt) continuous-vs-discrete adjoint
    # defect (scaling like dt * |Jacobian|) below the 1e-3 certificate.
    problem, xi, _ = _lorenz_setup(seed, n_steps=4096, T=0.0625, noise=0.01)
    grid = problem.eta.grid
    rng = wiener_rng(seed, 53)
    u = SampledPath(grid, rng.normal(size=(grid.n_nodes, 3)))
    x = integrate_state(problem.model, u, xi, grid)
    lam = solve_costate(problem, x, u)
    G = control_gradient(problem, x, u, lam)
    worst = 0.0
    nodes = rng.choice(np.arange(1, grid.n_steps), size=20, replace=False)
    for node, fd in zip(nodes, _central_differences(problem, u, xi, nodes, 1e-5)):
        pred = grid.dt * G.values[node]
        rel = np.linalg.norm(fd - pred) / max(np.linalg.norm(fd), np.linalg.norm(pred), 1e-12)
        worst = max(worst, rel)
    return [_record("gradient_fd_rel_gap", worst, 1e-3)]


def suite_valueprobe(seed: int = 0) -> list:
    problem = _scalar_lq(1.0, TimeGrid(1.0, 2048))
    probe = value_probe(problem, np.array([0.8]), h=1e-4, solver="shoot")
    return [_record("valueprobe_scalar_lq_gap", probe["max_abs_gap"], 1e-3)]


def run_suite(suite: str, seed: int = 0) -> dict:
    """Run one named suite (or "all") and return the report payload."""
    _seed(seed, "seed")  # whether or not the suite draws from it
    names = SUITES if suite == "all" else (suite,)
    all_checks = []
    for name in names:
        if name not in SUITES:
            raise InvalidSpecError(f"unknown suite {name!r}; choose from {('all',) + SUITES}")
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
