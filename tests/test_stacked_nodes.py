"""The stacked-node contract: a callable given nodes stacked along a leading
axis returns exactly the stack of its one-node results.

The non-recursive layers (cost, control gradient, maximum-principle
residual, observation synthesis) evaluate every grid node in one call, and
the costate sweep evaluates its Jacobians a block of nodes at a time, so a
row that differs from its one-node value, even in the last bit, would change
the artifacts.
"""

import numpy as np
import pytest

from roughassim.adjoint import hamiltonian, pointwise_hamiltonian_minimizer
from roughassim.cost import (
    QuadraticCostSpec,
    build_minimum_energy,
    build_onsager_machlup,
    coordinate_observation,
)
from roughassim.dynamics import ModelSpec, linear_model, lorenz63_model, lorenz96_model
from roughassim.optimizer import ControlSetSpec

N_NODES = 50

MODELS = {
    "lorenz63": lorenz63_model,
    "lorenz96_n40": lambda: lorenz96_model(40),
    "lorenz96_n9": lambda: lorenz96_model(9),
    "linear": lambda: linear_model(
        np.random.default_rng(1).normal(size=(3, 3)), np.random.default_rng(2).normal(size=(3, 3))
    ),
    "linear_3x2": lambda: linear_model(
        np.random.default_rng(1).normal(size=(3, 3)), np.random.default_rng(2).normal(size=(3, 2))
    ),
}
# The Onsager-Machlup metric (g g')^-1 needs as many controls as states.
COSTS = [
    (name, family)
    for name in MODELS
    for family in ("minimum_energy", "onsager_machlup")
    if (name, family) != ("linear_3x2", "onsager_machlup")
]


def spd(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T + d * np.eye(d)


def nodes(model, seed=0):
    """Random times, states, costates and controls for N_NODES nodes."""
    rng = np.random.default_rng(seed)
    n, m = model.state_dim, model.control_dim
    return (
        rng.uniform(0.0, 1.0, size=N_NODES),
        5.0 * rng.normal(size=(N_NODES, n)),
        rng.normal(size=(N_NODES, n)),
        rng.normal(size=(N_NODES, m)),
    )


def build(model, family, observed):
    rng = np.random.default_rng(3)
    n = model.state_dim
    indices = range(n) if observed == "full" else range(0, n, 2)
    h, h_jac = coordinate_observation(indices, n)
    d = len(indices)
    R_dot = spd(rng, d)
    quad = QuadraticCostSpec(
        h=h, h_jac=h_jac, R=spd(rng, d), S=spd(rng, model.control_dim), h_dt=h,
        R_dt=lambda t: R_dot,
    )
    if family == "minimum_energy":
        return build_minimum_energy(quad), h, h_jac
    return build_onsager_machlup(quad, model), h, h_jac


def assert_stacks(fn, *args):
    """fn on the stacked args equals the stack of fn on each node's args."""
    stacked = fn(*args)
    rows = np.array([fn(*(a[k] for a in args)) for k in range(N_NODES)])
    # A constant result (g, h_jac, D2psi) may come back unstacked.
    assert np.array_equal(np.broadcast_to(stacked, rows.shape), rows)


@pytest.mark.parametrize("name", MODELS)
def test_model_callables_stack(name):
    model = MODELS[name]()
    t, x, _, u = nodes(model)
    assert_stacks(model.f, t, x)
    assert_stacks(model.g, t, x)
    assert_stacks(model.drift, t, x, u)


@pytest.mark.parametrize("name", MODELS)
def test_model_jacobians_stack(name):
    model = MODELS[name]()
    t, x, _, u = nodes(model)
    assert_stacks(model.D2f, t, x)
    assert_stacks(model.linearization, t, x, u)


def test_linearization_with_D2g_stacks():
    # The state-dependent g = (1 + x0^2) I of test_dynamics, written for
    # stacked nodes.  Contracting D2g with u may move the last bit against
    # a one-node einsum, so this compares to a tolerance.
    n = 2
    A = np.array([[-1.0, 2.0], [0.5, -3.0]])

    def g(t, x):
        return (1.0 + x[..., 0, None, None] ** 2) * np.eye(n)

    def D2g(t, x):
        out = np.zeros(np.shape(x)[:-1] + (n, n, n))
        out[..., :, :, 0] = 2.0 * x[..., 0, None, None] * np.eye(n)
        return out

    model = ModelSpec(n, n, lambda t, x: np.matvec(A, x), g, lambda t, x: A, D2g)
    t, x, _, u = nodes(model)
    stacked = model.linearization(t, x, u)
    rows = [model.linearization(t[k], x[k], u[k]) for k in range(N_NODES)]
    einsum = [A + np.einsum("ijk,j->ik", D2g(t[k], x[k]), u[k]) for k in range(N_NODES)]
    np.testing.assert_allclose(stacked, rows, rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(stacked, einsum, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("observed", ["full", "partial"])
@pytest.mark.parametrize("name, family", COSTS)
def test_cost_callables_stack(name, family, observed):
    model = MODELS[name]()
    cost, h, h_jac = build(model, family, observed)
    t, x, _, u = nodes(model)
    for fn in (cost.phi, cost.D2phi, cost.D3phi):
        assert_stacks(fn, t, x, u)
    for fn in (cost.psi, cost.D1psi, cost.D2psi, h, h_jac):
        assert_stacks(fn, t, x)


CONTROL_SETS = {
    "free": lambda m: ControlSetSpec(),
    "box": lambda m: ControlSetSpec(kind="box", lo=-0.5 * np.ones(m), hi=0.5 * np.ones(m)),
    "ball": lambda m: ControlSetSpec(kind="ball", center=0.1 * np.ones(m), radius=0.7),
}


@pytest.mark.parametrize("control_set", CONTROL_SETS)
@pytest.mark.parametrize("observed", ["full", "partial"])
@pytest.mark.parametrize("name, family", COSTS)
def test_hamiltonian_and_minimizer_stack(name, family, observed, control_set):
    model = MODELS[name]()
    cost, _, _ = build(model, family, observed)
    cset = CONTROL_SETS[control_set](model.control_dim)
    t, x, lam, u = nodes(model)
    assert_stacks(lambda *a: hamiltonian(cost, model, *a), t, x, lam, u)
    assert_stacks(lambda *a: pointwise_hamiltonian_minimizer(cost, model, *a, cset), t, x, lam)
