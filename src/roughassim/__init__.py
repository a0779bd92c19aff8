"""Variational data assimilation with Young-integral observation coupling.

Library + CLI for minimizing performance indices of the form
``A(x, u) = int phi dt + int psi d eta`` where eta is a rough
(Wiener-perturbed) integrated-observation path and the stochastic term
is a Young integral.  Ships exact grid p-variation, costate/adjoint
gradients, a projected-gradient minimizer, Hamiltonian shooting, and a
twin-experiment harness.  Pure Python on top of numpy.
"""

__version__ = "0.1.0"

from .adjoint import (
    OptimalTriple,
    control_gradient,
    duality_check,
    hamiltonian,
    max_principle_residual,
    pointwise_hamiltonian_minimizer,
    solve_costate,
)
from .cost import (
    CostSpec,
    QuadraticCostSpec,
    build_minimum_energy,
    build_onsager_machlup,
    coordinate_observation,
    eval_cost,
    eval_cost_by_parts,
)
from .dynamics import (
    Lorenz63Params,
    ModelSpec,
    energy_diagnostic,
    integrate_state,
    linear_model,
    lorenz63_model,
    lorenz96_model,
)
from .errors import (
    BlowUpError,
    GridMismatchError,
    InvalidParameterError,
    InvalidSpecError,
    NoConvergenceError,
    RoughAssimError,
    UnsupportedCostError,
)
from .grid import (
    SampledPath,
    TimeGrid,
    read_path_csv,
    require_same_grid,
    write_path_csv,
)
from .optimizer import (
    AssimilationResult,
    ControlSetSpec,
    OptimizerConfig,
    minimize,
    minimize_batch,
    project_control,
)
from .roughpath import (
    build_observation,
    oscillation,
    p_variation,
    p_variation_bruteforce,
    sample_wiener,
    wiener_rng,
    young_bound_check,
    young_integral,
)
from .shooting import integrate_hamiltonian, shoot, shoot_batch, value_probe

__all__ = [
    "__version__",
    "AssimilationResult",
    "BlowUpError",
    "ControlSetSpec",
    "CostSpec",
    "GridMismatchError",
    "InvalidParameterError",
    "InvalidSpecError",
    "Lorenz63Params",
    "ModelSpec",
    "NoConvergenceError",
    "OptimalTriple",
    "OptimizerConfig",
    "QuadraticCostSpec",
    "RoughAssimError",
    "SampledPath",
    "TimeGrid",
    "UnsupportedCostError",
    "build_minimum_energy",
    "build_observation",
    "build_onsager_machlup",
    "control_gradient",
    "coordinate_observation",
    "duality_check",
    "energy_diagnostic",
    "eval_cost",
    "eval_cost_by_parts",
    "hamiltonian",
    "integrate_hamiltonian",
    "integrate_state",
    "linear_model",
    "lorenz63_model",
    "lorenz96_model",
    "max_principle_residual",
    "minimize",
    "minimize_batch",
    "oscillation",
    "p_variation",
    "p_variation_bruteforce",
    "pointwise_hamiltonian_minimizer",
    "project_control",
    "read_path_csv",
    "require_same_grid",
    "sample_wiener",
    "shoot",
    "shoot_batch",
    "solve_costate",
    "value_probe",
    "wiener_rng",
    "write_path_csv",
    "young_bound_check",
    "young_integral",
]
