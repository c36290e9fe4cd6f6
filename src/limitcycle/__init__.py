"""Spectral collocation solver for periodic steady states of forced systems."""

from .continuation import (
    Branch,
    BranchSeedError,
    SweepConfig,
    extract_extrema,
    sweep,
)
from .models import (
    CircuitParams,
    LinearParams,
    PendulumParams,
    circuit_outputs,
    circuit_system,
    diode_residual,
    diode_voltage,
    diode_voltages,
    linear_system,
    pendulum_system,
    square_wave,
)
from .solver import NewtonConfig, SingularJacobianError, SolveResult, newton_solve
from .spectral import (
    DiffMatrix,
    NodeGrid,
    apply_derivative,
    diff_matrix_equispaced,
    equispaced_nodes,
    trig_interpolate,
)
from .system import (
    CollocationProblem,
    PeriodicSystem,
    RhsEvaluationError,
    flatten,
    jacobian,
    node_derivatives,
    residual,
    rhs_stack,
    unflatten,
)
from .warmstart import (
    TransientConfig,
    TransientDivergenceError,
    TransientResult,
    guess_near_pi,
    rk4_transient,
)

__all__ = [
    "Branch",
    "BranchSeedError",
    "CircuitParams",
    "CollocationProblem",
    "DiffMatrix",
    "LinearParams",
    "NewtonConfig",
    "NodeGrid",
    "PendulumParams",
    "PeriodicSystem",
    "RhsEvaluationError",
    "SingularJacobianError",
    "SolveResult",
    "SweepConfig",
    "TransientConfig",
    "TransientDivergenceError",
    "TransientResult",
    "apply_derivative",
    "circuit_outputs",
    "circuit_system",
    "diff_matrix_equispaced",
    "diode_residual",
    "diode_voltage",
    "diode_voltages",
    "equispaced_nodes",
    "extract_extrema",
    "flatten",
    "guess_near_pi",
    "jacobian",
    "linear_system",
    "newton_solve",
    "node_derivatives",
    "pendulum_system",
    "residual",
    "rhs_stack",
    "rk4_transient",
    "square_wave",
    "sweep",
    "trig_interpolate",
    "unflatten",
]

__version__ = "0.1.0"
