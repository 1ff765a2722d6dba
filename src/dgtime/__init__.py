"""Arbitrary-order discontinuous Galerkin time stepping for u' + A u = f.

Piecewise-polynomial solutions in a local Legendre basis, the continuous
degree-r reconstruction, a jump-based error indicator, Laplace-transform
reference solutions, and a benchmark CLI for convergence studies.
"""

from .bench import (
    ConvergenceTable,
    ExtrapolatedSolution,
    max_error_sampled,
    observed_rates,
    run_experiment,
    run_profile,
)
from .dg import DgSolution, Forcing, LinearProblem, PiecewiseLegendre, dg_solve
from .mesh import TimeMesh, uniform_mesh
from .models import Heat1dConfig, Heat2dConfig, heat1d_problem, heat2d_problem, ode_problem
from .postprocess import Reconstruction, jump_indicator, reconstruct
from .reference import Heat1dReference, Heat2dReference, ode_exact
from .system import (
    LinearOperator,
    kronecker_sum_operator,
    scalar_operator,
    sparse_operator,
    tridiagonal_operator,
)

# what the README's library use, the CLI and the benchmark read from the top
# level; the building blocks stay in their modules (dgtime.basis, ...)
__all__ = [
    # problems and the operators a LinearProblem takes
    "LinearProblem", "Forcing", "LinearOperator", "scalar_operator", "tridiagonal_operator",
    "sparse_operator", "kronecker_sum_operator", "ode_problem", "Heat1dConfig",
    "Heat2dConfig", "heat1d_problem", "heat2d_problem",
    # time meshes and the DG solve
    "TimeMesh", "uniform_mesh", "dg_solve",
    # piecewise solutions and their post-processing
    "PiecewiseLegendre", "DgSolution", "Reconstruction", "ExtrapolatedSolution",
    "reconstruct", "jump_indicator",
    # reference solutions
    "ode_exact", "Heat1dReference", "Heat2dReference",
    # measurement, tables and the CLI's runners
    "max_error_sampled", "observed_rates", "ConvergenceTable", "run_experiment", "run_profile",
]
__version__ = "0.1.0"
