"""Arbitrary-order discontinuous Galerkin time stepping for u' + A u = f.

Piecewise-polynomial solutions in a local Legendre basis, the continuous
degree-r reconstruction, a jump-based error indicator, Laplace-transform
reference solutions, and a benchmark CLI for convergence studies.
"""

from .basis import (
    LegendreWorkspace,
    gauss_rule,
    g_matrix,
    h_diag,
    legendre_coeff,
    legendre_eval,
    make_workspace,
    radau_abscissas,
    radau_rule,
)
from .bench import (
    ConvergenceTable,
    ExtrapolatedSolution,
    max_error_sampled,
    observed_rates,
    run_experiment,
    run_profile,
)
from .dg import DgSolution, Forcing, LinearProblem, PiecewiseLegendre, dg_solve, state_norm
from .mesh import TimeMesh, uniform_mesh
from .models import (
    Heat1dConfig,
    Heat2dConfig,
    heat1d_problem,
    heat2d_problem,
    ode_problem,
)
from .postprocess import (
    Reconstruction,
    error_profile_deviation,
    jump_indicator,
    reconstruct,
)
from .reference import (
    ContourRule,
    Heat1dReference,
    Heat2dReference,
    fhat,
    hyperbolic_contour,
    ode_exact,
    resolvent_2d,
    richardson,
    uhat_1d,
)
from .system import (
    BlockSystemFactorization,
    LinearOperator,
    factorize_step_matrix,
    kronecker_sum_operator,
    scalar_operator,
    solve_step,
    sparse_operator,
    tridiagonal_operator,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
