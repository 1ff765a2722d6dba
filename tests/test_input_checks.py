"""Input checks that neither the other tests nor the byte-diff runs reach.

Each bad argument must fail with its own exception type and message, not
deeper inside the computation.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from dgtime.basis import g_matrix, h_diag, radau_rule
from dgtime.bench import TableSpec, main, max_error_sampled, run_experiment
from dgtime.dg import DgSolution, dg_solve
from dgtime.mesh import TimeMesh, uniform_mesh
from dgtime.models import Heat1dConfig, Heat2dConfig, heat1d_problem, heat2d_problem, ode_problem
from dgtime.reference import Heat1dReference, Heat2dReference, hyperbolic_contour, ode_exact


def _heat1d_reference(t_min, **kwargs):
    cfg = Heat1dConfig(P=4)
    return Heat1dReference(cfg, heat1d_problem(cfg).forcing, t_min, cfg.T, **kwargs)


def _heat2d_reference(**kwargs):
    problem = heat2d_problem(Heat2dConfig(Px=4, Py=4))
    return Heat2dReference(problem, 0.25, problem.T, **kwargs)


CASES = {
    "g_matrix r=0": (lambda: g_matrix(0), ValueError, "r must be at least 1"),
    "h_diag r=0": (lambda: h_diag(0), ValueError, "r must be at least 1"),
    "radau_rule r=0": (lambda: radau_rule(0), ValueError, "r must be at least 1"),
    "LinearProblem u0 length": (lambda: replace(ode_problem(), u0=np.zeros(2)), ValueError,
                                "initial state dimension does not match the operator"),
    "LinearProblem T=0": (lambda: replace(ode_problem(), T=0.0), ValueError,
                          "final time must be positive"),
    "LinearProblem T<0": (lambda: replace(ode_problem(), T=-1.0), ValueError,
                          "final time must be positive"),
    # NaN is not <= 0, so it needs its own check
    "LinearProblem T=nan": (lambda: replace(ode_problem(), T=float("nan")), ValueError,
                            "final time must be finite, got nan"),
    "LinearProblem T=inf": (lambda: replace(ode_problem(), T=float("inf")), ValueError,
                            "final time must be finite, got inf"),
    "LinearProblem norm_weight=-1": (lambda: replace(ode_problem(), norm_weight=-1.0),
                                     ValueError,
                                     "norm_weight must be finite and positive, got -1.0"),
    "LinearProblem norm_weight=nan": (lambda: replace(ode_problem(), norm_weight=float("nan")),
                                      ValueError,
                                      "norm_weight must be finite and positive, got nan"),
    "DgSolution 2-D array": (lambda: DgSolution(uniform_mesh(1.0, 2), 2, np.zeros((2, 2)),
                                                np.zeros(1)),
                             ValueError, "coefficient array must have shape (N, q, M)"),
    "DgSolution N mismatch": (lambda: DgSolution(uniform_mesh(1.0, 2), 2, np.zeros((3, 2, 1)),
                                                 np.zeros(1)),
                              ValueError, "coefficient array must have shape (N, q, M)"),
    "TimeMesh one node": (lambda: TimeMesh(np.array([0.0])), ValueError,
                          "mesh needs at least two nodes"),
    "hyperbolic_contour t_min=0": (lambda: hyperbolic_contour(0.0, 1.0, 8), ValueError,
                                   "need 0 < t_min <= t_max"),
    "hyperbolic_contour t_min>t_max": (lambda: hyperbolic_contour(2.0, 1.0, 8), ValueError,
                                       "need 0 < t_min <= t_max"),
    "hyperbolic_contour half_nodes=0": (lambda: hyperbolic_contour(0.1, 1.0, 0), ValueError,
                                        "half_nodes must be positive"),
    "Heat1dReference t_min=0": (lambda: _heat1d_reference(0.0), ValueError,
                                "need 0 < t_min <= t_max"),
    "Heat1dReference t_min<0": (lambda: _heat1d_reference(-0.1), ValueError,
                                "need 0 < t_min <= t_max"),
    "CLI --N 8,x": (lambda: main(["ode", "--N", "8,x"]), SystemExit,
                    "invalid --N list: '8,x'"),
    # the CLI's experiment choices keep this from the command line
    "TableSpec unknown experiment before the profile flags": (
        lambda: TableSpec("heat3d", n_list=(8,), profile=True, moments="gauss"), ValueError,
        "unknown experiment 'heat3d'"),
    # the CLI's choices and float parsing keep these two from the command line
    "TableSpec unknown moments": (lambda: TableSpec("heat2d", moments="simpson"), ValueError,
                                  "unknown moment quadrature 'simpson'"),
    "TableSpec string weighted": (lambda: TableSpec("ode", weighted="1.25"), ValueError,
                                  "weighted must be a real number, got '1.25'"),
    # a bool is a numbers.Integral and a numbers.Real, but no count and no exponent
    "run_experiment r=True": (lambda: run_experiment("ode", r=True), ValueError,
                              "r must be an integer, got True"),
    "TableSpec N=True": (lambda: TableSpec("ode", n_list=(True, 2)), ValueError,
                         "N values must be integers, got [True, 2]"),
    "TableSpec p=True": (lambda: TableSpec("heat1d", p=True), ValueError,
                         "p must be an integer, got True"),
    "TableSpec samples=True": (lambda: TableSpec("ode", samples=True), ValueError,
                               "samples must be an integer, got True"),
    "TableSpec weighted=True": (lambda: TableSpec("ode", weighted=True), ValueError,
                                "weighted must be a real number, got True"),
    # a truthy string would switch the forcing off; an int N list fails in tuple() or len()
    "TableSpec homogeneous='false'": (lambda: TableSpec("heat1d", homogeneous="false"),
                                      ValueError, "homogeneous must be a bool, got 'false'"),
    "TableSpec cutoff=1": (lambda: TableSpec("heat1d", cutoff=1), ValueError,
                           "cutoff must be a bool, got 1"),
    "TableSpec profile=None": (lambda: TableSpec("ode", n_list=(8,), profile=None), ValueError,
                               "profile must be a bool, got None"),
    "TableSpec n_list=8": (lambda: TableSpec("ode", n_list=8), ValueError,
                           "n_list must be a sequence, got 8"),
    "TableSpec profile n_list=8": (lambda: TableSpec("ode", n_list=8, profile=True), ValueError,
                                   "n_list must be a sequence, got 8"),
    "TableSpec n_list='8,16'": (lambda: TableSpec("ode", n_list="8,16"), ValueError,
                                "n_list must be a sequence, got '8,16'"),
    "TableSpec n_list={8}": (lambda: TableSpec("ode", n_list={8}), ValueError,
                             "n_list must be a sequence, got {8}"),
    "uniform_mesh N=True": (lambda: uniform_mesh(2.0, True), ValueError,
                            "interval count must be an integer, got N=True"),
    # integer counts at the library entry points, checked before numpy sees them
    "heat1d_problem P=2.5": (lambda: heat1d_problem(Heat1dConfig(P=2.5)), ValueError,
                             "P must be an integer, got 2.5"),
    "heat2d_problem Px=10.0": (lambda: heat2d_problem(Heat2dConfig(Px=10.0)), ValueError,
                               "Px must be an integer, got 10.0"),
    "Heat2dConfig Py=10.0": (lambda: Heat2dConfig(Py=10.0), ValueError,
                             "Py must be an integer, got 10.0"),
    "hyperbolic_contour half_nodes=2.5": (lambda: hyperbolic_contour(0.25, 2.0, 2.5), ValueError,
                                          "half_nodes must be an integer, got 2.5"),
    "Heat1dReference half_nodes=2.5": (lambda: _heat1d_reference(0.25, half_nodes=2.5),
                                       ValueError, "half_nodes must be an integer, got 2.5"),
    "Heat2dReference half_nodes=2.5": (lambda: _heat2d_reference(half_nodes=2.5), ValueError,
                                       "half_nodes must be an integer, got 2.5"),
    "dg_solve r=2.5": (lambda: dg_solve(ode_problem(), uniform_mesh(2.0, 4), 2.5), ValueError,
                       "r must be an integer, got 2.5"),
    "max_error_sampled samples=2.5": (
        lambda: max_error_sampled(dg_solve(ode_problem(), uniform_mesh(2.0, 4), 2), ode_exact,
                                  2.5),
        ValueError, "samples_per_interval must be an integer, got 2.5"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_bad_input_raises_its_own_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
