"""Input checks that neither the other tests nor the byte-diff runs reach.

Each bad argument must fail with its own exception type and message, not
deeper inside the computation.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from dgtime.basis import g_matrix, h_diag, radau_rule
from dgtime.bench import TableSpec, main
from dgtime.dg import DgSolution
from dgtime.mesh import TimeMesh, uniform_mesh
from dgtime.models import Heat1dConfig, heat1d_problem, ode_problem
from dgtime.reference import Heat1dReference, hyperbolic_contour


def _heat1d_reference(t_min):
    cfg = Heat1dConfig(P=4)
    return Heat1dReference(cfg, heat1d_problem(cfg).forcing, t_min, cfg.T)


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
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_bad_input_raises_its_own_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
