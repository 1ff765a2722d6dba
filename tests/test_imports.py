"""Import-time dependencies: the built-in experiments run on numpy alone.

scipy is loaded on first use only, by general sparse operators, non-constant
tridiagonal bands and the `.matrix` of an operator or a factorization.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from dgtime.basis import make_workspace
from dgtime.system import factorize_step_matrix, shifted_lu, solve_step, sparse_operator

SRC = Path(__file__).resolve().parent.parent / "src"

WITHOUT_SCIPY = textwrap.dedent("""
    import sys
    sys.modules["scipy"] = None  # any scipy import now raises ImportError
    import dgtime

    runs = [
        ("ode", dict(n_list=(4, 8))),
        ("heat1d", dict(n_list=(4, 8), p=20)),
        ("heat1d", dict(n_list=(4, 8), p=20, cutoff=True)),
        ("heat2d", dict(n_list=(4, 8), p=8)),
        ("heat2d", dict(n_list=(4, 8), p=8, cutoff=True)),
    ]
    for experiment, kwargs in runs:
        table = dgtime.run_experiment(experiment, **kwargs)
        assert len(table.rows) == 2, (experiment, kwargs)
    assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
    print("ok")
""")


def test_builtin_experiments_run_without_scipy():
    out = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY], cwd=SRC,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_sparse_paths_load_scipy_on_first_use():
    rng = np.random.default_rng(3)
    B = sp.random(6, 6, density=0.3, random_state=4)
    A = sparse_operator(B @ B.T + sp.identity(6))
    assert sp.issparse(A.matrix) and A.matrix.shape == (6, 6)
    v = rng.standard_normal(6)
    np.testing.assert_allclose(A.apply(v), A.matrix @ v, rtol=1e-15)

    lu = shifted_lu(A, 1.5 + 0.5j, 0.3)
    b = rng.standard_normal(6).astype(complex)
    x = lu.solve(b)
    np.testing.assert_allclose((1.5 + 0.5j) * x + 0.3 * (A.matrix @ x), b, rtol=1e-12)

    ws = make_workspace(3)
    fac = factorize_step_matrix(A, ws, 0.2)
    assert sp.issparse(fac.matrix) and fac.matrix.shape == (18, 18)
    rhs = rng.standard_normal((3, 6))
    np.testing.assert_allclose(fac.matrix @ solve_step(fac, rhs).ravel(), rhs.ravel(),
                               rtol=1e-12, atol=1e-12)
