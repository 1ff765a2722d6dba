"""Import-time dependencies and the top-level names.

The built-in experiments run on numpy alone: scipy is loaded on first use
only, by general sparse operators, non-constant tridiagonal bands and the
`.matrix` of an operator or a factorization.  `dgtime.__all__` lists what
the README and the benchmark read from the top level, and no submodule;
each submodule's `__all__` names only what it defines.
"""

import importlib
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
import scipy.sparse as sp

from dgtime.basis import make_workspace
from dgtime.system import factorize_step_matrix, shifted_lu, solve_step, sparse_operator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

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


def test_import_loads_no_argparse():
    # the CLI parser imports argparse when it is built, not when dgtime is imported
    code = "import sys, dgtime; print('argparse' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


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


def test_all_lists_the_top_level_names_the_readme_and_the_benchmark_read():
    import dgtime

    namespace = {}
    exec("from dgtime import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(dgtime.__all__)
    assert len(set(dgtime.__all__)) == len(dgtime.__all__)
    assert not [name for name in dgtime.__all__
                if isinstance(getattr(dgtime, name), ModuleType)]
    # every dt.<name> the README and perfbench/workloads.py use; dt.bench.TableRow
    # reaches through a submodule, which stays an attribute of the package
    for path in (ROOT / "README.md", ROOT / "perfbench" / "workloads.py"):
        names = set(re.findall(r"\bdt\.(\w+)", path.read_text()))
        assert names, path
        for name in names:
            if not isinstance(getattr(dgtime, name), ModuleType):
                assert name in dgtime.__all__, (path.name, name)


@pytest.mark.parametrize("name", sorted({path.stem for path in (SRC / "dgtime").glob("*.py")}
                                         - {"__init__", "__main__"}))
def test_submodule_all_names_resolve_and_star_import_binds_them(name):
    # a name left in __all__ after its definition went fails the star import
    module = importlib.import_module(f"dgtime.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    for attr in module.__all__:
        assert hasattr(module, attr), (name, attr)
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(f"from dgtime.{name} import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(module.__all__)
