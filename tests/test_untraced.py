"""`tools/untraced.py` lists the package functions that no input enters.

On one small CLI run the general sparse operator is never built while the
DG solve runs, and a decorated function that runs (the cached workspace)
is matched by its first decorator line, so neither of those two is listed.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "untraced.py"


def _load():
    spec = importlib.util.spec_from_file_location("untraced", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_cli_run_leaves_the_sparse_operator_untraced():
    names = _load().untraced(runs=["ode --r 1 --N 4"], workloads=[], readme=False)
    assert "system.sparse_operator" in names
    assert "dg.dg_solve" not in names
    assert "basis.make_workspace" not in names
