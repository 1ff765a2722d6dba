"""The functions of the `dgtime` package that no input it serves ever enters.

    python tools/untraced.py

The inputs are the ones the other tools and the benchmark run:

- every `dgtime` command line of `RUNS` in `tools/bytediff.py`, through
  `dgtime.bench.main`;
- each benchmark workload's tables (`run_tables` of `perfbench/workloads.py`,
  seed 0) three ways: plain, with the contour self-check of
  `perfbench/child.py` and under the per-layer tracer of
  `perfbench/tracer.py`;
- the README's python blocks, run in order as one script.

Each input runs in a fresh interpreter that imports dgtime from `src/`, with
BLAS pinned to one thread and a `sys.setprofile` hook that records every
function of `src/dgtime` it enters.  The perfbench files are loaded from
their files and only read.  It prints the functions (module.qualified name,
in source order) that no input entered, one a line.  A function is known by
its module and first line, which for a decorated function is the line of
its first decorator.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dgtime"

# runs in a fresh interpreter in the checkout: argv[1] is the JSON of one
# input, [kind, argument], and argv[2] the package folder; prints the JSON
# list of [file, first line] of every function in that folder the input entered
CHILD = """
import contextlib, importlib.util, io, json, re, shlex, sys
package, entered = sys.argv[2], set()

def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.dont_write_bytecode = True  # perfbench/ is only read

def load(name):
    spec = importlib.util.spec_from_file_location(name, f"perfbench/{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

kind, argument = json.loads(sys.argv[1])
sys.setprofile(profile)
import dgtime
if kind == "runs":
    for run in argument:
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                dgtime.bench.main(shlex.split(run))
            except SystemExit:
                pass
elif kind == "readme":
    blocks = re.findall(r"^```python\\n(.*?)^```$", open("README.md").read(),
                        flags=re.DOTALL | re.MULTILINE)
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile("\\n".join(blocks), "README.md", "exec"), {})
else:
    name, mode = argument
    workloads = load("workloads")
    inputs = workloads.make_inputs(dgtime, name, 0)
    if mode == "traced":
        tracer = load("tracer").Tracer(dgtime)
    references = []
    if mode == "selfcheck":
        child = load("child")
        child._capture_references(dgtime, references)
    workloads.run_tables(dgtime, name, inputs)
    if mode == "traced":
        tracer.freeze()
        tracer.metrics()
    if mode == "selfcheck":
        child._selfcheck(references)
sys.setprofile(None)
json.dump(sorted(entered), sys.stdout)
"""


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> module.qualified name of every def in src/dgtime;
    the first line of a decorated def is that of its first decorator."""
    out = {}

    def walk(node, path: Path, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                out[(str(path), first)] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path, f"{path.stem}.")
    return out


def entered(item) -> set[tuple[str, int]]:
    """(file, first line) of every function of src/dgtime that one interpreter's input
    enters."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(item), str(PACKAGE)],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"input {item} failed:\n{proc.stderr}")
    return {tuple(key) for key in json.loads(proc.stdout)}


def untraced(runs=None, workloads=None, readme: bool = True) -> list[str]:
    """Names of the functions no input enters, in source order; runs and workloads
    default to every entry of `tools/bytediff.py`'s RUNS and WORKLOADS."""
    bytediff = _load("bytediff", ROOT / "tools" / "bytediff.py")
    runs = bytediff.RUNS if runs is None else runs
    workloads = bytediff.WORKLOADS if workloads is None else workloads
    # one interpreter for the CLI runs, one per workload and mode, one for the README
    items = ([["runs", list(runs)]] if runs else []) + [
        ["workload", [name, mode]] for name in workloads
        for mode in ("plain", "selfcheck", "traced")] + ([["readme", None]] if readme else [])
    seen = set()
    for item in items:
        seen |= entered(item)
    return [name for key, name in sorted(functions().items()) if key not in seen]


def main() -> int:
    for name in untraced():
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
