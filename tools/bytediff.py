"""Byte diff of the CLI's and the benchmark's tables against a base revision.

    python tools/bytediff.py BASE [--threads N]

Every entry of RUNS is a `dgtime` command line, and every entry of WORKLOADS
a workload of the benchmark.  The base side runs them from a detached git
worktree of BASE, added in a temporary directory and removed on every exit;
the head side runs them from this checkout's `src/`, uncommitted edits
included.  Each side runs all entries in one fresh interpreter, whose BLAS
thread count is set in its environment before numpy loads: one thread for
the base, N (default 1) for the head.  A run goes through
`dgtime.bench.main`; a workload's CSV tables come from `run_tables(dgtime,
name, make_inputs(dgtime, name, 0))` of the side's own
`perfbench/workloads.py`, loaded from its file and only read.  A run or
workload that differs is printed with its first differing line and its
count of differing lines.

The bits of some CSV cells and profiles depend on the BLAS thread count, so
the tables are compared at one thread: then any difference exits 1.  With
N > 1 the script only reports the runs whose bits move and exits 0;
`python tools/bytediff.py HEAD --threads 2` names the runs that depend on
the thread count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUNS = (
    # the five paper tables as Markdown and as CSV, which shows every digit
    "ode --format md",
    "ode --format csv",
    "heat1d --cutoff --format md",
    "heat1d --cutoff --format csv",
    "heat1d --weighted 1.25 --homogeneous --format md",
    "heat1d --weighted 1.25 --homogeneous --format csv",
    "heat1d --weighted 1.25 --format md",
    "heat1d --weighted 1.25 --format csv",
    "heat2d --cutoff --format md",
    "heat2d --cutoff --format csv",
    # the large heat2d table
    "heat2d --r 5 --P 100 --N 8,16 --cutoff --format csv",
    # at P = 100 the fine grid's 199 points take the dense sine path, which
    # is not block-invariant, and the N = 128 row spans two back-transform
    # blocks of 109 intervals
    "heat1d --P 100 --cutoff --format csv",
    # the override tables: heat2d with Gauss moments and 50 samples, heat1d
    # with Radau moments
    "heat2d --P 20 --N 8,16 --moments gauss --samples 50 --format csv",
    "heat1d --P 50 --N 8,16 --moments radau --format csv",
    # the one run that builds a 2D reference without a forcing, whose band
    # stacks are filled node by node like the forced ones
    "heat2d --P 20 --N 8,16 --homogeneous --weighted 1.25 --format csv",
    # error profiles, read in blocks of whole intervals
    "ode --r 4 --N 5 --profile",
    "heat1d --P 20 --N 8 --profile",
    "heat2d --P 10 --N 8 --profile",
    # r = 1 gives the stacked products their smallest shapes, and P = 250
    # puts the fine grid's 499 points on the rfft sine path
    "ode --r 1 --N 4 --profile",
    "heat1d --P 250 --N 4 --r 1 --profile",
    # streams chunks of 36 intervals, so it crosses a chunk boundary
    "heat2d --P 50 --N 64 --profile",
    "ode --r 3 --N 2048 --samples 2 --profile",
    # reads the extrapolated and reconstructed solutions in blocks of 13
    # intervals
    "heat1d --P 100 --N 64 --profile",
    # spans two blocks
    "ode --r 2 --N 1400 --profile",
)

# the benchmark's workloads (perfbench/workloads.py), whose tables take paths
# no CLI run takes: the whole (not streamed) dg_solve, the single-solution and
# nodal-only max_error_sampled, and the graded mesh
WORKLOADS = ("paper-tables", "heat2d-scale", "heat2d-graded")

# runs in the side's interpreter, in its checkout: argv[1] is the JSON list of
# runs, argv[2] that of the workloads; prints the dgtime module it imported,
# each run's output, or its exit message, then each workload's CSV tables
CHILD = """
import contextlib, importlib.util, io, json, shlex, sys
import dgtime
from dgtime.bench import main
outputs = []
for run in json.loads(sys.argv[1]):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            main(shlex.split(run))
    except SystemExit as exc:
        out.write(f"exit: {exc}\\n")
    outputs.append(out.getvalue())
sys.dont_write_bytecode = True  # perfbench/ is only read
spec = importlib.util.spec_from_file_location("workloads", "perfbench/workloads.py")
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
for name in json.loads(sys.argv[2]):
    tables = workloads.run_tables(dgtime, name, workloads.make_inputs(dgtime, name, 0))
    outputs.append("".join(f"# {label}\\n{text}" for label, text in tables.items()))
json.dump({"module": dgtime.__file__, "outputs": outputs}, sys.stdout)
"""
# what compare() prints for each output of a side, in order
LABELS = tuple(f"dgtime {run}" for run in RUNS) + tuple(f"workload {name}" for name in WORKLOADS)


def _start(root: Path, threads: int) -> subprocess.Popen:
    """One interpreter that runs every entry of RUNS and WORKLOADS from root's src/."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    return subprocess.Popen([sys.executable, "-c", CHILD, json.dumps(RUNS), json.dumps(WORKLOADS)],
                            cwd=root, env=env, stdout=subprocess.PIPE, text=True)


def _outputs(child: subprocess.Popen, root: Path) -> list[str]:
    stdout, _ = child.communicate()
    if child.returncode != 0:
        sys.exit(f"the runs from {root} failed with exit code {child.returncode}")
    result = json.loads(stdout)
    if not Path(result["module"]).resolve().is_relative_to((root / "src").resolve()):
        sys.exit(f"the runs from {root} imported {result['module']}")
    return result["outputs"]


def compare(base: list[str], head: list[str]) -> int:
    """Print each run whose outputs differ; return the number of such runs."""
    differ = 0
    for label, a, b in zip(LABELS, base, head):
        pairs = list(zip_longest(a.split("\n"), b.split("\n")))
        lines = [i for i, (x, y) in enumerate(pairs) if x != y]
        if lines:
            differ += 1
            first = lines[0]
            print(f"{label}: {len(lines)} of {len(pairs)} lines differ, "
                  f"the first is line {first + 1}:")
            print(f"  base: {pairs[first][0]}")
            print(f"  head: {pairs[first][1]}")
    return differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", metavar="BASE", help="git revision to compare against")
    parser.add_argument("--threads", type=int, default=1,
                        help="BLAS threads of the head side (default 1); above 1 only report")
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    # SIGTERM ends the script through the finally below, as Ctrl-C does
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    scratch = Path(tempfile.mkdtemp(prefix="bytediff-"))
    worktree, children = scratch / "base", []
    try:
        if subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                           str(worktree), args.base]).returncode != 0:
            sys.exit(f"cannot check out {args.base}")
        children = [(worktree, _start(worktree, 1)), (ROOT, _start(ROOT, args.threads))]
        base, head = (_outputs(child, root) for root, child in children)
    finally:
        for _, child in children:
            child.kill()  # a no-op once it has exited
        if worktree.exists():
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(worktree)], check=False)
        shutil.rmtree(scratch, ignore_errors=True)
    differ = compare(base, head)
    lines = sum(len(text.splitlines()) for text in head)
    print(f"{len(LABELS) - differ} of {len(LABELS)} runs identical ({lines} lines at the head); "
          f"base {args.base} at 1 BLAS thread, head at {args.threads}")
    return 1 if differ and args.threads == 1 else 0


if __name__ == "__main__":
    sys.exit(main())
