"""Peak memory of the benchmark workloads' table runs.

    python tools/tablepeaks.py [WORKLOAD ...]

For each workload of `perfbench/workloads.py` (all of them by default; the
module is only imported) it builds the inputs for seed 0 and runs
`run_tables` twice, each time in a fresh interpreter with dgtime imported
from `src/` and BLAS pinned to one thread, as the benchmark runs it:

- traced: the tracemalloc peak of the Python and numpy allocations made
  while the tables run, in MiB;
- untraced: the process's maximum resident set size (`ru_maxrss`) after
  the tables, in MB of 1024 KiB, as the benchmark reads its `peak_rss_mb`
  (whose child process also imports scipy), and the minor page faults
  (`ru_minflt`) taken while the tables run, which count the allocator's
  churn: memory mapped and returned again for each large temporary.

It prints one line per workload: its name, the traced peak, the max RSS
and the minor faults.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    """perfbench/workloads.py, loaded from its file without touching sys.path."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure(workload: str, traced: bool) -> dict:
    """Run the workload's tables once in this interpreter; its peak memory and
    the minor page faults of the tables alone."""
    import resource
    import tracemalloc

    import dgtime

    workloads = _workloads()
    inputs = workloads.make_inputs(dgtime, workload, 0)
    if traced:
        tracemalloc.start()
    before = resource.getrusage(resource.RUSAGE_SELF)
    workloads.run_tables(dgtime, workload, inputs)
    after = resource.getrusage(resource.RUSAGE_SELF)
    record = {"max_rss_mb": after.ru_maxrss / 1024.0,
              "minor_faults": after.ru_minflt - before.ru_minflt}
    if traced:
        record["traced_peak_mib"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
        tracemalloc.stop()
    return record


def _child(workload: str, traced: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # compiling stale modules would add to the RSS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    code = (f"import json, sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); import tablepeaks; "
            f"print(json.dumps(tablepeaks.measure({workload!r}, {traced})))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    workloads = _workloads()
    names = (sys.argv[1:] if argv is None else argv) or list(workloads.WORKLOADS)
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        raise SystemExit(f"unknown workload(s) {', '.join(unknown)}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    print(f"{'workload':<16} {'traced MiB':>10} {'max RSS MB':>10} {'minor faults':>12}")
    for name in names:
        peak = _child(name, True)["traced_peak_mib"]
        untraced = _child(name, False)
        print(f"{name:<16} {peak:>10.2f} {untraced['max_rss_mb']:>10.2f} "
              f"{untraced['minor_faults']:>12d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
