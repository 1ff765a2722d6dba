"""The dgtime benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload paper-tables --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; dgtime is imported from ./src.
Every table run is a fresh interpreter (perfbench/child.py), as a CLI user
would start one.  A run first times set-up alone in a few fresh
interpreters, then starts table runs until the next one would end after
--seconds.  The first table run also checks every contour reference it
built (K -> K+8 refinement, untimed).  Every table is checked by checks.py
(acceptance goldens, or values pinned when the benchmark was added), and
all table runs of one run must print identical tables.

--trace 0 reports the end-to-end metrics (medians over the run):
    setup_s      import dgtime + build the workload's inputs
    table_s      the workload's tables through the public entry points
    peak_rss_mb  peak resident memory of a table run
    pass_frac    correctness checks passed / attempted
--trace 1 alternates untraced and traced table runs and reports the
per-layer metrics of perfbench/tracer.py, medians over the traced runs; the
traced tables must match the untraced ones byte for byte.

BLAS runs single-threaded (OPENBLAS/OMP/MKL_NUM_THREADS=1) for steadiness.
The line before the result is a JSON record of the run environment; the
last line is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 5
DEADLINE_S = 170.0  # the whole run, children included
BLAS_THREADS = "1"


class Runner:
    """Starts child interpreters for one workload and keeps what they report."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = BLAS_THREADS
        self.env["PYTHONHASHSEED"] = "0"
        # set-up should read cached bytecode, as an installed package does
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def child(self, *flags: str) -> dict:
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), *flags]
        left = DEADLINE_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise RuntimeError("run deadline passed")
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=left)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(flags) or 'table run'} failed:\n{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def table_runs(runner: Runner, seconds: float, traced: bool) -> tuple[list, list]:
    """Untraced (and, when traced, traced) table runs until the time is spent."""
    plain, trace = [], []
    loop_start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        first = not plain
        plain.append(runner.child("--selfcheck") if first else runner.child())
        if traced:
            trace.append(runner.child("--trace"))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - loop_start
        if elapsed + statistics.median(durations) > seconds:
            return plain, trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dgtime" / "__init__.py").is_file():
        print(f"no dgtime sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    import checks  # imports the acceptance goldens from tests/, and with them dgtime

    runner = Runner(args.workload, args.seed)
    runner.child("--setup-only")  # warm-up: byte-compiles the sources, fills the page cache
    probes = [runner.child("--setup-only") for _ in range(SETUP_PROBES)]
    plain, traced = table_runs(runner, args.seconds, bool(args.trace))

    gate = checks.Gate()
    first = plain[0]["tables"]
    checks.check_tables(args.workload, first, gate)
    for i, rec in enumerate(plain[1:] + traced, start=1):
        kind = "traced" if rec.get("layers") else "untraced"
        gate.check(rec["tables"] == first, f"{kind} table run {i} printed different tables")
    gate.check(bool(plain[0]["selfcheck"]), "the tables built no contour reference")
    for i, value in enumerate(plain[0]["selfcheck"]):
        gate.check(value <= checks.SELFCHECK_MAX,
                   f"reference {i}: refinement change {value:.2e} > {checks.SELFCHECK_MAX:g}")
    for message in gate.failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)

    median = lambda key, recs: statistics.median(r[key] for r in recs)
    if args.trace:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["reference.selfcheck_max"] = max(plain[0]["selfcheck"])
        values["trace.table_s"] = median("table_s", traced)
        # table runs alternate untraced and traced, so each traced run is
        # compared with the untraced run just before it: slow drift of the
        # machine cancels in the pair
        values["trace.overhead_s"] = statistics.median(
            t["table_s"] - p["table_s"] for p, t in zip(plain, traced))
        values["trace.unattributed_s"] = statistics.median(
            r["table_s"] - r["layers"]["trace.self_sum_s"] - r["layers"]["trace.hook_s"]
            for r in traced)
    else:
        values = {
            "setup_s": median("setup_s", probes + plain),
            "table_s": median("table_s", plain),
            "peak_rss_mb": median("peak_rss_mb", plain),
            "pass_frac": 1.0 - len(gate.failures) / gate.attempted,
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": git_revision(), "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS, **plain[0]["versions"],
        "table_runs": len(plain), "traced_runs": len(traced),
        "setup_samples": len(probes) + len(plain),
        "table_s_all": [r["table_s"] for r in plain],
        "traced_table_s_all": [r["table_s"] for r in traced],
    }
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": not gate.failures, "attempted": gate.attempted,
                      "failed": len(gate.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
