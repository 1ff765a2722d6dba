"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/spread.py [--traced] [--out perfbench/trajectory/BENCH_<rev>.json]

For each workload of BENCHMARK.json and each of the seeds 0-9 it runs
`run.py --trace 0` with the run length of BENCHMARK.json and reports, per
end-to-end metric, the median, the quartiles (statistics.quantiles, n=4)
and their distance as a share of the median next to the metric's bound,
flagged when it exceeds a third of the bound.  --traced adds one
`--trace 1` run per workload (first seed).  --out writes everything, runs included, as JSON:
the points of the benchmark trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = tuple(range(10))


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    env_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return {**json.loads(env_line), "result": json.loads(result_line)}


def summarise(values: list[float], bound: float | None) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else 0.0
    out = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(bench_run(workload, seed, spec["run_seconds"], 0))
            res = runs[-1]["result"]
            shown = ", ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"{workload} seed {seed}: correct={res['correct']} {shown}", flush=True)
        metrics = {name: summarise([r["result"]["metrics"][name]["value"] for r in runs],
                                   bounds.get(name))
                   for name in runs[0]["result"]["metrics"]}
        for name, m in metrics.items():
            flag = ""
            if m.get("bound") and m["spread"] > m["bound"] / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"  {name}: median {m['median']:.5g}  q1 {m['q1']:.5g}  q3 {m['q3']:.5g}"
                  f"  spread {m['spread']:.4f}  bound {m.get('bound')}{flag}", flush=True)
        entry = {"metrics": metrics, "runs": runs}
        if args.traced:
            entry["traced"] = bench_run(workload, SEEDS[0], spec["run_seconds"], 1)
            layers = entry["traced"]["result"]["metrics"]
            print("  traced: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in layers.items()),
                  flush=True)
        report["workloads"][workload] = entry

    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
