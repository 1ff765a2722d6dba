"""One workload in a fresh interpreter: set up, run the tables, report.

Prints one JSON object: set-up and table wall times, peak resident memory,
the tables as CSV text, package versions and, on request, the per-layer
trace and the contour self-check of every reference the tables built.
Correctness is judged by run.py, not here.

    python3 perfbench/child.py --workload heat2d-graded --seed 3 [--trace] [--selfcheck]
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _capture_references(dgtime, built: list):
    """Remember each reference the tables construct, for the untimed self-check."""
    def capturing(cls):
        def build(*args, **kwargs):
            ref = cls(*args, **kwargs)
            built.append(ref)
            return ref
        return build

    for owner in (dgtime.bench, dgtime):
        for name in ("Heat1dReference", "Heat2dReference"):
            setattr(owner, name, capturing(getattr(owner, name)))


def _selfcheck(references) -> list[float]:
    """Contour refinement check (K -> K+8) over each reference's whole window."""
    import numpy as np

    out = []
    for ref in references:
        ts = np.union1d(np.geomspace(ref.t_min, ref.t_max, 128),
                        np.linspace(ref.t_min, ref.t_max, 128))
        out.append(ref.refinement_check(ts))
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import dgtime
    import workloads

    inputs = workloads.make_inputs(dgtime, args.workload, args.seed)
    setup_s = time.perf_counter() - start

    import numpy
    import scipy

    if not Path(dgtime.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"dgtime imported from {dgtime.__file__}, not from this checkout")
    record = {
        "setup_s": setup_s,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "dgtime": dgtime.__version__},
    }
    if args.setup_only:
        print(json.dumps(record))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(dgtime)
    references: list = []
    if args.selfcheck:
        _capture_references(dgtime, references)

    start = time.perf_counter()
    tables = workloads.run_tables(dgtime, args.workload, inputs)
    record["table_s"] = time.perf_counter() - start
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["tables"] = tables
    if tracer is not None:
        tracer.freeze()
        record["layers"] = tracer.metrics()
    if args.selfcheck:
        record["selfcheck"] = _selfcheck(references)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
