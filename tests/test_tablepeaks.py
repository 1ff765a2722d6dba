"""`tools/tablepeaks.py` reports the peak memory of a benchmark workload's tables.

Each workload of `perfbench/workloads.py` runs in fresh interpreters: one
traced by tracemalloc, one untraced for its maximum resident set size and
minor page faults.  Each workload's traced peak is gated below the next
step up: reverting any one of the memory paths of the stepper, the stream
window or the measurement raises one of the three peaks past its bound.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "tablepeaks.py"


def _load():
    spec = importlib.util.spec_from_file_location("tablepeaks", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_peak(workload, capsys) -> float:
    """The traced peak (MiB) that `main` prints for workload, with its row checked."""
    assert _load().main([workload]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["workload", "traced", "MiB", "max", "RSS", "MB", "minor", "faults"]
    name, traced_mib, rss_mb, faults = row.split()
    assert name == workload
    assert 0.0 < float(traced_mib) < float(rss_mb)
    assert int(faults) > 0
    return float(traced_mib)


def test_graded_workload_peaks(capsys):
    # heat2d-graded's tables peaked at 8.33 MiB traced while a whole block of
    # reference values, a step result and a second transform block were held
    # beside the step and the back transform; 7.84 MiB without them
    assert _traced_peak("heat2d-graded", capsys) < 8.1


def test_paper_tables_workload_peaks(capsys):
    # 6.74 MiB traced; the smallest rise any one memory path brings back when
    # it is reverted is 0.48 MiB (the stream window's del of a dropped chunk);
    # the copy of a straddled chunk, the rfft row groups and the measurement
    # block's release each bring it to 8.2-9.0 MiB
    assert _traced_peak("paper-tables", capsys) < 7.0


def test_scale_workload_peaks(capsys):
    # 11.78 MiB traced; each memory path the stepper keeps (the in-place step
    # and residual, the released chunk, the measurement block's release) holds
    # at least one (r, M) = (5, 9801) real array, 0.37 MiB, when reverted
    assert _traced_peak("heat2d-scale", capsys) < 12.0


def test_unknown_workload_is_refused():
    with pytest.raises(SystemExit, match="unknown workload"):
        _load().main(["heat3d"])
