"""`tools/tablepeaks.py` reports the peak memory of a benchmark workload's tables.

Each workload of `perfbench/workloads.py` runs in fresh interpreters: one
traced by tracemalloc, one untraced for its maximum resident set size.
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


def test_graded_workload_peaks(capsys):
    # heat2d-graded's tables peaked at 8.33 MiB traced while a whole block of
    # reference values, a step result and a second transform block were held
    # beside the step and the back transform; 7.84 MiB without them
    assert _load().main(["heat2d-graded"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["workload", "traced", "MiB", "max", "RSS", "MB"]
    name, traced_mib, rss_mb = row.split()
    assert name == "heat2d-graded"
    assert 0.0 < float(traced_mib) < 8.1
    assert float(rss_mb) > float(traced_mib)


def test_unknown_workload_is_refused():
    with pytest.raises(SystemExit, match="unknown workload"):
        _load().main(["heat3d"])
