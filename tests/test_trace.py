"""Smoke test of the benchmark's per-layer tracer against the current package.

perfbench/tracer.py wraps dgtime functions at the names the tables look
them up by, and fails when a name is gone or a layer recorded no call.  It
is loaded by path, unchanged, and its wrappers are removed afterwards.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

import dgtime
import dgtime.bench
import dgtime.dg
import dgtime.reference

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture
def tracer_module(monkeypatch):
    # every attribute the tracer may replace, inherited methods included, is
    # restored on teardown
    owners = (dgtime, dgtime.bench, dgtime.dg, dgtime.reference,
              dgtime.reference.Heat1dReference, dgtime.reference.Heat2dReference)
    for owner in owners:
        for name in dir(owner):
            if not name.startswith("__"):
                monkeypatch.setattr(owner, name, inspect.getattr_static(owner, name))
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_tables_cover_every_layer(tracer_module):
    tracer = tracer_module.Tracer(dgtime)
    dgtime.run_experiment("ode", n_list=(4, 8))
    dgtime.run_experiment("heat1d", n_list=(4, 8), p=50, cutoff=True)
    dgtime.run_experiment("heat2d", n_list=(4, 8), p=8, cutoff=True)
    tracer.freeze()
    metrics = tracer.metrics()  # raises when a layer recorded no call
    for name in ("reference.invert_times", "bench.sample_points", "reference.transforms",
                 "reference.bands", "system.solves", "dg.steps"):
        assert metrics[name] > 0, name
    assert metrics["bench.measure_s"] > 0.0
