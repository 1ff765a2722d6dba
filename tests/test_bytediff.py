"""The byte diff's run list (`tools/bytediff.py`) reaches every part of the CLI.

A CLI option, choice or experiment that no run uses would change the
tables without the byte diff seeing it.  Every run must also be a valid
request: it builds its TableSpec without a solve, and the built spec
builds again unchanged.  The byte diff also runs every benchmark workload.
"""

import argparse
import dataclasses
import importlib.util
import shlex
from pathlib import Path

import pytest

import dgtime.bench as bench

ROOT = Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BYTEDIFF = _load("bytediff", ROOT / "tools" / "bytediff.py")
RUNS = BYTEDIFF.RUNS


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in bench._parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_runs_use_every_option_of_every_subcommand():
    words = {word for run in RUNS for word in shlex.split(run)}
    for name, parser in _subcommands().items():
        for action in parser._actions:
            for option in set(action.option_strings) - {"-h", "--help", "--out"}:
                assert option in words, f"no byte-diff run uses {name} {option}"


def test_runs_take_every_choice_of_every_option():
    parsed = [bench._parser().parse_args(shlex.split(run)) for run in RUNS]
    for parser in _subcommands().values():
        for action in parser._actions:
            if action.choices:
                taken = {getattr(args, action.dest) for args in parsed}
                missing = set(action.choices) - taken
                assert not missing, f"no byte-diff run takes {action.option_strings[0]} {missing}"


def test_runs_hold_a_table_and_a_profile_of_every_experiment():
    firsts = [(shlex.split(run)[0], "--profile" in shlex.split(run)) for run in RUNS]
    for name in _subcommands():
        assert (name, False) in firsts and (name, True) in firsts, name


def test_runs_cover_every_benchmark_workload():
    workloads = _load("workloads", ROOT / "perfbench" / "workloads.py")
    assert BYTEDIFF.WORKLOADS == workloads.WORKLOADS


class _Built(Exception):
    pass


@pytest.mark.parametrize("run", RUNS)
def test_every_run_builds_a_table_spec_without_a_solve(monkeypatch, run):
    specs, solves = [], []

    def study(spec):
        specs.append(spec)
        raise _Built

    monkeypatch.setattr(bench, "_study", study)
    monkeypatch.setattr(bench, "dg_solve", lambda *args, **kwargs: solves.append(args))
    with pytest.raises(_Built):
        bench.main(shlex.split(run))
    assert len(specs) == 1 and isinstance(specs[0], bench.TableSpec)
    assert dataclasses.replace(specs[0]) == specs[0]  # a built spec builds again
    assert solves == []
