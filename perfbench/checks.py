"""Correctness gates applied to every table a benchmark run produces.

paper-tables is held to acceptance criteria 1-4.  The golden tables and the
row comparisons (`assert_errors_within`, `assert_rates_within`) are imported
from tests/test_acceptance.py, so the gate moves with the suite; only the
tolerances and the fixed-rate checks, which the suite writes inside its test
bodies, are repeated here.  The suite's wall-time bounds are not correctness
checks and are left out.  heat2d-scale and heat2d-graded are held to values
pinned at the commit that introduced this benchmark.  Each comparison of one
table row (or one cell, for the fixed-rate checks) counts as one check.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

from pytest import approx

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_acceptance as acceptance  # noqa: E402

# heat2d-scale is deterministic: N -> (err_U, err_Ustar, err_nodal) and
# N -> (rate_U, rate_Ustar, rate_nodal), full digits.  Errors must agree to a
# relative 1e-3, which leaves room for roundoff-level changes in the solver or
# the reference and no more; a cell at the roundoff floor passes on
# pytest.approx's absolute tolerance of 1e-12.
PINNED_SCALE = {
    8: (5.046824693135288e-05, 7.690128564529873e-05, 2.007874703770197e-06),
    16: (9.435275676355479e-08, 2.6020942922740345e-08, 8.704766837703644e-10),
}
PINNED_SCALE_RATE = {16: (9.063095588044714, 11.529118760161996, 11.17157596903362)}
SCALE_REL = 1e-3
SCALE_RATE_ABS = 1e-2
# heat2d-graded, pinned on the unjittered mesh; the seeded node jitter moves
# errors by at most 0.4% and rates by at most 0.006 (seeds 0-5)
PINNED_GRADED = {
    32: (9.74650220725987e-06, 6.645598601828184e-08, 4.180039825272773e-09),
    64: (1.2259637462252064e-06, 4.136818695353572e-09, 1.360785546758317e-10),
}
PINNED_GRADED_RATE = {64: (2.990968245298457, 4.005805521035803, 4.941005059543923)}
GRADED_REL = 0.03
GRADED_RATE_ABS = 0.05

SELFCHECK_MAX = 1e-11


def parse_csv(text: str) -> SimpleNamespace:
    """A ConvergenceTable CSV as an object with the `.rows` the acceptance helpers read."""
    lines = text.strip().splitlines()
    # CSV columns N,P,err_U,rate_U,... are TableRow fields N,P,err_u,rate_u,...
    fields = [h if h in ("N", "P") else h.lower() for h in lines[0].split(",")]
    rows = []
    for line in lines[1:]:
        row = {f: (float(c) if c else None) for f, c in zip(fields, line.split(","))}
        row["N"] = int(row["N"])
        rows.append(SimpleNamespace(**row))
    return SimpleNamespace(rows=rows)


class Gate:
    """Counts checks and keeps a message for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str):
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def expect(self, label: str, test, *args, **kwargs):
        """One check: test(*args, **kwargs) must neither raise nor return False."""
        try:
            ok, message = test(*args, **kwargs) is not False, label
        except Exception as exc:  # AssertionError, or a missing row or rate
            ok, message = False, f"{label}: {exc!r}"
        self.check(ok, message)

    def errors(self, label, table, golden, rel, only=lambda n: True):
        for n in filter(only, golden):
            self.expect(f"{label} errors N={n}", acceptance.assert_errors_within,
                        table, {n: golden[n]}, rel=rel)

    def rates(self, label, table, golden, tol, only=lambda n: True):
        for n in filter(only, golden):
            self.expect(f"{label} rates N={n}", acceptance.assert_rates_within,
                        table, {n: golden[n]}, tol=tol)


def check_tables(workload: str, tables: dict[str, str], gate: Gate):
    expected = {"paper-tables": ("ode", "heat1d-cutoff", "heat1d-weighted-homogeneous",
                                 "heat1d-weighted", "heat2d-cutoff"),
                "heat2d-scale": ("heat2d-r5-P100",),
                "heat2d-graded": ("heat2d-graded",)}[workload]
    gate.check(tuple(tables) == expected, f"{workload}: tables {tuple(tables)}")
    if tuple(tables) != expected:
        return
    parsed = {label: parse_csv(text) for label, text in tables.items()}
    if workload == "paper-tables":
        _check_paper(parsed, gate)
    elif workload == "heat2d-scale":
        t = parsed["heat2d-r5-P100"]
        gate.errors("heat2d-r5-P100", t, PINNED_SCALE, rel=SCALE_REL)
        gate.rates("heat2d-r5-P100", t, PINNED_SCALE_RATE, tol=SCALE_RATE_ABS)
    else:
        t = parsed["heat2d-graded"]
        gate.errors("heat2d-graded", t, PINNED_GRADED, rel=GRADED_REL)
        gate.rates("heat2d-graded", t, PINNED_GRADED_RATE, tol=GRADED_RATE_ABS)


def _check_paper(tables, gate: Gate):
    """Criteria 1-4 of tests/test_acceptance.py, at its tolerances."""
    a = acceptance
    # criterion 1: ODE table, r = 4 (its checks are written out in the test body)
    rows = a.rows_by_n(tables["ode"])
    for n, (eu, es, en) in a.GOLDEN_ODE_ERR.items():
        gate.expect(f"ode err_U N={n}", lambda: rows[n].err_u == approx(eu, rel=0.05))
        gate.expect(f"ode err_Ustar N={n}", lambda: rows[n].err_ustar == approx(es, rel=0.05))
        if n <= 32:
            gate.expect(f"ode err_nodal N={n}",
                        lambda: rows[n].err_nodal == approx(en, rel=0.10))
    for n in (32, 64, 128):
        gate.expect(f"ode rate_U N={n}", lambda: abs(rows[n].rate_u - 4.0) <= 0.1)
        gate.expect(f"ode rate_Ustar N={n}", lambda: abs(rows[n].rate_ustar - 5.0) <= 0.1)
    for n in (8, 16):
        gate.expect(f"ode rate_nodal N={n}", lambda: abs(rows[n].rate_nodal - 7.0) <= 0.3)
    # criterion 2: 1D heat cutoff table
    t = tables["heat1d-cutoff"]
    gate.errors("heat1d-cutoff", t, a.GOLDEN_H1_CUTOFF_ERR, rel=0.15)
    gate.rates("heat1d-cutoff", t, a.GOLDEN_H1_CUTOFF_RATE, tol=0.25, only=lambda n: n >= 32)
    # criterion 3: 1D heat weighted tables
    t = tables["heat1d-weighted-homogeneous"]
    gate.errors("heat1d-weighted-homogeneous", t, a.GOLDEN_H1_W_TOP_ERR, rel=0.20)
    gate.rates("heat1d-weighted-homogeneous", t,
               {row.N: (3.0, 4.0, 5.0) for row in t.rows if row.N >= 32}, tol=0.1)
    t = tables["heat1d-weighted"]
    gate.errors("heat1d-weighted", t, a.GOLDEN_H1_W_BOT_ERR, rel=0.20)
    rows = a.rows_by_n(t)
    for n, rate in a.GOLDEN_H1_W_BOT_NODAL_RATE.items():
        gate.expect(f"heat1d-weighted rate_nodal N={n}",
                    lambda: abs(rows[n].rate_nodal - rate) <= 0.3)
    # criterion 4: 2D heat cutoff table
    t = tables["heat2d-cutoff"]
    gate.errors("heat2d-cutoff", t, a.GOLDEN_H2_CUTOFF_ERR, rel=0.15)
    gate.rates("heat2d-cutoff", t, a.GOLDEN_H2_CUTOFF_RATE, tol=0.25, only=lambda n: n >= 32)
