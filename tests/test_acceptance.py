"""Acceptance suite.

Each criterion prints one PASS/FAIL line (run with -s to see them on
success).  Criteria 2-4 reproduce the golden convergence tables of the
standard configurations at fixed tolerances; criterion 6 is a reference
self-accuracy gate that must hold before the table comparisons mean
anything, so criteria 2-4 depend on it through a fixture.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import dgtime as dt
from dgtime.basis import g_matrix, h_diag, legendre_table, make_workspace, radau_rule
from dgtime.bench import HEAT_N_LIST, _reference_floor
from dgtime.dg import Forcing, LinearProblem, dg_solve
from dgtime.mesh import uniform_mesh
from dgtime.models import Heat1dConfig, Heat2dConfig, heat1d_problem, heat2d_problem, ode_problem
from dgtime.postprocess import jump_indicator, reconstruct
from dgtime.reference import (
    Heat1dReference,
    Heat2dReference,
    hyperbolic_contour,
    ode_exact,
)
from dgtime.system import scalar_operator, tridiagonal_operator

from dg_helpers import (error_profile_deviation, interval_values, invert_scalar, left_limit,
                        pi_tilde_project, right_limit)

# golden data rows: N -> (err_U, err_Ustar, err_nodal) and rate rows N -> (rate_U, rate_Ustar, rate_nodal)
GOLDEN_ODE_ERR = {
    4: (1.75e-03, 6.15e-05, 5.26e-09),
    8: (1.36e-04, 2.26e-06, 4.08e-11),
    16: (8.85e-06, 7.19e-08, 3.27e-13),
    32: (5.55e-07, 2.26e-09, 2.66e-15),
    64: (3.48e-08, 7.05e-11, 7.77e-16),
    128: (2.17e-09, 2.20e-12, 1.55e-15),
}
GOLDEN_H1_CUTOFF_ERR = {
    8: (8.46e-05, 7.51e-05, 5.17e-06),
    16: (1.07e-05, 5.37e-07, 1.15e-07),
    32: (1.35e-06, 2.30e-08, 3.99e-09),
    64: (1.69e-07, 1.21e-09, 1.47e-10),
    128: (2.12e-08, 6.98e-11, 5.80e-12),
}
GOLDEN_H1_CUTOFF_RATE = {
    16: (2.978, 7.129, 5.490),
    32: (2.989, 4.544, 4.847),
    64: (2.995, 4.244, 4.762),
    128: (2.997, 4.121, 4.664),
}
GOLDEN_H1_W_TOP_ERR = {
    8: (8.52e-05, 7.08e-06, 1.77e-06),
    16: (1.15e-05, 4.42e-07, 5.53e-08),
    32: (1.49e-06, 2.76e-08, 1.73e-09),
    64: (1.90e-07, 1.73e-09, 5.40e-11),
    128: (2.39e-08, 1.08e-10, 1.69e-12),
}
GOLDEN_H1_W_BOT_ERR = {
    8: (8.46e-05, 1.66e-06, 4.15e-07),
    16: (1.07e-05, 1.03e-07, 1.70e-08),
    32: (1.35e-06, 6.46e-09, 7.89e-10),
    64: (1.69e-07, 4.04e-10, 3.84e-11),
    128: (2.12e-08, 2.52e-11, 1.93e-12),
}
GOLDEN_H1_W_BOT_NODAL_RATE = {16: 4.606, 32: 4.433, 64: 4.362, 128: 4.311}
GOLDEN_H2_CUTOFF_ERR = {
    8: (5.32e-04, 4.70e-04, 2.60e-05),
    16: (4.60e-05, 1.48e-06, 4.40e-07),
    32: (5.15e-06, 6.80e-08, 1.43e-08),
    64: (6.10e-07, 4.16e-09, 4.65e-10),
    128: (7.42e-08, 2.58e-10, 1.49e-11),
}
GOLDEN_H2_CUTOFF_RATE = {
    16: (3.533, 8.316, 5.888),
    32: (3.160, 4.440, 4.940),
    64: (3.078, 4.029, 4.944),
    128: (3.038, 4.010, 4.967),
}


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({label}): PASS")


def rows_by_n(table):
    return {row.N: row for row in table.rows}


def assert_errors_within(table, golden, rel, n_filter=lambda n: True):
    rows = rows_by_n(table)
    for n, (eu, es, en) in golden.items():
        if not n_filter(n):
            continue
        row = rows[n]
        assert row.err_u == pytest.approx(eu, rel=rel), f"err_U at N={n}"
        assert row.err_ustar == pytest.approx(es, rel=rel), f"err_Ustar at N={n}"
        assert row.err_nodal == pytest.approx(en, rel=rel), f"err_nodal at N={n}"


def assert_rates_within(table, golden, tol, n_filter=lambda n: True):
    rows = rows_by_n(table)
    for n, (ru, rs, rn) in golden.items():
        if not n_filter(n):
            continue
        row = rows[n]
        assert abs(row.rate_u - ru) <= tol, f"rate_U at N={n}"
        assert abs(row.rate_ustar - rs) <= tol, f"rate_Ustar at N={n}"
        assert abs(row.rate_nodal - rn) <= tol, f"rate_nodal at N={n}"


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_ode_table():
    with criterion(1, "ODE table, r=4"):
        start = time.perf_counter()
        table = dt.run_experiment("ode")
        elapsed = time.perf_counter() - start
        rows = rows_by_n(table)
        for n, (eu, es, en) in GOLDEN_ODE_ERR.items():
            assert rows[n].err_u == pytest.approx(eu, rel=0.05), f"err_U at N={n}"
            assert rows[n].err_ustar == pytest.approx(es, rel=0.05), f"err_Ustar at N={n}"
            if n <= 32:
                assert rows[n].err_nodal == pytest.approx(en, rel=0.10), f"err_nodal at N={n}"
        for n in (32, 64, 128):
            assert abs(rows[n].rate_u - 4.0) <= 0.1
            assert abs(rows[n].rate_ustar - 5.0) <= 0.1
        for n in (8, 16):
            assert abs(rows[n].rate_nodal - 7.0) <= 0.3
        assert elapsed < 2.0, f"ODE table took {elapsed:.2f}s"


# ------------------------------------------------------- criterion 6 and gate

def _experiment_sample_times(n_list, T, samples, cutoff):
    """All times at which the experiments evaluate their reference."""
    times = set()
    taus = np.linspace(-1.0, 1.0, samples)
    for n in n_list:
        mesh = uniform_mesh(T, n)
        for m in range(1, n + 1):
            if cutoff and mesh.nodes[m] < T / 4 - 1e-12:
                continue
            times.update(float(t) for t in mesh.to_physical(m, taus))
            times.add(float(mesh.nodes[m]))
    return np.array(sorted(t for t in times if t > 0.0))


@pytest.fixture(scope="module")
def reference_gate():
    checks = {}

    cutoff_times = _experiment_sample_times(HEAT_N_LIST, 2.0, 50, cutoff=True)
    full_times = _experiment_sample_times(HEAT_N_LIST, 2.0, 50, cutoff=False)
    t_lo_cut = _reference_floor(2.0, HEAT_N_LIST, True, 50)
    t_lo_full = _reference_floor(2.0, HEAT_N_LIST, False, 50)

    cfg = Heat1dConfig()
    forcing = heat1d_problem(cfg).forcing
    ref = Heat1dReference(cfg, forcing, t_lo_cut, 2.0)
    checks["heat1d cutoff"] = ref.refinement_check(cutoff_times)
    ref = Heat1dReference(cfg, forcing, t_lo_full, 2.0)
    checks["heat1d weighted (mixed)"] = ref.refinement_check(full_times)
    ref = Heat1dReference(cfg, None, t_lo_full, 2.0)
    checks["heat1d weighted (homogeneous)"] = ref.refinement_check(full_times)

    times_2d = _experiment_sample_times(HEAT_N_LIST, 2.0, 4, cutoff=True)
    ref2d = Heat2dReference(heat2d_problem(Heat2dConfig()), t_lo_cut, 2.0)
    checks["heat2d cutoff"] = ref2d.refinement_check(times_2d)
    return checks


def test_criterion_6_reference_self_accuracy(reference_gate):
    with criterion(6, "reference self-accuracy under K -> K+8"):
        for name, value in reference_gate.items():
            assert value <= 1e-11, f"{name}: refinement change {value:.2e}"


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_heat1d_cutoff_table(reference_gate):
    assert max(reference_gate.values()) <= 1e-11  # gate before evaluating
    with criterion(2, "1D heat cutoff table, r=3, P=500/1000"):
        start = time.perf_counter()
        table = dt.run_experiment("heat1d", cutoff=True)
        elapsed = time.perf_counter() - start
        assert_errors_within(table, GOLDEN_H1_CUTOFF_ERR, rel=0.15)
        assert_rates_within(table, GOLDEN_H1_CUTOFF_RATE, tol=0.25, n_filter=lambda n: n >= 32)
        assert elapsed < 300.0, f"heat1d table took {elapsed:.1f}s"


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_heat1d_weighted_tables(reference_gate):
    assert max(reference_gate.values()) <= 1e-11
    with criterion(3, "1D heat weighted tables, alpha deficit 5/4"):
        top = dt.run_experiment("heat1d", weighted=1.25, homogeneous=True)
        assert_errors_within(top, GOLDEN_H1_W_TOP_ERR, rel=0.20)
        for row in top.rows:
            if row.N >= 32:
                assert abs(row.rate_u - 3.0) <= 0.1
                assert abs(row.rate_ustar - 4.0) <= 0.1
                assert abs(row.rate_nodal - 5.0) <= 0.1

        bottom = dt.run_experiment("heat1d", weighted=1.25)
        assert_errors_within(bottom, GOLDEN_H1_W_BOT_ERR, rel=0.20)
        rows = rows_by_n(bottom)
        for n, rate in GOLDEN_H1_W_BOT_NODAL_RATE.items():
            assert abs(rows[n].rate_nodal - rate) <= 0.3, f"nodal rate at N={n}"


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_heat2d_cutoff_table(reference_gate):
    assert max(reference_gate.values()) <= 1e-11
    with criterion(4, "2D heat cutoff table, r=3, 50x50"):
        start = time.perf_counter()
        table = dt.run_experiment("heat2d", cutoff=True)
        elapsed = time.perf_counter() - start
        assert_errors_within(table, GOLDEN_H2_CUTOFF_ERR, rel=0.15)
        assert_rates_within(table, GOLDEN_H2_CUTOFF_RATE, tol=0.25, n_filter=lambda n: n >= 32)
        assert elapsed < 600.0, f"heat2d table took {elapsed:.1f}s"


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_property_suite():
    with criterion(5, "property suite"):
        start = time.perf_counter()

        # basis orthogonality on a random interval
        r = 4
        nodes, weights = np.polynomial.legendre.leggauss(r + 2)
        table = legendre_table(r - 1, nodes)
        a, b = 0.35, 1.05
        k = b - a
        for i in range(r):
            for j in range(r):
                val = 0.5 * k * (weights @ (table[:, i] * table[:, j]))
                expected = k / (2 * j + 1) if i == j else 0.0
                assert abs(val - expected) <= 1e-12 * k

        # G and H closed forms
        i_idx, j_idx = np.indices((4, 4))
        expected_g = np.where(i_idx >= j_idx, (-1.0) ** (i_idx + j_idx), 1.0)
        assert np.array_equal(g_matrix(4), expected_g)
        np.testing.assert_allclose(h_diag(4), [1, 1 / 3, 1 / 5, 1 / 7], rtol=1e-15)

        # Radau residuals
        for rr in range(1, 13):
            roots = radau_rule(rr)[0]
            table = legendre_table(rr, roots)
            resid = np.abs(table[:, rr] - table[:, rr - 1])
            assert np.max(resid) <= 1e-12 and roots[-1] == 1.0

        # degree-(r-1) exactness of dg_solve
        rng = np.random.default_rng(1)
        coef = rng.standard_normal(3)
        dcoef = np.polynomial.polynomial.polyder(coef)
        poly = lambda t: np.polynomial.polynomial.polyval(t, coef)
        problem = LinearProblem(
            A=scalar_operator(0.0),
            u0=np.atleast_1d(poly(0.0)), T=1.0,
            forcing=Forcing(lambda t: np.polynomial.polynomial.polyval(t, dcoef), np.ones(1)),
        )
        mesh = uniform_mesh(1.0, 4)
        sol = dg_solve(problem, mesh, 3)
        taus = np.linspace(-1, 1, 50)
        for n in range(1, 5):
            ts = mesh.to_physical(n, taus)
            np.testing.assert_allclose(interval_values(sol, n, taus)[:, 0], poly(ts),
                                       rtol=1e-11, atol=1e-12)

        # r=1 equivalence with the backward-Euler-style recurrence
        dim = 6
        off = -np.full(dim - 1, 0.6)
        diag = np.full(dim, 2.5)
        A = tridiagonal_operator(off, diag, off)
        forcing = lambda t: np.full(dim, np.cos(t))
        u0 = np.linspace(0.1, 1.0, dim)
        problem = LinearProblem(A=A, u0=u0, T=1.0, forcing=Forcing(np.cos, np.ones(dim)))
        mesh = uniform_mesh(1.0, 5)
        sol = dg_solve(problem, mesh, 1)
        ws = make_workspace(1)  # the rule the r=1 stepper integrates the forcing with
        g_nodes, g_weights = ws.quad_nodes, ws.quad_weights
        dense = np.eye(dim) + 0.2 * A.matrix.toarray()
        u = u0.copy()
        for n in range(1, 6):
            tq = mesh.to_physical(n, g_nodes)
            integral = 0.1 * sum(w * forcing(t) for w, t in zip(g_weights, tq))
            u = np.linalg.solve(dense, u + integral)
            np.testing.assert_allclose(left_limit(sol, n), u, rtol=1e-12, atol=1e-13)

        # reconstruction continuity and the jump-correction identity
        ode = ode_problem()
        sol = dg_solve(ode, uniform_mesh(2.0, 8), 3)
        recon = reconstruct(sol)
        table = legendre_table(3, taus)
        profile = table[:, 3] - table[:, 2]
        for n in range(1, 8):
            np.testing.assert_allclose(left_limit(recon, n), right_limit(recon, n), rtol=1e-11)
        for n in range(1, 9):
            diff = interval_values(sol, n, taus) - interval_values(recon, n, taus)
            expected = 0.5 * (-1.0) ** 3 * sol.jumps(slice(n - 1, n))[0, 0] * profile
            np.testing.assert_allclose(diff[:, 0], expected, rtol=1e-11, atol=1e-14)

        # projector: right-node interpolation and polynomial reproduction
        v = lambda t: np.sin(1.3 * t) + t * t
        mesh = uniform_mesh(2.0, 4)
        proj = pi_tilde_project(v, mesh, 3)
        for n in range(1, 5):
            assert left_limit(proj, n)[0] == pytest.approx(v(mesh.nodes[n]), rel=1e-12)
        coef = rng.standard_normal(3)
        pv = lambda t: np.polynomial.polynomial.polyval(t, coef)
        proj = pi_tilde_project(pv, mesh, 3)
        for n in range(1, 5):
            ts = mesh.to_physical(n, taus)
            np.testing.assert_allclose(interval_values(proj, n, taus)[:, 0], pv(ts),
                                       rtol=1e-12, atol=1e-12)

        # jump indicator vs true interval error, smooth ODE at N=64
        sol = dg_solve(ode, uniform_mesh(2.0, 64), 2)
        for n in range(1, 65):
            ts = sol.mesh.to_physical(n, taus)
            true_err = np.max(np.abs(interval_values(sol, n, taus)[:, 0] - ode_exact(ts)))
            assert abs(jump_indicator(sol, n) - true_err) <= 0.15 * true_err

        # superconvergence at the Radau points, observed rate r+1
        r = 3
        radau = radau_rule(r)[0]
        errors = {}
        for N in (16, 32, 64):
            s = dg_solve(ode, uniform_mesh(2.0, N), r)
            worst = 0.0
            for n in range(1, N + 1):
                ts = s.mesh.to_physical(n, radau)
                vals = interval_values(s, n, radau)[:, 0]
                worst = max(worst, np.max(np.abs(vals - ode_exact(ts))))
            errors[N] = worst
        for pair in ((16, 32), (32, 64)):
            rate = np.log2(errors[pair[0]] / errors[pair[1]])
            assert r + 0.7 <= rate <= r + 1.3

        # error-profile dominance at N=32, r=4
        sol = dg_solve(ode, uniform_mesh(2.0, 32), 4)
        for n in range(1, 33):
            _, dev = error_profile_deviation(sol, ode_exact, n)
            ts = sol.mesh.to_physical(n, taus)
            interval_err = np.max(np.abs(interval_values(sol, n, taus)[:, 0] - ode_exact(ts)))
            assert dev <= 0.2 * interval_err

        # Bromwich scalar oracles
        rule = hyperbolic_contour(0.05, 2.0, half_nodes=64)
        ts = np.linspace(0.05, 2.0, 15)
        oracles = ((lambda z: 1.0 / (z + 1.0), np.exp(-ts)), (lambda z: 1.0 / z**2, ts))
        for transform, exact in oracles:
            assert np.max(np.abs(invert_scalar(transform, ts, rule) - exact)) <= 1e-10

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"property suite took {elapsed:.1f}s"
