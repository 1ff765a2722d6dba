import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dgtime.dg as dg
from dgtime.basis import legendre_coeff, legendre_table, make_workspace
from dgtime.dg import DgSolution, Forcing, LinearProblem, dg_solve
from dgtime.mesh import TimeMesh, uniform_mesh
from dgtime.postprocess import jump_indicator, reconstruct
from dgtime.models import Heat1dConfig, Heat2dConfig, heat1d_problem, heat2d_problem, ode_problem
from dgtime.reference import ode_exact
from dgtime.system import (MAX_DEGREE, SINE_FFT_LENGTH, diagonal_operator, scalar_operator,
                           sparse_operator, tridiagonal_operator)

from dg_helpers import interval_values, left_limit, right_limit
from test_system import spd_operators


def spd_tridiagonal(n, seed=0):
    rng = np.random.default_rng(seed)
    off = -rng.uniform(0.2, 0.8, n - 1)
    diag = 2.0 + rng.uniform(0.0, 1.0, n)
    return tridiagonal_operator(off, diag, off)


def max_sampled_ode_error(sol, samples=50):
    taus = np.linspace(-1, 1, samples)
    worst = 0.0
    for n in range(1, sol.mesh.N + 1):
        ts = sol.mesh.to_physical(n, taus)
        vals = interval_values(sol, n, taus)[:, 0]
        worst = max(worst, np.max(np.abs(vals - ode_exact(ts))))
    return worst


def _zero_op(n):
    return tridiagonal_operator(np.zeros(n - 1), np.zeros(n), np.zeros(n - 1))


def test_constant_state_reproduced_exactly():
    u0 = np.array([0.3, -1.2, 2.0])
    problem = LinearProblem(A=_zero_op(3), u0=u0, T=1.0)
    mesh = uniform_mesh(1.0, 4)
    for r in (1, 2, 3):
        sol = dg_solve(problem, mesh, r)
        for n in range(1, 5):
            np.testing.assert_allclose(left_limit(sol, n), u0, rtol=1e-13)
            np.testing.assert_allclose(sol.jumps(slice(n - 1, n))[0], 0.0, atol=1e-13)


def test_r1_matches_backward_euler_recurrence():
    # r=1 collapses to (I + k A) U^n = U^{n-1} + integral of f over I_n
    n_dim, N, T = 7, 6, 1.5
    A = spd_tridiagonal(n_dim, seed=3)
    rng = np.random.default_rng(17)
    c = rng.standard_normal(n_dim)
    f = lambda t: np.cos(3.0 * t) * c
    u0 = rng.standard_normal(n_dim)
    problem = LinearProblem(A=A, u0=u0, T=T, forcing=Forcing(lambda t: np.cos(3.0 * t), c))
    mesh = uniform_mesh(T, N)
    sol = dg_solve(problem, mesh, 1)

    ws = make_workspace(1)  # the rule the r=1 stepper integrates the forcing with
    nodes, weights = ws.quad_nodes, ws.quad_weights
    k = T / N
    dense = np.eye(n_dim) + k * A.matrix.toarray()
    u = u0.copy()
    for n in range(1, N + 1):
        t_quad = mesh.to_physical(n, nodes)
        integral = 0.5 * k * sum(w * f(t) for w, t in zip(weights, t_quad))
        u = np.linalg.solve(dense, u + integral)
        np.testing.assert_allclose(left_limit(sol, n), u, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_degree_exactness(r):
    # A = 0 and f = u' reproduce any polynomial of degree <= r - 1 exactly
    rng = np.random.default_rng(r)
    coef = rng.standard_normal(r)
    dcoef = np.polynomial.polynomial.polyder(coef) if r > 1 else np.zeros(1)
    u = lambda t: np.polynomial.polynomial.polyval(t, coef)
    problem = LinearProblem(
        A=scalar_operator(0.0),
        u0=np.atleast_1d(u(0.0)),
        T=2.0,
        forcing=Forcing(lambda t: np.polynomial.polynomial.polyval(t, dcoef), np.ones(1)),
    )
    mesh = uniform_mesh(2.0, 5)
    sol = dg_solve(problem, mesh, r)
    taus = np.linspace(-1, 1, 50)
    for n in range(1, 6):
        ts = mesh.to_physical(n, taus)
        np.testing.assert_allclose(interval_values(sol, n, taus)[:, 0], u(ts),
                                   rtol=1e-11, atol=1e-12)


def test_ode_table_row_n8():
    # golden value for the standard configuration: r=4, N=8 gives 1.36e-4
    sol = dg_solve(ode_problem(), uniform_mesh(2.0, 8), 4)
    err = max_sampled_ode_error(sol)
    assert err == pytest.approx(1.36e-4, rel=0.05)


def test_eval_conventions():
    problem = ode_problem()
    mesh = uniform_mesh(2.0, 4)
    sol = dg_solve(problem, mesh, 3)
    # left limit at nodes
    for n in range(1, 5):
        assert sol(mesh.nodes[n])[0] == pytest.approx(left_limit(sol, n)[0], rel=1e-14)
    # midpoint value is sum of coefficients times P_j(0)
    p_at_zero = legendre_table(2, [0.0])[0]
    mid = 0.5 * (mesh.nodes[1] + mesh.nodes[2])
    assert sol(mid)[0] == pytest.approx(p_at_zero @ sol.coefficients(slice(None))[1, :, 0],
                                        rel=1e-13)
    with pytest.raises(ValueError):
        sol(0.0)
    with pytest.raises(ValueError):
        sol(2.5)


def test_call_is_a_function_of_time():
    # a nonuniform mesh and a 3-state problem; sol(t) reads the interval holding t
    problem = LinearProblem(A=spd_tridiagonal(3), u0=np.array([1.0, -0.5, 2.0]), T=2.0,
                            forcing=Forcing(lambda t: np.cos(3.0 * t), np.array([1.0, 0.0, -2.0])))
    mesh = TimeMesh(np.array([0.0, 0.3, 1.1, 1.15, 2.0]))
    sol = dg_solve(problem, mesh, 4)
    taus = np.linspace(-0.9, 0.9, 7)
    ts = mesh.to_physical(np.arange(1, 5), taus)  # (4, 7), interior times only
    vals = sol(ts)
    assert vals.shape == (4, 7, 3)
    for n in range(1, 5):
        np.testing.assert_allclose(vals[n - 1], interval_values(sol, n, taus),
                                   rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(sol(ts[n - 1]), vals[n - 1], rtol=0, atol=0)
        # a break point belongs to the interval on its left
        assert sol(mesh.nodes[n]).shape == (3,)
        np.testing.assert_allclose(sol(mesh.nodes[n]), left_limit(sol, n), rtol=1e-13)
    assert sol(float(ts[1, 3])).shape == (3,)
    assert sol(ts[:2]).shape == (2, 7, 3)
    np.testing.assert_allclose(sol(mesh.nodes[1:]), [left_limit(sol, n) for n in range(1, 5)],
                               rtol=1e-13)
    for bad in (0.0, 2.0 + 1e-12, -1.0, np.nan, np.array([0.5, 2.5])):
        with pytest.raises(ValueError, match=r"times must lie in \(0.0, 2.0\]"):
            sol(bad)


def test_dg_solution_checks_its_inputs():
    mesh = uniform_mesh(1.0, 2)
    nested = [[[1.0, 2.0]], [[3.0, 4.0]]]  # (N, q, M) = (2, 1, 2) as nested lists
    sol = DgSolution(mesh, 1, nested, [0.0, 0.0])
    assert sol.coefficients(slice(None)).shape == (2, 1, 2)
    np.testing.assert_array_equal(sol.jumps(slice(1, 2))[0], [2.0, 2.0])
    with pytest.raises(ValueError, match="must equal r"):
        DgSolution(mesh, 2, nested, [0.0, 0.0])
    coeffs = np.zeros((2, 3, 5))
    for u0 in (np.ones(1), np.ones(7), np.ones((5, 1))):
        with pytest.raises(ValueError, match=rf"u0 has shape {re.escape(str(u0.shape))}, "
                                             r"expected \(5,\)"):
            DgSolution(mesh, 3, coeffs, u0)
    # a scalar problem may give its initial state as a number
    assert DgSolution(mesh, 3, np.zeros((2, 3, 1)), 0.5).u0.shape == (1,)


def test_jumps_of_a_block_are_right_minus_left_limits():
    rng = np.random.default_rng(5)
    mesh = TimeMesh(np.array([0.0, 0.4, 0.5, 1.7]))
    sol = DgSolution(mesh, 3, rng.standard_normal((3, 3, 2)), rng.standard_normal(2))
    jumps = sol.jumps(slice(None))
    assert jumps.shape == (3, 2)
    for n in range(1, 4):
        outgoing = sol.u0 if n == 1 else left_limit(sol, n - 1)
        jump = sol.jumps(slice(n - 1, n))[0]
        np.testing.assert_allclose(jump, right_limit(sol, n - 1) - outgoing,
                                   rtol=1e-14, atol=1e-15)
        assert np.array_equal(jump, jumps[n - 1])
    # a whole solution holds its one chunk for good: after the forward reads
    # it reads interval N, then interval 1, with the array formulas' bits
    for n in (3, 1):
        block = slice(n - 1, n)
        left = sol.u0 if n == 1 else sol.coefficients(slice(None))[n - 2:n - 1].sum(axis=1)
        assert np.array_equal(sol.coefficients(block), sol.coefficients(slice(None))[block])
        assert np.array_equal(sol.jumps(block), (-1.0) ** np.arange(3)
                              @ sol.coefficients(slice(None))[block] - left)
    assert sol.jumps(slice(1, 1)).shape == (0, 2)
    # each read forms a new block: writing to one leaves the solution alone
    sol.jumps(slice(0, 2))[:] = 0.0
    assert np.array_equal(sol.jumps(slice(None)), jumps)
    for n in (0, 4):
        with pytest.raises(ValueError, match=r"outside 1..3"):
            jump_indicator(sol, n)


@pytest.mark.parametrize("stream", [False, True])
def test_reads_take_only_a_slice_of_consecutive_intervals(stream):
    from dgtime.bench import ExtrapolatedSolution
    from dgtime.postprocess import reconstruct

    problem, mesh = heat1d_problem(Heat1dConfig(P=6)), uniform_mesh(1.0, 6)
    sol = dg_solve(problem, mesh, 2, stream=stream)
    fine = dg_solve(heat1d_problem(Heat1dConfig(P=12)), mesh, 2, stream=stream)
    readers = (sol.coefficients, sol.jumps, reconstruct(sol).coefficients,
               ExtrapolatedSolution(sol, fine).coefficients)
    for idx in (np.arange(2), [0, 1], 1, np.int64(1), slice(0, 4, 2), slice(3, 1, -1)):
        for read in readers:
            with pytest.raises(ValueError, match=re.escape(f"slice with step 1, got {idx!r}")):
                read(idx)
    # a slice with step 1 reads, the failed reads having moved nothing
    assert sol.coefficients(slice(0, 2, 1)).shape == (2, 2, 5)
    assert sol.jumps(slice(None, 1)).shape == (1, 5)


def test_eval_matches_monomial_horner_oracle():
    sol = dg_solve(ode_problem(), uniform_mesh(2.0, 5), 4)
    taus = np.linspace(-1, 1, 21)
    for n in (1, 3, 5):
        mono = np.polynomial.legendre.leg2poly(sol.coefficients(slice(None))[n - 1, :, 0])
        expected = np.polynomial.polynomial.polyval(taus, mono)
        np.testing.assert_allclose(interval_values(sol, n, taus)[:, 0], expected,
                                   rtol=1e-12, atol=1e-14)


def test_jump_first_interval_definition():
    problem = ode_problem()
    sol = dg_solve(problem, uniform_mesh(2.0, 4), 3)
    signs = (-1.0) ** np.arange(3)
    expected = signs @ sol.coefficients(slice(None))[0] - problem.u0
    np.testing.assert_allclose(sol.jumps(slice(0, 1))[0], expected, rtol=1e-14)
    with pytest.raises(ValueError):
        jump_indicator(sol, 0)
    with pytest.raises(ValueError):
        jump_indicator(sol, 5)


def test_jump_tracks_leading_coefficient_of_reference():
    # the jump approximates -2 (-1)^r a_{nr}(u) one order better than its size
    r = 4
    problem = ode_problem()
    ratios = {}
    for N in (8, 16, 32):
        mesh = uniform_mesh(2.0, N)
        sol = dg_solve(problem, mesh, r)
        worst = 0.0
        jump_size = 0.0
        for n in range(1, N + 1):
            interval = (mesh.nodes[n - 1], mesh.nodes[n])
            anr = legendre_coeff(ode_exact, interval, r)
            jump = sol.jumps(slice(n - 1, n))[0, 0]
            worst = max(worst, abs(jump + 2.0 * (-1.0) ** r * anr))
            jump_size = max(jump_size, abs(jump))
        ratios[N] = (worst, jump_size)
        assert worst <= 0.3 * jump_size
    rate_resid = np.log2(ratios[8][0] / ratios[32][0]) / 2
    rate_jump = np.log2(ratios[8][1] / ratios[32][1]) / 2
    assert rate_resid >= rate_jump + 0.7


@pytest.mark.parametrize("make_problem,r,N", [
    (ode_problem, 4, 6),
    (lambda: LinearProblem(A=spd_tridiagonal(8, seed=5),
                           u0=np.linspace(0, 1, 8), T=1.0,
                           forcing=Forcing(np.sin, np.ones(8))), 3, 5),
])
def test_galerkin_residual(make_problem, r, N):
    problem = make_problem()
    mesh = uniform_mesh(problem.T, N)
    ws = make_workspace(r)
    sol = dg_solve(problem, mesh, r)
    signs = (-1.0) ** np.arange(r)
    table = legendre_table(r - 1, ws.quad_nodes)
    M = problem.A.dim
    prev = problem.u0
    for n in range(1, N + 1):
        k = mesh.steps[n - 1]
        block = np.kron(ws.G, np.eye(M)) + k * np.kron(np.diag(ws.H), problem.A.matrix.toarray())
        rhs = (signs[:, None] * prev[None, :])
        t_quad = mesh.to_physical(n, ws.quad_nodes)
        fvals = problem.f(t_quad)
        rhs = rhs + 0.5 * k * table.T @ (ws.quad_weights[:, None] * fvals)
        resid = block @ sol.coefficients(slice(None))[n - 1].ravel() - rhs.ravel()
        assert np.linalg.norm(resid) <= 1e-10 * (1.0 + np.linalg.norm(rhs))
        prev = left_limit(sol, n)


def test_high_order_rates():
    # arbitrary-order check: r=5 keeps the optimal and post-processed rates
    from dgtime.postprocess import reconstruct

    problem = ode_problem()
    errs_u, errs_s = [], []
    for N in (4, 8, 16):
        mesh = uniform_mesh(2.0, N)
        sol = dg_solve(problem, mesh, 5)
        recon = reconstruct(sol)
        taus = np.linspace(-1, 1, 50)
        eu = es = 0.0
        for n in range(1, N + 1):
            ts = mesh.to_physical(n, taus)
            eu = max(eu, np.max(np.abs(interval_values(sol, n, taus)[:, 0] - ode_exact(ts))))
            es = max(es, np.max(np.abs(interval_values(recon, n, taus)[:, 0] - ode_exact(ts))))
        errs_u.append(eu)
        errs_s.append(es)
    assert np.log2(errs_u[-2] / errs_u[-1]) == pytest.approx(5.0, abs=0.2)
    assert np.log2(errs_s[-2] / errs_s[-1]) == pytest.approx(6.0, abs=0.2)


def test_galerkin_residual_on_nonuniform_mesh():
    from dgtime.mesh import TimeMesh

    r = 3
    problem = LinearProblem(A=spd_tridiagonal(5, seed=9),
                            u0=np.ones(5), T=1.0,
                            forcing=Forcing(lambda t: np.exp(-t), np.ones(5)))
    mesh = TimeMesh(np.array([0.0, 0.15, 0.2, 0.55, 1.0]))
    ws = make_workspace(r)
    sol = dg_solve(problem, mesh, r)
    signs = (-1.0) ** np.arange(r)
    table = legendre_table(r - 1, ws.quad_nodes)
    prev = problem.u0
    for n in range(1, mesh.N + 1):
        k = mesh.steps[n - 1]
        block = np.kron(ws.G, np.eye(5)) + k * np.kron(np.diag(ws.H), problem.A.matrix.toarray())
        rhs = signs[:, None] * prev[None, :]
        t_quad = mesh.to_physical(n, ws.quad_nodes)
        fvals = problem.f(t_quad)
        rhs = rhs + 0.5 * k * table.T @ (ws.quad_weights[:, None] * fvals)
        resid = block @ sol.coefficients(slice(None))[n - 1].ravel() - rhs.ravel()
        assert np.linalg.norm(resid) <= 1e-10 * (1.0 + np.linalg.norm(rhs))
        prev = left_limit(sol, n)


def test_nodal_superconvergence_rate():
    problem = ode_problem()
    errors = {}
    for N in (4, 8, 16):
        mesh = uniform_mesh(2.0, N)
        sol = dg_solve(problem, mesh, 4)
        errors[N] = max(abs(left_limit(sol, n)[0] - ode_exact(mesh.nodes[n]))
                        for n in range(1, N + 1))
    for a, b in ((4, 8), (8, 16)):
        rate = np.log2(errors[a] / errors[b])
        assert 6.7 <= rate <= 7.3


def test_forcing_shape_mismatch_rejected():
    # phi must keep the shape of its (N, m) time array: a per-time scalar
    # function is not vectorised
    problem = LinearProblem(A=scalar_operator(1.0), u0=np.array([1.0]), T=1.0,
                            forcing=Forcing(lambda t: 1.0, np.ones(1)))
    with pytest.raises(ValueError, match=r"forcing phi returned shape \(\) for times \(2, 5\)"):
        dg_solve(problem, uniform_mesh(1.0, 2), 2)
    with pytest.raises(ValueError, match="forcing profile dimension"):
        LinearProblem(A=spd_tridiagonal(3), u0=np.ones(3), T=1.0,
                      forcing=Forcing(np.cos, np.ones(4)))


def test_non_finite_initial_state_rejected():
    # unchecked, a NaN entry reached Heat2dReference as a singular resolvent
    # system and dg_solve as non-finite coefficients at step n = 1
    problem = heat2d_problem(Heat2dConfig(Px=6, Py=6))
    u0 = problem.u0.copy()
    u0[7] = np.nan
    with pytest.raises(ValueError, match="^initial state u0 has a non-finite entry$"):
        replace(problem, u0=u0)


def test_non_finite_forcing_profile_rejected():
    # unchecked, an inf entry printed RuntimeWarnings before any error
    problem = heat2d_problem(Heat2dConfig(Px=6, Py=6))
    profile = problem.forcing.profile.copy()
    profile[-1] = np.inf
    forcing = Forcing(problem.forcing.phi, profile, problem.forcing.phi_hat)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^forcing profile has a non-finite entry$"):
            replace(problem, forcing=forcing)


def test_forcing_phi_called_once_per_solve():
    calls = []

    def phi(t):
        calls.append(np.shape(t))
        return np.exp(-t)

    problem = LinearProblem(A=spd_tridiagonal(4), u0=np.ones(4), T=1.0,
                            forcing=Forcing(phi, np.ones(4)))
    dg_solve(problem, uniform_mesh(1.0, 8), 3)
    assert calls == [(8, make_workspace(3).quad_nodes.size)]


def test_nonuniform_mesh_supported():
    problem = ode_problem()
    nodes = np.concatenate([np.linspace(0.0, 0.5, 6), np.linspace(0.7, 2.0, 8)])
    sol = dg_solve(problem, TimeMesh(nodes), 3)
    ts = np.linspace(0.05, 2.0, 40)
    err = np.max(np.abs(sol(ts)[:, 0] - ode_exact(ts)))
    assert err < 1e-3  # mixed step sizes, sanity bound only


def test_radau_moment_variant_matches_gauss_for_polynomial_forcing():
    # the two moment rules integrate low-degree forcings identically
    problem = LinearProblem(A=scalar_operator(1.0),
                            u0=np.array([0.5]), T=1.0,
                            forcing=Forcing(lambda t: 1.0 + 2.0 * t, np.ones(1)))
    mesh = uniform_mesh(1.0, 3)
    a = dg_solve(problem, mesh, 3)
    b = dg_solve(problem, mesh, 3, moment_quadrature="radau")
    np.testing.assert_allclose(a.coefficients(slice(None)), b.coefficients(slice(None)),
                               atol=1e-13)
    with pytest.raises(ValueError):
        dg_solve(problem, mesh, 3, moment_quadrature="simpson")


def _count_factorizations(monkeypatch):
    import dgtime.dg

    calls = []
    original = dgtime.dg.factorize_step_matrix

    def counting(A, ws, k):
        calls.append(k)
        return original(A, ws, k)

    monkeypatch.setattr(dgtime.dg, "factorize_step_matrix", counting)
    return calls


def test_uniform_mesh_factors_once(monkeypatch):
    mesh = uniform_mesh(0.7, 1024)
    assert np.unique(mesh.steps).size > 1  # np.diff steps differ in the last ulps
    calls = _count_factorizations(monkeypatch)
    problem = LinearProblem(A=spd_tridiagonal(4), u0=np.ones(4), T=0.7)
    dg_solve(problem, mesh, 2)
    assert len(calls) == 1


def test_distinct_steps_are_not_merged(monkeypatch):
    # steps that differ by 1e-9 relative each get their own factorization
    from dgtime.mesh import TimeMesh

    N = 12
    steps = 0.1 * (1.0 + 1e-9 * np.arange(N))
    mesh = TimeMesh(np.concatenate([[0.0], np.cumsum(steps)]))
    calls = _count_factorizations(monkeypatch)
    problem = LinearProblem(A=spd_tridiagonal(4), u0=np.ones(4), T=mesh.T)
    dg_solve(problem, mesh, 2)
    assert len(calls) == N


@pytest.mark.parametrize("A", [scalar_operator(1.0), spd_tridiagonal(3)])
def test_non_finite_coefficients_report_step(A):
    forcing = Forcing(lambda t: np.where(t > 0.5, np.nan, 1.0), np.ones(A.dim))
    problem = LinearProblem(A=A, u0=np.ones(A.dim), T=1.0, forcing=forcing)
    with pytest.raises(ValueError, match=r"non-finite DG coefficients at step n=2, t_n=1\.0"):
        dg_solve(problem, uniform_mesh(1.0, 2), 2)


def _mpmath_ode_coefficients(problem, mesh, r):
    """DG coefficients of a scalar problem by a 30-digit recurrence.

    Same double-precision forcing moments as dg_solve; the step matrix
    G + k lam diag(H), its inverse and every step are carried in mpmath.
    """
    import mpmath

    ws = make_workspace(r)
    nodes, weights = ws.quad_nodes, ws.quad_weights
    a, b = mesh.nodes[:-1, None], mesh.nodes[1:, None]
    phi = problem.forcing.phi(0.5 * ((1.0 - nodes) * a + (1.0 + nodes) * b))
    moments = 0.5 * mesh.steps[:, None] * ((weights * phi) @ legendre_table(r - 1, nodes))
    lam, g = float(problem.A.diagonal[0]), float(problem.forcing.profile[0])
    out = np.empty((mesh.N, r))
    with mpmath.workdps(30):
        k = mpmath.mpf(float(mesh.steps[0]))
        step = mpmath.matrix(r, r)
        for i in range(r):
            for j in range(r):
                step[i, j] = mpmath.mpf(float(ws.G[i, j])) + (
                    k * mpmath.mpf(lam) * mpmath.mpf(float(ws.H[i])) if i == j else 0)
        inverse = step ** -1
        prev = mpmath.mpf(float(problem.u0[0]))
        for n in range(mesh.N):
            rhs = mpmath.matrix([(-1) ** i * prev + mpmath.mpf(float(moments[n, i])) * g
                                 for i in range(r)])
            U = inverse * rhs
            out[n] = [float(u) for u in U]
            prev = mpmath.fsum(U)
    return out


@pytest.mark.parametrize("r", [2, 4])
@pytest.mark.parametrize("N", [32, 64, 128])
def test_scalar_step_solve_against_mpmath_recurrence(r, N):
    problem = ode_problem()
    mesh = uniform_mesh(problem.T, N)
    exact = _mpmath_ode_coefficients(problem, mesh, r)
    coeffs = dg_solve(problem, mesh, r).coefficients(slice(None))[:, :, 0]
    err = np.linalg.norm(coeffs - exact) / np.linalg.norm(exact)
    assert err <= 5e-15


def _nonuniform_forced_case():
    # no eigenbasis (non-constant bands) and a new step size, hence a new
    # factorization, at every step
    rng = np.random.default_rng(21)
    mesh = TimeMesh(np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.1, 23))]))
    problem = LinearProblem(A=spd_tridiagonal(6, seed=2), u0=rng.standard_normal(6), T=mesh.T,
                            forcing=Forcing(lambda t: np.cos(3.0 * t) + t, rng.standard_normal(6)))
    return problem, mesh, 2, 1


# name -> (problem, mesh, r, intervals per transform block); each mesh spans
# several chunks of STREAM_CHUNK_BLOCKS transform blocks
STREAM_CASES = {
    # heat1d's 19 interior points: the dense 1D sine transform
    "dense-1d": lambda: (heat1d_problem(Heat1dConfig(P=20)), uniform_mesh(1.0, 37), 3, 2),
    "rfft-1d": lambda: (heat1d_problem(Heat1dConfig(P=SINE_FFT_LENGTH + 1)),
                        uniform_mesh(1.0, 43), 2, 5),
    "kronecker-2d": lambda: (heat2d_problem(Heat2dConfig(Px=7, Py=6)), uniform_mesh(1.0, 29),
                             3, 2),
    "scalar": lambda: (ode_problem(), uniform_mesh(2.0, 31), 4, 1),
    "nonuniform-forced": _nonuniform_forced_case,
}


def _streamed_case(monkeypatch, case):
    """(whole solution, a fresh stream factory, intervals per chunk) of a STREAM_CASES entry."""
    problem, mesh, r, block = STREAM_CASES[case]()
    monkeypatch.setattr(dg, "TRANSFORM_BLOCK_ELEMENTS", block * r * problem.A.dim)
    chunk = dg.STREAM_CHUNK_BLOCKS * block
    assert mesh.N > 2 * chunk
    return (dg_solve(problem, mesh, r), lambda: dg_solve(problem, mesh, r, stream=True), chunk)


@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_streamed_solution_equals_dg_solve_bit_for_bit(monkeypatch, case):
    whole, streamed, chunk = _streamed_case(monkeypatch, case)
    stream, N = streamed(), whole.mesh.N
    assert (stream.degree_count, stream.dim, stream.norm_weight) == (
        whole.degree_count, whole.dim, whole.norm_weight)
    # 3-interval reads do not divide the chunks, so some straddle two; each
    # block is read twice, as a measurement reads it
    assert chunk % 3
    for lo in range(0, N, 3):
        idx = slice(lo, lo + 3)
        for _ in range(2):
            assert np.array_equal(stream.coefficients(idx), whole.coefficients(idx))
            assert np.array_equal(stream.jumps(idx), whole.jumps(idx))
    # a first read past whole chunks steps through them; the jump at the
    # window's first node then comes from the carried left limit
    for lo in (chunk, chunk + 1, 2 * chunk - 1):
        stream = streamed()
        assert np.array_equal(stream.jumps(slice(lo, lo + 2)), whole.jumps(slice(lo, lo + 2)))
        assert np.array_equal(stream.coefficients(slice(lo, N)), whole.coefficients(slice(lo, N)))


def test_streamed_solution_rejects_reads_behind_its_window(monkeypatch):
    whole, streamed, chunk = _streamed_case(monkeypatch, "dense-1d")
    stream = streamed()
    stream.coefficients(slice(2 * chunk, 2 * chunk + 1))
    for read in (lambda: stream.coefficients(slice(0, 1)),
                 lambda: stream.jumps(slice(chunk, 2 * chunk + 1)),
                 lambda: stream(whole.mesh.nodes[1])):
        with pytest.raises(ValueError, match="behind the streamed window"):
            read()
    # the window itself can be read again, also as a function of time
    t = whole.mesh.nodes[2 * chunk + 1]
    assert np.array_equal(stream(t), whole(t))


def test_streamed_solution_holds_one_chunk_at_a_time(monkeypatch):
    # a diagonal operator has no back transform, so the chunks are the only
    # arrays of many intervals.  Read 1 or 3 intervals at a time, coefficients
    # and jumps in either order, the stream frees each chunk before it steps
    # the next and keeps no complex step result alive (two chunks at every
    # boundary before); a 3-interval read that straddles a boundary keeps
    # only its own rows of the old chunk (two chunks there before)
    r, dim, block = 2, 2000, 16
    monkeypatch.setattr(dg, "TRANSFORM_BLOCK_ELEMENTS", block * r * dim)
    chunk = dg.STREAM_CHUNK_BLOCKS * block
    assert chunk % 3
    problem = LinearProblem(diagonal_operator(np.linspace(1.0, 100.0, dim)),
                            np.random.default_rng(5).standard_normal(dim), 1.0,
                            forcing=Forcing(np.cos, np.ones(dim)))
    mesh = uniform_mesh(1.0, 4 * chunk)
    for width in (1, 3):
        for reads in (("coefficients", "jumps"), ("jumps", "coefficients")):
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                sol = dg_solve(problem, mesh, r, stream=True)
                for n in range(0, mesh.N, width):
                    for read in reads:
                        getattr(sol, read)(slice(n, n + width))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            del sol
            assert peak - before < 1.5 * chunk * r * dim * 8, (width, reads)


def _scaled(A, c):
    """c A for an operator of `spd_operators`, solved as A is: by division or by sparse LU."""
    if A.diagonal is not None:
        return diagonal_operator(c * A.diagonal)
    return sparse_operator(c * A.matrix)


def _constant_tridiagonal(n, a, extra):
    return lambda c: tridiagonal_operator(*(c * band for band in (
        np.full(n - 1, a), np.full(n, 2.0 * abs(a) + extra), np.full(n - 1, a))))


# each entry maps a factor c to an operator c A: the `spd_operators` of
# test_system (sparse LU and diagonal division), a scalar (the dense M = 1
# step) and a constant-band tridiagonal operator (the sine eigenbasis)
scalable_operators = st.one_of(
    spd_operators.map(lambda A: lambda c: A if c == 1.0 else _scaled(A, c)),
    st.floats(0.01, 100.0).map(lambda lam: lambda c: scalar_operator(c * lam)),
    st.builds(_constant_tridiagonal, st.integers(2, 40), st.floats(-2.0, -0.1),
              st.floats(0.0, 1.0)),
)


@settings(max_examples=60, deadline=None)
@given(operator=scalable_operators, r=st.integers(1, MAX_DEGREE), s=st.integers(-3, 3),
       moments=st.sampled_from(["gauss", "radau"]), N=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
def test_power_of_two_time_scaling_is_bit_exact(operator, r, s, moments, N, seed):
    # v(t) = u(t / c) solves v' + (A / c) v = phi(t / c) g / c when u solves
    # u' + A u = phi g.  With c = 2^s every step size, shift and forcing
    # moment only gains a power of two, so the DG solutions share every bit
    c = 2.0 ** s
    rng = np.random.default_rng(seed)
    nodes = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, N))])
    u0, g = rng.standard_normal((2, operator(1.0).dim))
    sols = []
    for scale in (1.0, c):
        phi = lambda t, scale=scale: (np.cos(3.0 * t / scale) + t / scale) / scale
        problem = LinearProblem(operator(1.0 / scale), u0, nodes[-1] * scale,
                                forcing=Forcing(phi, g))
        sols.append(dg_solve(problem, TimeMesh(nodes * scale), r, moment_quadrature=moments))
    every = slice(None)
    for read in (lambda sol: sol.coefficients(every), lambda sol: sol.jumps(every),
                 lambda sol: reconstruct(sol).coefficients(every)):
        assert np.array_equal(read(sols[1]), read(sols[0]))
