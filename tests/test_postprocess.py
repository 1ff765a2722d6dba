import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgtime.basis import legendre_table, radau_rule
from dgtime.bench import max_error_sampled
from dgtime.dg import DgSolution, Forcing, LinearProblem, dg_solve, state_norm
from dgtime.mesh import TimeMesh, uniform_mesh
from dgtime.models import Heat2dConfig, heat2d_problem, ode_problem
from dgtime.postprocess import error_profile_deviation, jump_indicator, reconstruct
from dgtime.reference import Heat2dReference, ode_exact
from dgtime.system import diagonal_operator, scalar_operator, tridiagonal_operator

from dg_helpers import ArrayPiecewise, interval_values, left_limit, pi_tilde_project, right_limit
from test_system import random_spd_tridiagonal


def ode_solution(r, N):
    return dg_solve(ode_problem(), uniform_mesh(2.0, N), r)


def interval_max_error(sol, n, samples=50):
    taus = np.linspace(-1, 1, samples)
    ts = sol.mesh.to_physical(n, taus)
    return np.max(np.abs(interval_values(sol, n, taus)[:, 0] - ode_exact(ts)))


def test_reconstruction_coefficient_table():
    sol = ode_solution(3, 6)
    coeffs, dg_coeffs = reconstruct(sol).coefficients(slice(None)), sol.coefficients(slice(None))
    for n in range(1, 7):
        half = 0.5 * (-1.0) ** 3 * sol.jumps(slice(n - 1, n))[0]
        np.testing.assert_allclose(coeffs[n - 1][:2], dg_coeffs[n - 1][:2], rtol=1e-14)
        np.testing.assert_allclose(coeffs[n - 1][2], dg_coeffs[n - 1][2] + half, rtol=1e-13)
        np.testing.assert_allclose(coeffs[n - 1][3], -half, rtol=1e-13)


def random_solution(rng, n, r, dim):
    """DG solution with random coefficients on a random nonuniform mesh."""
    mesh = TimeMesh(np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, n))]))
    return DgSolution(mesh, r, rng.standard_normal((n, r, dim)), rng.standard_normal(dim),
                      rng.uniform(0.01, 1.0))


def materialized_jumps(sol):
    """The whole (N, M) array of jumps, built at once."""
    jumps = (-1.0) ** np.arange(sol.r) @ sol.coefficients(slice(None))
    jumps[0] -= sol.u0
    jumps[1:] -= sol.coefficients(slice(None))[:-1].sum(axis=1)
    return jumps


def materialized_reconstruction(sol):
    """The whole (N, r + 1, M) reconstruction, built as one array."""
    r = sol.r
    half_signed = 0.5 * (-1.0) ** r * materialized_jumps(sol)
    coeffs = np.concatenate([sol.coefficients(slice(None)), -half_signed[:, None, :]], axis=1)
    coeffs[:, r - 1, :] += half_signed
    return coeffs


def interval_blocks(rng, n):
    """Slices of intervals, the first starting at interval 1 and the last
    reading it again after the later blocks."""
    stop = int(rng.integers(1, n + 1))
    start = int(rng.integers(0, n))
    return [slice(0, stop), slice(start, n), slice(None), slice(0, stop)]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), r=st.integers(1, 10),
       dim=st.sampled_from([1, 7]))
@example(seed=12889472, n=5, r=9, dim=1)
def test_reconstruction_blocks_equal_the_materialized_array(seed, n, r, dim):
    rng = np.random.default_rng(seed)
    sol = random_solution(rng, n, r, dim)
    recon = reconstruct(sol)
    full = materialized_reconstruction(sol)
    assert (recon.degree_count, recon.dim, recon.r) == (r + 1, dim, r)
    assert recon.norm_weight == sol.norm_weight
    assert np.array_equal(recon.coefficients(slice(None)), full)
    for idx in interval_blocks(rng, n):
        block = recon.coefficients(idx)
        assert block.shape == full[idx].shape
        assert np.array_equal(block, full[idx])
    taus = np.linspace(-1.0, 1.0, 5)
    for m in (1, n):
        assert np.array_equal(left_limit(recon, m), full[m - 1].sum(axis=0))
        assert np.array_equal(right_limit(recon, m - 1),
                              (-1.0) ** np.arange(r + 1) @ full[m - 1])
        # as a function of time, at the sample times of interval m past its left
        # node, against the polynomial at the tau that sol(t) maps t back to
        ts, (a, b) = sol.mesh.to_physical(m, taus[1:]), sol.mesh.nodes[m - 1:m + 1]
        vander = np.polynomial.legendre.legvander((2.0 * ts - (a + b)) / (b - a), r)
        np.testing.assert_allclose(recon(ts), vander @ full[m - 1], rtol=1e-12, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), r=st.integers(1, 8),
       dim=st.sampled_from([1, 3]))
def test_jump_blocks_equal_the_whole_mesh_jumps(seed, n, r, dim):
    rng = np.random.default_rng(seed)
    sol = random_solution(rng, n, r, dim)
    jumps, full = materialized_jumps(sol), materialized_reconstruction(sol)
    recon = reconstruct(sol)
    start, stop = int(rng.integers(0, n)), int(rng.integers(1, n + 1))
    blocks = [slice(0, stop), slice(start, n), slice(start, max(start, stop)), slice(None),
              slice(start, start)]
    for idx in blocks:
        assert np.array_equal(sol.jumps(idx), jumps[idx])
        assert np.array_equal(recon.coefficients(idx), full[idx])
    for m in (1, start + 1, n):
        assert np.array_equal(sol.jumps(slice(m - 1, m))[0], jumps[m - 1])
        assert jump_indicator(sol, m) == state_norm(jumps[m - 1], sol.norm_weight)


def test_measuring_holds_no_array_of_jumps():
    # a cheap diagonal problem whose (N, M) array is far larger than one
    # measurement block (8 intervals of 2 samples here)
    n, dim = 512, 4000
    problem = LinearProblem(A=diagonal_operator(np.linspace(1.0, 2.0, dim)),
                            u0=np.ones(dim), T=1.0)
    sol = dg_solve(problem, uniform_mesh(1.0, n), 1)

    def zero_reference(ts):
        return np.zeros(ts.shape + (dim,))

    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        errors = max_error_sampled([sol, reconstruct(sol), sol], zero_reference, 2,
                                   nodal=[False, False, True])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < n * dim * 8
    assert errors[2] == pytest.approx(max(state_norm(left_limit(sol, m)) for m in range(1, n + 1)),
                                      rel=1e-14)


def test_reading_one_interval_allocates_nothing_of_size_n():
    # a whole solution with N = 2^18 scalar intervals: reading one interval
    # through every reader allocates far less than one N-long index array
    n = 2 ** 18
    rng = np.random.default_rng(11)
    sol = DgSolution(uniform_mesh(1.0, n), 1, rng.standard_normal((n, 1, 1)), 0.5)
    recon = reconstruct(sol)
    m = n // 2
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        reads = (sol.coefficients(slice(m - 1, m)), sol.jumps(slice(m - 1, m)),
                 jump_indicator(sol, m), recon.coefficients(slice(m - 1, m)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < n * np.dtype(np.int64).itemsize
    assert reads[2] == state_norm(reads[1][0])
    assert reads[3].shape == (1, 2, 1)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), r=st.integers(1, 10),
       dim=st.sampled_from([1, 3]))
def test_reconstruction_identities_on_dg_solves_with_random_meshes(seed, n, r, dim):
    rng = np.random.default_rng(seed)
    mesh = TimeMesh(np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, n))]))
    problem = LinearProblem(A=random_spd_tridiagonal(dim, seed=seed % 1000),
                            u0=rng.standard_normal(dim), T=mesh.T,
                            forcing=Forcing(lambda t: np.cos(3.0 * t) + t,
                                            rng.standard_normal(dim)))
    sol = dg_solve(problem, mesh, r)
    recon = reconstruct(sol)
    atol = 1e-12 * (1.0 + np.max(np.abs(sol.coefficients(slice(None)))))
    for m in range(1, n + 1):
        outgoing = sol.u0 if m == 1 else left_limit(sol, m - 1)
        np.testing.assert_allclose(sol.jumps(slice(m - 1, m))[0],
                                   right_limit(sol, m - 1) - outgoing, rtol=0, atol=atol)
    # U* is continuous and starts from u0
    np.testing.assert_allclose(right_limit(recon, 0), sol.u0, rtol=0, atol=atol)
    for m in range(1, n):
        np.testing.assert_allclose(left_limit(recon, m), right_limit(recon, m), rtol=0, atol=atol)
    # U* = U at the interior Radau points, and U - U* is the scaled Radau polynomial
    interior = radau_rule(r)[0][:-1]
    taus = np.linspace(-1.0, 1.0, 11)
    table = legendre_table(r, taus)
    profile = table[:, r] - table[:, r - 1]
    for m in range(1, n + 1):
        if interior.size:
            np.testing.assert_allclose(interval_values(recon, m, interior),
                                       interval_values(sol, m, interior), rtol=0, atol=atol)
        expected = 0.5 * (-1.0) ** r * np.outer(profile, sol.jumps(slice(m - 1, m))[0])
        np.testing.assert_allclose(interval_values(sol, m, taus) - interval_values(recon, m, taus),
                                   expected, rtol=0, atol=atol)


def test_reconstruct_allocates_no_coefficient_array():
    n, r, dim = 64, 4, 50
    sol = random_solution(np.random.default_rng(3), n, r, dim)
    full_bytes = n * (r + 1) * dim * 8
    tracemalloc.start()
    try:
        recon = reconstruct(sol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the reconstruction holds no array of its own; the old full copy was (N, r + 1, M)
    assert peak < full_bytes / 2
    assert recon.coefficients(slice(0, 1)).shape == (1, r + 1, dim)


def test_reconstruction_of_jumpless_solution_is_identity():
    problem = LinearProblem(
        A=tridiagonal_operator(np.zeros(2), np.zeros(3), np.zeros(2)),
        u0=np.array([1.0, -2.0, 0.5]), T=1.0,
    )
    sol = dg_solve(problem, uniform_mesh(1.0, 3), 2)
    coeffs = reconstruct(sol).coefficients(slice(None))
    np.testing.assert_allclose(coeffs[:, :2, :], sol.coefficients(slice(None)), atol=1e-14)
    np.testing.assert_allclose(coeffs[:, 2, :], 0.0, atol=1e-14)


def test_reconstruction_interpolates_at_interior_radau_points():
    r = 4
    sol = ode_solution(r, 8)
    recon = reconstruct(sol)
    radau = radau_rule(r)[0]
    for n in range(1, 9):
        u_vals = interval_values(sol, n, radau[:-1])
        s_vals = interval_values(recon, n, radau[:-1])
        np.testing.assert_allclose(s_vals, u_vals, rtol=1e-11, atol=1e-13)


def test_reconstruction_continuity_and_endpoints():
    sol = ode_solution(3, 8)
    recon = reconstruct(sol)
    for n in range(1, 8):
        left = left_limit(recon, n)
        right = right_limit(recon, n)
        np.testing.assert_allclose(left, right, rtol=1e-11)
        np.testing.assert_allclose(left, left_limit(sol, n), rtol=1e-12)
    np.testing.assert_allclose(right_limit(recon, 0), sol.u0, rtol=1e-12)


def test_reconstruction_ode_golden_value():
    # golden value for the standard configuration: r=4, N=8 gives 2.26e-6
    r = 4
    sol = ode_solution(r, 8)
    recon = reconstruct(sol)
    taus = np.linspace(-1, 1, 50)
    err = 0.0
    for n in range(1, 9):
        ts = sol.mesh.to_physical(n, taus)
        err = max(err, np.max(np.abs(interval_values(recon, n, taus)[:, 0] - ode_exact(ts))))
    assert err == pytest.approx(2.26e-6, rel=0.05)


def test_u_minus_ustar_is_scaled_radau_polynomial():
    r = 3
    sol = ode_solution(r, 6)
    recon = reconstruct(sol)
    taus = np.linspace(-1, 1, 50)
    table = legendre_table(r, taus)
    profile = table[:, r] - table[:, r - 1]
    for n in range(1, 7):
        diff = interval_values(sol, n, taus)[:, 0] - interval_values(recon, n, taus)[:, 0]
        expected = 0.5 * (-1.0) ** r * sol.jumps(slice(n - 1, n))[0, 0] * profile
        np.testing.assert_allclose(diff, expected, rtol=1e-11, atol=1e-14)


def test_jump_indicator_zero_without_jumps():
    problem = LinearProblem(A=scalar_operator(0.0), u0=np.array([2.0]), T=1.0)
    sol = dg_solve(problem, uniform_mesh(1.0, 4), 2)
    assert jump_indicator(sol, 2) == 0.0


def test_jump_indicator_tracks_interval_error():
    sol = ode_solution(2, 64)
    worst = 0.0
    for n in range(1, 65):
        true_err = interval_max_error(sol, n)
        worst = max(worst, abs(jump_indicator(sol, n) - true_err) / true_err)
    assert worst <= 0.15


def test_jump_indicator_halves_at_rate_r():
    r = 3
    maxima = {}
    for N in (16, 32, 64):
        sol = ode_solution(r, N)
        maxima[N] = max(jump_indicator(sol, n) for n in range(1, N + 1))
    for a, b in ((16, 32), (32, 64)):
        rate = np.log2(maxima[a] / maxima[b])
        assert rate == pytest.approx(r, abs=0.25)


def test_pi_tilde_reproduces_polynomials():
    r = 4
    rng = np.random.default_rng(2)
    coef = rng.standard_normal(r)
    v = lambda t: np.polynomial.polynomial.polyval(t, coef)
    mesh = uniform_mesh(1.5, 3)
    proj = pi_tilde_project(v, mesh, r)
    taus = np.linspace(-1, 1, 30)
    for n in range(1, 4):
        ts = mesh.to_physical(n, taus)
        np.testing.assert_allclose(interval_values(proj, n, taus)[:, 0], v(ts),
                                   rtol=1e-12, atol=1e-12)


def test_pi_tilde_interpolates_right_nodes():
    r = 3
    mesh = uniform_mesh(2.0, 5)
    v = lambda t: np.sin(1.7 * t) + 0.3 * t
    proj = pi_tilde_project(v, mesh, r)
    for n in range(1, 6):
        assert left_limit(proj, n)[0] == pytest.approx(v(mesh.nodes[n]), rel=1e-12)


def test_pi_tilde_drops_top_degree_to_lower_one():
    # projecting the degree-r local Legendre polynomial gives the degree r-1 one
    r = 3
    mesh = uniform_mesh(1.0, 2)
    top = np.zeros((2, r + 1, 1))
    top[:, r] = 1.0
    v = ArrayPiecewise(mesh, top)  # P_r of each interval's reference coordinate
    proj = pi_tilde_project(v, mesh, r)
    taus = np.linspace(-1, 1, 25)
    for n in (1, 2):
        expected = legendre_table(r - 1, taus)[:, r - 1]
        np.testing.assert_allclose(interval_values(proj, n, taus)[:, 0], expected,
                                   rtol=1e-11, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9), r=st.integers(1, 10),
       dim=st.sampled_from([1, 3]))
def test_pi_tilde_reproduces_low_degree_and_interpolates_on_random_meshes(seed, n, r, dim):
    rng = np.random.default_rng(seed)
    start = rng.uniform(-1.0, 1.0)
    mesh = TimeMesh(start + np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, n))]))
    scale = mesh.T - start
    # degree r - 1 in (t - start) / scale, so values stay O(1) on the mesh
    coef = rng.standard_normal((r, dim))

    def poly(t):
        vals = np.polynomial.polynomial.polyval((t - start) / scale, coef)  # (dim,) + t.shape
        return vals[0] if dim == 1 else np.moveaxis(vals, 0, -1)

    def smooth(t):
        vals = np.sin(np.multiply.outer(3.0 * t, np.arange(1, dim + 1)) + 0.4)
        return vals[..., 0] if dim == 1 else vals

    taus = np.linspace(-1.0, 1.0, 9)
    ts = mesh.to_physical(np.arange(1, n + 1), taus)
    proj = pi_tilde_project(poly, mesh, r)
    assert proj.coefficients(slice(None)).shape == (n, r, dim)
    for m in range(1, n + 1):
        np.testing.assert_allclose(interval_values(proj, m, taus),
                                   np.reshape(poly(ts[m - 1]), (taus.size, dim)),
                                   rtol=0, atol=1e-11 * np.max(np.abs(coef)) * r)
    interp = pi_tilde_project(smooth, mesh, r)
    for m in range(1, n + 1):
        np.testing.assert_allclose(left_limit(interp, m),
                                   np.reshape(smooth(mesh.nodes[m]), (dim,)),
                                   rtol=0, atol=1e-13)


def test_error_profile_trivial_for_reproduced_polynomials():
    r = 3
    coef = np.array([0.2, -1.0, 0.4])
    dcoef = np.polynomial.polynomial.polyder(coef)
    u = lambda t: np.polynomial.polynomial.polyval(t, coef)
    problem = LinearProblem(
        A=scalar_operator(0.0),
        u0=np.atleast_1d(u(0.0)), T=1.0,
        forcing=Forcing(lambda t: np.polynomial.polynomial.polyval(t, dcoef), np.ones(1)),
    )
    sol = dg_solve(problem, uniform_mesh(1.0, 3), r)
    anr, dev = error_profile_deviation(sol, u, 2)
    assert np.max(np.abs(anr)) <= 1e-12
    assert dev <= 1e-11


def test_error_profile_deviation_checks_the_interval():
    sol = ode_solution(3, 4)
    for n in (0, 5):
        with pytest.raises(ValueError, match=r"outside 1..4"):
            error_profile_deviation(sol, ode_exact, n)


def test_error_profile_dominates_error():
    # removing the predicted profile leaves at most 20% of the interval error
    r, N = 4, 32
    sol = ode_solution(r, N)
    for n in range(1, N + 1):
        _, dev = error_profile_deviation(sol, ode_exact, n)
        assert dev <= 0.2 * interval_max_error(sol, n)


def test_error_profile_residual_converges_one_order_faster():
    r = 4
    devs, errs = {}, {}
    for N in (8, 16, 32):
        sol = ode_solution(r, N)
        devs[N] = max(error_profile_deviation(sol, ode_exact, n)[1]
                      for n in range(1, N + 1))
        errs[N] = max(interval_max_error(sol, n) for n in range(1, N + 1))
    dev_rate = np.log2(devs[8] / devs[32]) / 2
    err_rate = np.log2(errs[8] / errs[32]) / 2
    assert dev_rate >= r + 1 - 0.3
    assert err_rate == pytest.approx(r, abs=0.3)


def test_radau_point_superconvergence():
    r = 3
    radau = radau_rule(r)[0]
    errors = {}
    for N in (16, 32, 64):
        sol = ode_solution(r, N)
        worst = 0.0
        for n in range(1, N + 1):
            ts = sol.mesh.to_physical(n, radau)
            vals = interval_values(sol, n, radau)[:, 0]
            worst = max(worst, np.max(np.abs(vals - ode_exact(ts))))
        errors[N] = worst
    for a, b in ((16, 32), (32, 64)):
        rate = np.log2(errors[a] / errors[b])
        assert r + 0.7 <= rate <= r + 1.3


def test_jump_estimate_and_radau_superconvergence_on_heat2d():
    # the paper's a posteriori claims on a PDE (heat2d, P = 10, r = 3, Radau
    # moments), over the intervals I_n with t_n >= T/4.  Stated tolerances:
    # - effectivity, the jump at t_{n-1} over the 50-sample max error on I_n,
    #   within [0.95, 1.05] for every N, and its largest distance from 1 at
    #   least halving from N = 16 to N = 64 (it tends to 1 as k -> 0);
    # - the max error at the r right Radau points falls at rate r + 1: each
    #   rate over N = 16 -> 128 within [r + 0.7, r + 1.7], the last one
    #   (64 -> 128) within 0.2 of r + 1, well clear of the plain rate r.
    r = 3
    problem = heat2d_problem(Heat2dConfig(Px=10, Py=10))
    T = problem.T
    reference = Heat2dReference(problem, T / 8, T)

    def max_errors(sol, ns, taus):
        """Max error norm on each interval of ns at the reference coordinates taus."""
        vals = legendre_table(r - 1, taus) @ sol.coefficients(slice(ns[0] - 1, ns[-1]))
        errs = vals - reference(sol.mesh.to_physical(ns, taus))
        return np.sqrt(sol.norm_weight) * np.linalg.norm(errs, axis=-1).max(axis=1)

    distance, radau_error = {}, {}
    for N in (16, 32, 64, 128):
        sol = dg_solve(problem, uniform_mesh(T, N), r, moment_quadrature="radau")
        ns = np.flatnonzero(sol.mesh.nodes[1:] >= T / 4) + 1
        jumps = np.array([jump_indicator(sol, n) for n in ns])
        effectivity = jumps / max_errors(sol, ns, np.linspace(-1.0, 1.0, 50))
        assert np.all((0.95 <= effectivity) & (effectivity <= 1.05)), (N, effectivity)
        distance[N] = np.max(np.abs(effectivity - 1.0))
        radau_error[N] = np.max(max_errors(sol, ns, radau_rule(r)[0]))
    assert distance[64] <= 0.5 * distance[16]
    rates = [np.log2(radau_error[N] / radau_error[2 * N]) for N in (16, 32, 64)]
    assert all(r + 0.7 <= rate <= r + 1.7 for rate in rates), rates
    assert abs(rates[-1] - (r + 1)) <= 0.2, rates
