import numpy as np
import pytest

from dgtime.basis import gauss_rule, legendre_coeff, legendre_table, make_workspace
from dgtime.dg import Forcing, LinearProblem, dg_solve
from dgtime.mesh import uniform_mesh
from dgtime.models import ode_problem
from dgtime.reference import ode_exact
from dgtime.system import scalar_operator, tridiagonal_operator


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
        vals = sol.sample_interval(n, taus)[:, 0]
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
            np.testing.assert_allclose(sol.left_limit(n), u0, rtol=1e-13)
            np.testing.assert_allclose(sol.jump(n), 0.0, atol=1e-13)


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

    nodes, weights = gauss_rule(4)  # same rule size as the r=1 workspace default
    k = T / N
    dense = np.eye(n_dim) + k * A.matrix.toarray()
    u = u0.copy()
    for n in range(1, N + 1):
        t_quad = mesh.to_physical(n, nodes)
        integral = 0.5 * k * sum(w * f(t) for w, t in zip(weights, t_quad))
        u = np.linalg.solve(dense, u + integral)
        np.testing.assert_allclose(sol.left_limit(n), u, rtol=1e-12, atol=1e-13)


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
        np.testing.assert_allclose(sol.sample_interval(n, taus)[:, 0], u(ts),
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
        assert sol.eval(mesh.nodes[n])[0] == pytest.approx(sol.left_limit(n)[0], rel=1e-14)
    # midpoint value is sum of coefficients times P_j(0)
    p_at_zero = legendre_table(2, [0.0])[0]
    mid = 0.5 * (mesh.nodes[1] + mesh.nodes[2])
    assert sol.eval(mid)[0] == pytest.approx(p_at_zero @ sol.coeffs[1, :, 0], rel=1e-13)
    with pytest.raises(ValueError):
        sol.eval(0.0)
    with pytest.raises(ValueError):
        sol.eval(2.5)


def test_eval_matches_monomial_horner_oracle():
    sol = dg_solve(ode_problem(), uniform_mesh(2.0, 5), 4)
    taus = np.linspace(-1, 1, 21)
    for n in (1, 3, 5):
        mono = np.polynomial.legendre.leg2poly(sol.coeffs[n - 1, :, 0])
        expected = np.polynomial.polynomial.polyval(taus, mono)
        np.testing.assert_allclose(sol.sample_interval(n, taus)[:, 0], expected,
                                   rtol=1e-12, atol=1e-14)


def test_jump_first_interval_definition():
    problem = ode_problem()
    sol = dg_solve(problem, uniform_mesh(2.0, 4), 3)
    signs = (-1.0) ** np.arange(3)
    expected = signs @ sol.coeffs[0] - problem.u0
    np.testing.assert_allclose(sol.jump(1), expected, rtol=1e-14)
    with pytest.raises(ValueError):
        sol.jump(0)
    with pytest.raises(ValueError):
        sol.jump(5)


def test_jump_tracks_leading_coefficient_of_reference():
    # the jump approximates -2 (-1)^r a_{nr}(u) one order better than its size
    r = 4
    problem = ode_problem()
    ws = make_workspace(r)
    ratios = {}
    for N in (8, 16, 32):
        mesh = uniform_mesh(2.0, N)
        sol = dg_solve(problem, mesh, r)
        worst = 0.0
        jump_size = 0.0
        for n in range(1, N + 1):
            interval = (mesh.nodes[n - 1], mesh.nodes[n])
            anr = legendre_coeff(ode_exact, interval, r, ws.quad)
            jump = sol.jump(n)[0]
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
        fvals = np.stack([problem.f(t) for t in t_quad])
        rhs = rhs + 0.5 * k * table.T @ (ws.quad_weights[:, None] * fvals)
        resid = block @ sol.coeffs[n - 1].ravel() - rhs.ravel()
        assert np.linalg.norm(resid) <= 1e-10 * (1.0 + np.linalg.norm(rhs))
        prev = sol.left_limit(n)


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
            eu = max(eu, np.max(np.abs(sol.sample_interval(n, taus)[:, 0] - ode_exact(ts))))
            es = max(es, np.max(np.abs(recon.sample_interval(n, taus)[:, 0] - ode_exact(ts))))
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
        fvals = np.stack([problem.f(t) for t in t_quad])
        rhs = rhs + 0.5 * k * table.T @ (ws.quad_weights[:, None] * fvals)
        resid = block @ sol.coeffs[n - 1].ravel() - rhs.ravel()
        assert np.linalg.norm(resid) <= 1e-10 * (1.0 + np.linalg.norm(rhs))
        prev = sol.left_limit(n)


def test_nodal_superconvergence_rate():
    problem = ode_problem()
    errors = {}
    for N in (4, 8, 16):
        mesh = uniform_mesh(2.0, N)
        sol = dg_solve(problem, mesh, 4)
        errors[N] = max(abs(sol.left_limit(n)[0] - ode_exact(mesh.nodes[n]))
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
    from dgtime.mesh import TimeMesh

    problem = ode_problem()
    nodes = np.concatenate([np.linspace(0.0, 0.5, 6), np.linspace(0.7, 2.0, 8)])
    sol = dg_solve(problem, TimeMesh(nodes), 3)
    err = max(abs(sol.eval(t)[0] - ode_exact(t)) for t in np.linspace(0.05, 2.0, 40))
    assert err < 1e-3  # mixed step sizes, sanity bound only


def test_radau_moment_variant_matches_gauss_for_polynomial_forcing():
    # the two moment rules integrate low-degree forcings identically
    problem = LinearProblem(A=scalar_operator(1.0),
                            u0=np.array([0.5]), T=1.0,
                            forcing=Forcing(lambda t: 1.0 + 2.0 * t, np.ones(1)))
    mesh = uniform_mesh(1.0, 3)
    a = dg_solve(problem, mesh, 3)
    b = dg_solve(problem, mesh, 3, moment_quadrature="radau")
    np.testing.assert_allclose(a.coeffs, b.coeffs, atol=1e-13)
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
    nodes, weights = ws.quad
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
    coeffs = dg_solve(problem, mesh, r).coeffs[:, :, 0]
    err = np.linalg.norm(coeffs - exact) / np.linalg.norm(exact)
    assert err <= 5e-15
