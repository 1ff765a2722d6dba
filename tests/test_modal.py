"""The eigenbasis path: dg_solve and Heat2dReference on constant-band Kronecker sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgtime.basis import g_matrix, h_diag, legendre_table, make_workspace
from dgtime.dg import Forcing, LinearProblem, dg_solve
from dgtime.mesh import TimeMesh, uniform_mesh
from dgtime.models import Heat2dConfig, heat2d_problem
from dgtime.reference import Heat2dReference
from dgtime.system import MAX_DEGREE, kronecker_sum_operator, sparse_operator

LD = np.longdouble


def _sine_pairs_ld(n, a, d):
    """Closed-form eigenpairs of tridiag(a, d, a) in long double."""
    pi = 4 * np.arctan(LD(1))
    j = np.arange(1, n + 1)
    mu = (LD(d) + 2 * LD(a)) - 4 * LD(a) * np.sin(pi * j.astype(LD) / (2 * (n + 1))) ** 2
    q = np.sqrt(LD(2) / (n + 1)) * np.sin(pi * (np.outer(j, j) % (2 * (n + 1))).astype(LD)
                                          / (n + 1))
    return mu, q


def _batched_solve(A, B):
    """Solve A[m] X[m] = B[m] for every m by Gaussian elimination with partial pivoting."""
    A, B = A.copy(), B.copy()
    rows = np.arange(A.shape[0])
    r = A.shape[1]
    for j in range(r):
        p = j + np.argmax(np.abs(A[:, j:, j]), axis=1)
        A[rows, j], A[rows, p] = A[rows, p], A[rows, j]
        B[rows, j], B[rows, p] = B[rows, p], B[rows, j]
        f = A[:, j + 1:, j] / A[:, j, j][:, None]
        A[:, j + 1:] -= f[:, :, None] * A[:, None, j]
        B[:, j + 1:] -= f[:, :, None] * B[:, None, j]
    X = np.empty_like(B)
    for j in reversed(range(r)):
        tail = (A[:, j, j + 1:, None] * X[:, j + 1:]).sum(axis=1)
        X[:, j] = (B[:, j] - tail) / A[:, j, j][:, None]
    return X


def _long_double_modal_solve(cfg, N, r):
    """DG coefficients of heat2d on a uniform mesh by a long-double modal recurrence.

    Same operator bands and same (double) forcing moments as dg_solve; the
    eigenpairs, the per-mode r x r solves and both transforms are long double.
    """
    problem = heat2d_problem(cfg)
    nx, ny = cfg.Px - 1, cfg.Py - 1
    cx, cy = cfg.kappa / cfg.hx**2, cfg.kappa / cfg.hy**2
    mux, qx = _sine_pairs_ld(nx, -cx, 2.0 * cx)
    muy, qy = _sine_pairs_ld(ny, -cy, 2.0 * cy)
    mu = (muy[:, None] + mux[None, :]).ravel()

    def transform(v):
        grids = v.astype(LD).reshape(-1, ny, nx)
        return np.stack([qy @ g @ qx for g in grids]).reshape(v.shape)

    mesh = uniform_mesh(cfg.T, N)
    k = cfg.T / N
    ws = make_workspace(r)
    nodes, weights = ws.quad
    a, b = mesh.nodes[:-1, None], mesh.nodes[1:, None]
    t_quad = 0.5 * ((1.0 - nodes) * a + (1.0 + nodes) * b)
    phi = problem.forcing.phi(t_quad)
    moments = 0.5 * mesh.steps[:, None] * ((weights * phi) @ legendre_table(r - 1, nodes))

    G, H = g_matrix(r).astype(LD), h_diag(r).astype(LD)
    step = G[None] + LD(k) * mu[:, None, None] * np.diag(H)[None]
    inverse = _batched_solve(step, np.broadcast_to(np.eye(r, dtype=LD), step.shape))
    signs = (-1.0) ** np.arange(r)
    g_hat = transform(problem.forcing.profile)
    prev = transform(problem.u0)
    coeffs = np.empty((N, r, mu.size), dtype=LD)
    for n in range(N):
        rhs = signs[:, None] * prev[None, :] + moments[n].astype(LD)[:, None] * g_hat[None, :]
        coeffs[n] = np.einsum("mij,jm->im", inverse, rhs)
        prev = coeffs[n].sum(axis=0)
    return problem, mesh, transform(coeffs)


@pytest.mark.parametrize("p,r,N", [(50, 3, 32), (100, 5, 8)])
def test_dg_solve_against_long_double_modal_recurrence(p, r, N):
    problem, mesh, exact = _long_double_modal_solve(Heat2dConfig(Px=p, Py=p), N, r)
    assert problem.A.eigenbasis is not None
    coeffs = dg_solve(problem, mesh, r).coeffs
    err = np.linalg.norm((coeffs - exact).ravel()) / np.linalg.norm(exact.ravel())
    assert float(err) <= 5e-15


def test_single_point_grid_steps_in_its_eigenbasis():
    # P = 2: both factors have size 1, the state is a scalar
    problem = heat2d_problem(Heat2dConfig(Px=2, Py=2))
    assert problem.A.dim == 1 and problem.A.eigenbasis is not None
    plain = LinearProblem(sparse_operator(problem.A.matrix), problem.u0, problem.T,
                          forcing=problem.forcing)
    mesh = uniform_mesh(problem.T, 8)
    np.testing.assert_allclose(dg_solve(problem, mesh, 3).coeffs,
                               dg_solve(plain, mesh, 3).coeffs, rtol=1e-14)


@st.composite
def constant_band_problems(draw):
    """A constant-band Kronecker sum scaled to smallest eigenvalue 1, with u0 and forcing."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    factors = []
    for n in (draw(st.integers(1, 8)), draw(st.integers(1, 8))):
        a = rng.uniform(0.05, 50.0) * rng.choice([-1.0, 1.0])
        d = 2.0 * abs(a) + rng.uniform(0.0, 1.0)
        factors.append((n, a, d))
    smallest = sum(d - 2.0 * abs(a) * np.cos(np.pi / (n + 1)) for n, a, d in factors)
    bands = [(np.full(n - 1, a / smallest), np.full(n, d / smallest), np.full(n - 1, a / smallest))
             for n, a, d in factors]
    A = kronecker_sum_operator(*bands)
    forcing = None
    if draw(st.booleans()):
        forcing = Forcing(lambda t: (1.0 + t) * np.exp(-t), rng.standard_normal(A.dim),
                          lambda z: 1.0 / (z + 1.0) + 1.0 / (z + 1.0) ** 2)
    T = rng.uniform(0.5, 2.0)
    problem = LinearProblem(A, rng.standard_normal(A.dim), T, forcing=forcing)
    plain = LinearProblem(sparse_operator(A.matrix), problem.u0, T, forcing=forcing)
    steps = rng.uniform(0.2, 1.0, draw(st.integers(1, 8)))
    mesh = TimeMesh(np.concatenate([[0.0], T * np.cumsum(steps) / steps.sum()]))
    return problem, plain, mesh


@settings(max_examples=60, deadline=None)
@given(problems=constant_band_problems(), r=st.integers(1, MAX_DEGREE))
def test_eigenbasis_path_matches_sparse_lu_path(problems, r):
    problem, plain, mesh = problems
    assert problem.A.eigenbasis is not None and plain.A.eigenbasis is None
    modal, direct = dg_solve(problem, mesh, r).coeffs, dg_solve(plain, mesh, r).coeffs
    assert np.linalg.norm(modal - direct) <= 1e-12 * np.linalg.norm(direct)

    ts = np.linspace(problem.T / 4, problem.T, 5)
    modal = Heat2dReference(problem, problem.T / 4, problem.T).eval_many(ts)
    direct = Heat2dReference(plain, problem.T / 4, problem.T).eval_many(ts)
    assert np.linalg.norm(modal - direct) <= 1e-12 * np.linalg.norm(direct)
