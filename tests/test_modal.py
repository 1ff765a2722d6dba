"""The eigenbasis path: dg_solve and Heat2dReference on constant-band operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgtime.basis import g_matrix, h_diag, legendre_table, make_workspace
from dgtime.dg import Forcing, LinearProblem, dg_solve
from dgtime.mesh import TimeMesh, uniform_mesh
from dgtime.models import Heat1dConfig, Heat2dConfig, heat1d_problem, heat2d_problem
from dgtime.reference import Heat2dReference
from dgtime.system import (
    MAX_DEGREE,
    SINE_FFT_LENGTH,
    kronecker_sum_operator,
    sparse_operator,
    tridiagonal_operator,
)

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


def _long_double_modal_solve(problem, factors, N, r):
    """DG coefficients on a uniform mesh by a long-double modal recurrence.

    factors lists the (n, a, d) of the operator's constant-band factors
    tridiag(a, d, a), slowest axis first: one for heat1d, (y, x) for heat2d.
    Same operator bands and same (double) forcing moments as dg_solve; the
    eigenpairs, the per-mode r x r solves and both transforms are long double.
    """
    pairs = [_sine_pairs_ld(n, a, d) for n, a, d in factors]
    shape = tuple(n for n, _, _ in factors)
    mu = pairs[0][0]
    for axis_mu, _ in pairs[1:]:
        mu = (mu[:, None] + axis_mu[None, :]).ravel()

    def transform(v):
        grids = v.astype(LD).reshape((-1,) + shape)
        grids = grids @ pairs[-1][1]
        if len(pairs) == 2:
            grids = pairs[0][1] @ grids
        return grids.reshape(v.shape)

    mesh = uniform_mesh(problem.T, N)
    k = problem.T / N
    ws = make_workspace(r)
    nodes, weights = ws.quad_nodes, ws.quad_weights
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
    return mesh, transform(coeffs)


def _check_against_long_double(problem, factors, N, r):
    assert problem.A.eigenbasis is not None
    mesh, exact = _long_double_modal_solve(problem, factors, N, r)
    coeffs = dg_solve(problem, mesh, r).coefficients(slice(None))
    err = np.linalg.norm((coeffs - exact).ravel()) / np.linalg.norm(exact.ravel())
    assert float(err) <= 5e-15


@pytest.mark.parametrize("p,r,N", [(50, 3, 32), (100, 5, 8)])
def test_dg_solve_against_long_double_modal_recurrence(p, r, N):
    cfg = Heat2dConfig(Px=p, Py=p)
    cx, cy = cfg.kappa / cfg.hx**2, cfg.kappa / cfg.hy**2
    factors = [(cfg.Py - 1, -cy, 2.0 * cy), (cfg.Px - 1, -cx, 2.0 * cx)]
    _check_against_long_double(heat2d_problem(cfg), factors, N, r)


@pytest.mark.parametrize("p", [500, 1000])
def test_heat1d_dg_solve_against_long_double_modal_recurrence(p):
    cfg = Heat1dConfig(P=p)
    # n = 499 and 999 are long axes: their sine transforms take the rfft path
    assert cfg.P - 1 >= SINE_FFT_LENGTH
    c = cfg.kappa / cfg.h**2
    _check_against_long_double(heat1d_problem(cfg), [(cfg.P - 1, -c, 2.0 * c)], 16, 3)


def test_single_point_grid_steps_in_its_eigenbasis():
    # P = 2: both factors have size 1, the state is a scalar
    problem = heat2d_problem(Heat2dConfig(Px=2, Py=2))
    assert problem.A.dim == 1 and problem.A.eigenbasis is not None
    plain = LinearProblem(sparse_operator(problem.A.matrix), problem.u0, problem.T,
                          forcing=problem.forcing)
    mesh = uniform_mesh(problem.T, 8)
    np.testing.assert_allclose(dg_solve(problem, mesh, 3).coefficients(slice(None)),
                               dg_solve(plain, mesh, 3).coefficients(slice(None)), rtol=1e-14)


@st.composite
def constant_band_problems(draw):
    """A constant-band tridiagonal operator or Kronecker sum, with u0 and forcing.

    The operator is scaled to smallest eigenvalue 1, as the heat models are.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    factors = []
    if draw(st.booleans()):
        # short axes multiply by the sine matrix, long ones take the rfft
        sizes = (draw(st.one_of(st.integers(1, 40),
                                st.integers(SINE_FFT_LENGTH, SINE_FFT_LENGTH + 40))),)
    else:
        sizes = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    for n in sizes:
        a = rng.uniform(0.05, 50.0) * rng.choice([-1.0, 1.0])
        d = 2.0 * abs(a) + rng.uniform(0.0, 1.0)
        factors.append((n, a, d))
    smallest = sum(d - 2.0 * abs(a) * np.cos(np.pi / (n + 1)) for n, a, d in factors)
    bands = [(np.full(n - 1, a / smallest), np.full(n, d / smallest), np.full(n - 1, a / smallest))
             for n, a, d in factors]
    A = tridiagonal_operator(*bands[0]) if len(bands) == 1 else kronecker_sum_operator(*bands)
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
    modal, direct = (dg_solve(p, mesh, r).coefficients(slice(None)) for p in (problem, plain))
    assert np.linalg.norm(modal - direct) <= 1e-12 * np.linalg.norm(direct)

    ts = np.linspace(problem.T / 4, problem.T, 5)
    modal = Heat2dReference(problem, problem.T / 4, problem.T).eval_many(ts)
    direct = Heat2dReference(plain, problem.T / 4, problem.T).eval_many(ts)
    assert np.linalg.norm(modal - direct) <= 1e-12 * np.linalg.norm(direct)
