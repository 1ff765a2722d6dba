import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dgtime.basis import g_matrix, h_diag, make_workspace
from dgtime.models import Heat1dConfig, Heat2dConfig, heat1d_problem, heat2d_problem
from dgtime.system import (
    MAX_DEGREE,
    SINE_FFT_LENGTH,
    _sine_matrix,
    _sine_transform,
    diagonal_operator,
    factorize_step_matrix,
    kronecker_sum_operator,
    scalar_operator,
    shifted_lu,
    solve_step,
    sparse_operator,
    tridiagonal_operator,
)

from dg_helpers import block_matrix


def spd_tridiagonal_bands(n, rng):
    off = -rng.uniform(0.5, 1.5, n - 1)
    diag = rng.uniform(0.5, 1.0, n) + 2.0 * np.abs(np.concatenate([[0], off]) )
    diag += np.abs(np.concatenate([off, [0]]))
    return off, diag, off


def random_spd_tridiagonal(n, seed=0):
    return tridiagonal_operator(*spd_tridiagonal_bands(n, np.random.default_rng(seed)))


def random_kronecker_sum(nx, ny, seed=0):
    rng = np.random.default_rng(seed)
    return kronecker_sum_operator(spd_tridiagonal_bands(nx, rng), spd_tridiagonal_bands(ny, rng))


def test_zero_operator_identity_solve():
    ws = make_workspace(1)
    fac = factorize_step_matrix(scalar_operator(0.0), ws, 0.7)
    rhs = np.array([[2.5]])
    np.testing.assert_allclose(solve_step(fac, rhs), rhs, rtol=1e-15)


def test_scalar_backward_euler_like():
    # r=1: (1 + k lambda) x = 1 with lambda=2, k=0.5 gives x = 0.5
    ws = make_workspace(1)
    fac = factorize_step_matrix(scalar_operator(2.0), ws, 0.5)
    out = solve_step(fac, np.array([[1.0]]))
    assert out[0, 0] == pytest.approx(0.5, rel=1e-14)


def test_scalar_r2_against_dense_inverse():
    # block matrix [[1+k, 1], [-1, 1 + k/3]] for lambda = 1, k = 1
    ws = make_workspace(2)
    fac = factorize_step_matrix(scalar_operator(1.0), ws, 1.0)
    dense = np.array([[2.0, 1.0], [-1.0, 1.0 + 1.0 / 3.0]])
    rng = np.random.default_rng(5)
    b = rng.standard_normal(2)
    expected = np.linalg.solve(dense, b)
    out = solve_step(fac, b.reshape(2, 1))
    np.testing.assert_allclose(out[:, 0], expected, rtol=1e-13)


def test_zero_rhs_gives_zero():
    ws = make_workspace(3)
    fac = factorize_step_matrix(random_spd_tridiagonal(6), ws, 0.2)
    out = solve_step(fac, np.zeros((3, 6)))
    assert np.all(out == 0.0)


@pytest.mark.parametrize("op_factory,dim", [
    (lambda: scalar_operator(1.3), 1),
    (lambda: random_spd_tridiagonal(9, seed=1), 9),
    (lambda: sparse_operator(sp.diags([[2.0] * 12, [-0.7] * 11, [-0.7] * 11],
                                      [0, 1, -1]).tocsr() +
                             sp.random(12, 12, density=0.05, random_state=2).T @
                             sp.random(12, 12, density=0.05, random_state=2)), 12),
])
def test_multiply_then_solve_roundtrip(op_factory, dim):
    A = op_factory()
    r = 3
    ws = make_workspace(r)
    fac = factorize_step_matrix(A, ws, 0.15)
    rng = np.random.default_rng(9)
    x = rng.standard_normal(r * dim)
    b = block_matrix(A, ws, 0.15) @ x
    out = solve_step(fac, b.reshape(r, dim)).ravel()
    np.testing.assert_allclose(out, x, rtol=1e-11, atol=1e-12)


def test_solve_residual_bound():
    A = random_spd_tridiagonal(20, seed=4)
    ws = make_workspace(4)
    fac = factorize_step_matrix(A, ws, 0.05)
    rng = np.random.default_rng(12)
    b = rng.standard_normal(4 * 20)
    x = solve_step(fac, b.reshape(4, 20)).ravel()
    resid = np.linalg.norm(block_matrix(A, ws, 0.05) @ x - b)
    assert resid <= 1e-10 * (1.0 + np.linalg.norm(b))


def test_repeated_solves_bit_identical():
    A = random_spd_tridiagonal(11, seed=6)
    ws = make_workspace(2)
    fac = factorize_step_matrix(A, ws, 0.3)
    rng = np.random.default_rng(1)
    b = rng.standard_normal((2, 11))
    first = solve_step(fac, b)
    second = solve_step(fac, b)
    assert np.array_equal(first, second)


def test_first_ode_step_against_dense_assembly():
    # scalar ODE u' + u/2 = cos(pi t), first step with r=4, N=4 on (0, 2]
    r, lam, k, u0 = 4, 0.5, 0.5, 1.0
    ws = make_workspace(r)
    fac = factorize_step_matrix(scalar_operator(lam), ws, k)

    signs = (-1.0) ** np.arange(r)
    nodes, weights = ws.quad_nodes, ws.quad_weights
    t = 0.5 * k * (nodes + 1.0)
    moments = np.array([
        0.5 * k * np.sum(weights * np.cos(np.pi * t) *
                         np.array([np.polynomial.legendre.Legendre.basis(i)(x) for x in nodes]))
        for i in range(r)
    ])
    rhs = signs * u0 + moments

    dense = ws.G + k * lam * np.diag(ws.H)
    expected = np.linalg.solve(dense, rhs)
    out = solve_step(fac, rhs.reshape(r, 1))[:, 0]
    np.testing.assert_allclose(out, expected, rtol=1e-13)


def test_operator_probes():
    A = random_spd_tridiagonal(15, seed=8)
    rng = np.random.default_rng(13)
    u, v = rng.standard_normal(15), rng.standard_normal(15)
    a, b = 0.7, -1.4
    lin = A.apply(a * u + b * v) - a * A.apply(u) - b * A.apply(v)
    assert np.linalg.norm(lin) <= 1e-12 * (np.linalg.norm(u) + np.linalg.norm(v))
    for _ in range(5):
        w = rng.standard_normal(15)
        assert w @ A.apply(w) > 0.0
    sym = A.apply(u) @ v - u @ A.apply(v)
    assert abs(sym) <= 1e-12


@pytest.mark.parametrize("A", [scalar_operator(1.5), diagonal_operator([0.5, 2.0, 7.0]),
                               random_spd_tridiagonal(5, seed=2)])
def test_step_solve_takes_and_returns_stacked_coefficients(A):
    r = 3
    fac = factorize_step_matrix(A, make_workspace(r), 0.3)
    rhs = np.random.default_rng(4).standard_normal((r, A.dim))
    out = fac.solve(rhs)
    assert out.shape == (r, A.dim)
    assert np.array_equal(solve_step(fac, rhs), out)
    # a flat rhs of length r M is not taken as its stack
    for solve in (fac.solve, lambda b: solve_step(fac, b)):
        with pytest.raises(ValueError, match="incompatible"):
            solve(rhs.ravel())


def test_dimension_mismatch_rejected():
    ws = make_workspace(2)
    fac = factorize_step_matrix(scalar_operator(1.0), ws, 0.1)
    with pytest.raises(ValueError):
        solve_step(fac, np.zeros(3))
    with pytest.raises(ValueError):
        factorize_step_matrix(scalar_operator(1.0), ws, 0.0)


def test_singular_step_system_rejected_dense():
    # r=1, M=1: the step matrix is 1 + k a, singular for a = -1/k
    ws = make_workspace(1)
    with pytest.raises(ValueError, match=r"singular step system for k=0\.5, r=1"):
        factorize_step_matrix(scalar_operator(-2.0), ws, 0.5)


def test_singular_step_system_rejected_shifted():
    # r=1, M=3: the only shifted system is I + k A = 0 for A = -I/k
    ws = make_workspace(1)
    A = sparse_operator(-2.0 * sp.identity(3))
    with pytest.raises(ValueError, match=r"singular step system for k=0\.5, r=1"):
        factorize_step_matrix(A, ws, 0.5)
    with pytest.raises(ValueError, match=r"singular step system for k=0\.5, r=1"):
        factorize_step_matrix(diagonal_operator([1.0, -2.0, 3.0]), ws, 0.5)


def test_degree_beyond_tested_range_rejected():
    for A in (scalar_operator(1.0), random_spd_tridiagonal(5)):
        with pytest.raises(ValueError, match=r"r=13 is outside the supported range 1\.\.12"):
            factorize_step_matrix(A, make_workspace(13), 0.1)


def test_shifted_lu_rejects_singular_shift():
    A = sparse_operator(sp.diags([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="singular"):
        shifted_lu(A, -2.0)
    lu = shifted_lu(A, 1.0 + 2.0j, 0.5)
    x = lu.solve(np.ones(3, dtype=complex))
    np.testing.assert_allclose((1.0 + 2.0j + 0.5 * np.array([1.0, 2.0, 3.0])) * x, 1.0,
                               rtol=1e-15)
    # a Kronecker sum with diagonal factors has the eigenvalues mux_j + muy_i exactly
    K = kronecker_sum_operator((np.zeros(2), [1.0, 2.0, 3.0], np.zeros(2)),
                               (np.zeros(1), [0.5, 4.0], np.zeros(1)))
    with pytest.raises(ValueError, match="singular"):
        shifted_lu(K, -2.5)
    lu = shifted_lu(K, 1.0 + 2.0j, 0.5)
    x = lu.solve(np.ones(6, dtype=complex))
    np.testing.assert_allclose((1.0 + 2.0j + 0.5 * K.matrix.diagonal()) * x, 1.0, rtol=1e-15)
    K = random_kronecker_sum(7, 5, seed=3)
    b = np.random.default_rng(4).standard_normal(K.dim) * (1.0 - 0.5j)
    x = shifted_lu(K, 0.3 - 4.0j, 0.8).solve(b)
    resid = (0.3 - 4.0j) * x + 0.8 * (K.matrix @ x) - b
    assert np.linalg.norm(resid) <= 1e-14 * np.linalg.norm(b)
    # a diagonal operator is solved by division
    D = diagonal_operator([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="singular"):
        shifted_lu(D, -2.0)
    x = shifted_lu(D, 1.0 + 2.0j, 0.5).solve(np.ones(3, dtype=complex))
    assert np.array_equal(x, 1.0 / (1.0 + 2.0j + 0.5 * np.array([1.0, 2.0, 3.0])))


def test_shifted_lu_stack_matches_single_shifts():
    rng = np.random.default_rng(5)
    shifts = np.array([0.7, 1.0 + 2.0j, 0.3 - 4.0j])
    D = diagonal_operator(rng.uniform(0.1, 10.0, 20))
    B = rng.standard_normal((3, 20)) + 1j * rng.standard_normal((3, 20))
    X = shifted_lu(D, shifts, 0.8).solve(B)
    for shift, b, x in zip(shifts, B, X):
        assert np.array_equal(x, shifted_lu(D, shift, 0.8).solve(b))
    C = sp.random(20, 20, density=0.15, random_state=6)
    S = sparse_operator(C @ C.T + sp.identity(20))
    X = shifted_lu(S, shifts, 0.8).solve(B)
    assert X.shape == B.shape
    for shift, b, x in zip(shifts, B, X):
        single = shifted_lu(S, shift, 0.8).solve(b)
        assert np.linalg.norm(x - single) <= 1e-14 * np.linalg.norm(single)
    # one singular system in the stack fails the whole solver
    for A, bad in ((D, -D.diagonal[3]), (sparse_operator(sp.diags([1.0, 2.0, 3.0])), -2.0)):
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            shifted_lu(A, np.array([1.0, bad, 2.0j]))


def test_kronecker_sum_rejects_asymmetric_factor():
    sym = (np.full(3, -1.0), np.full(4, 2.0), np.full(3, -1.0))
    with pytest.raises(ValueError, match="y factor is not symmetric"):
        kronecker_sum_operator(sym, (np.full(2, -1.0), np.full(3, 2.0), np.full(2, -0.9)))


def test_kronecker_sum_rejects_indefinite_operator():
    # eigenvalues of tridiag(-1, 1, -1) of size 3 are 1 - sqrt(2), 1, 1 + sqrt(2)
    tx = (np.full(2, -1.0), np.full(3, 1.0), np.full(2, -1.0))
    ty = (np.full(1, -0.1), np.full(2, 0.3), np.full(1, -0.1))
    with pytest.raises(ValueError, match="not positive definite"):
        kronecker_sum_operator(tx, ty)


@pytest.mark.parametrize("r", range(1, MAX_DEGREE + 1))
def test_forward_error_against_extended_precision(r):
    # stiff heat steps (1D P=1000 and 2D P=50, k = T/128, both by sparse LU;
    # and the diagonal operators of the 2D P=50 and P=100 eigenvalues, which
    # dg_solve steps for the 2D problems): refine with residuals computed in
    # long double until the solution is exact to working precision, then
    # compare the plain double solve against it
    heat2d = [heat2d_problem(Heat2dConfig(Px=p, Py=p)) for p in (50, 100)]
    operators = [heat1d_problem(Heat1dConfig(P=1000)).A, heat2d[0].A]
    operators += [diagonal_operator(problem.A.eigenbasis.eigenvalues) for problem in heat2d]
    for A in operators:
        k = 2.0 / 128
        fac = factorize_step_matrix(A, make_workspace(r), k)
        rng = np.random.default_rng(r)
        b = rng.standard_normal((r, A.dim))
        x = solve_step(fac, b)

        G = g_matrix(r).astype(np.longdouble)
        H = h_diag(r).astype(np.longdouble)
        A_ld = A.matrix.astype(np.longdouble)
        exact = x.astype(np.longdouble)
        for _ in range(4):
            resid = b - (G @ exact + np.longdouble(k) * H[:, None] * (A_ld @ exact.T).T)
            exact = exact + solve_step(fac, resid.astype(float))
        err = np.linalg.norm((x - exact).ravel()) / np.linalg.norm(exact.ravel())
        assert float(err) <= 5e-15, A


def _random_spd(dim, seed):
    rng = np.random.default_rng(seed)
    B = sp.random(dim, dim, density=min(1.0, 3.0 / dim), random_state=rng)
    return sparse_operator(B @ B.T + sp.diags(rng.uniform(0.1, 2.0, dim)))


def _random_diagonal(dim, seed):
    return diagonal_operator(np.exp(np.random.default_rng(seed).uniform(-3.0, 8.0, dim)))


# random sparse SPD operators (splu), Kronecker sums of random SPD
# tridiagonal factors (non-constant bands: sparse LU as well) and diagonal
# operators (division)
spd_operators = st.one_of(
    st.builds(_random_spd, st.integers(2, 30), st.integers(0, 2**32 - 1)),
    st.builds(random_kronecker_sum, st.integers(2, 8), st.integers(2, 8),
              st.integers(0, 2**32 - 1)),
    st.builds(_random_diagonal, st.integers(2, 30), st.integers(0, 2**32 - 1)),
)


@settings(max_examples=120, deadline=None)
@given(A=spd_operators, r=st.integers(1, MAX_DEGREE),
       k=st.floats(1e-4, 1.0), seed=st.integers(0, 2**32 - 1))
def test_shifted_solve_matches_dense_block_solve(A, r, k, seed):
    dim = A.dim
    ws = make_workspace(r)
    fac = factorize_step_matrix(A, ws, k)
    dense = block_matrix(A, ws, k)
    b = np.random.default_rng(seed + 1).standard_normal(r * dim)
    expected = np.linalg.solve(dense, b)
    out = solve_step(fac, b.reshape(r, dim)).ravel()
    assert np.linalg.norm(out - expected) <= 1e-12 * np.linalg.norm(expected)


def _constant_factor(n, a, d):
    return np.full(n - 1, a), np.full(n, d), np.full(n - 1, a)


@pytest.mark.parametrize("n,a,d", [(40, -506.6, 1013.2), (40, 506.6, 1013.2), (5, 0.3, 1.7),
                                   (1, 0.0, 2.5)])
def test_sine_eigenvalues_match_mpmath(n, a, d):
    # a stiff factor's smallest eigenvalues are ~1e-3 of its norm: a numerical
    # eigensolver (eigh_tridiagonal) loses them to ~1.7e-14 relative, the
    # closed form keeps every one to a few ulps
    import mpmath

    K = kronecker_sum_operator(_constant_factor(n, a, d), _constant_factor(1, 0.0, 0.0))
    mux = np.sort(K.eigenbasis.axis_eigenvalues[-1])
    with mpmath.workdps(30):
        T = mpmath.matrix(n, n)
        for i in range(n):
            T[i, i] = d
            if i:
                T[i, i - 1] = T[i - 1, i] = a
        exact = sorted(mpmath.eigsy(T, eigvals_only=True))
        rel = max(abs((mpmath.mpf(float(m)) - e) / e) for m, e in zip(mux, exact))
    assert rel <= 1e-15


def test_sine_eigenvectors_orthonormal_and_diagonalising():
    K = kronecker_sum_operator(_constant_factor(99, -1.0, 2.0), _constant_factor(7, 0.4, 1.5))
    basis = K.eigenbasis
    assert basis.shape == (7, 99)
    for q in (_sine_matrix(n) for n in basis.shape):
        assert np.array_equal(q, q.T)
        assert np.linalg.norm(q.T @ q - np.eye(q.shape[0]), 2) <= 4e-15
    v = np.random.default_rng(7).standard_normal((2, K.dim))
    np.testing.assert_allclose(basis.transform(basis.transform(v)), v, atol=1e-14)
    modal = basis.transform(K.matrix @ basis.transform(v[0]))
    np.testing.assert_allclose(modal, basis.eigenvalues * v[0], atol=1e-13)
    assert np.array_equal(basis.operator.diagonal, basis.eigenvalues)


def test_non_constant_factor_has_no_eigenbasis():
    assert random_kronecker_sum(5, 4).eigenbasis is None
    rng = np.random.default_rng(2)
    mixed = kronecker_sum_operator(_constant_factor(4, -1.0, 2.0), spd_tridiagonal_bands(3, rng))
    assert mixed.eigenbasis is None
    assert kronecker_sum_operator(_constant_factor(4, -1.0, 2.0),
                                  _constant_factor(3, -1.0, 2.0)).eigenbasis is not None


def test_tridiagonal_operator_rejects_bad_bands():
    with pytest.raises(ValueError, match="band lengths"):
        tridiagonal_operator(np.ones(2), np.ones(2), np.ones(1))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            tridiagonal_operator([bad, -1.0], [2.0, 2.0, 2.0], [bad, -1.0])
        with pytest.raises(ValueError, match="non-finite"):
            tridiagonal_operator([-1.0, -1.0], [2.0, bad, 2.0], [-1.0, -1.0])
    with pytest.raises(ValueError, match="not symmetric"):
        tridiagonal_operator([-1.0, -1.0], [2.0, 2.0, 2.0], [-1.0, -0.9])
    # constant bands (closed form): tridiag(-1, 1, -1) of size 3 has 1 - sqrt(2)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        tridiagonal_operator([-1.0, -1.0], [1.0, 1.0, 1.0], [-1.0, -1.0])
    # non-constant bands (eigensolver): the quadratic form at (1, 1, 1) is -2
    with pytest.raises(ValueError, match="negative eigenvalue"):
        tridiagonal_operator([-1.0, -1.0], [0.5, 1.0, 0.5], [-1.0, -1.0])


def test_sparse_operator_rejects_bad_matrices():
    with pytest.raises(ValueError, match="square"):
        sparse_operator(sp.random(3, 4, density=0.5, random_state=1))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            sparse_operator(sp.diags([1.0, bad, 3.0]))
    with pytest.raises(ValueError, match="not symmetric"):
        sparse_operator(sp.diags([[2.0] * 3, [-1.0] * 2, [-0.9] * 2], [0, 1, -1]))
    with pytest.raises(ValueError, match="non-finite"):
        diagonal_operator([1.0, np.nan])
    # definiteness is left to the factorization (see the singular-step tests)
    assert sparse_operator(-2.0 * sp.identity(3)).dim == 3


def test_tridiagonal_operator_accepts_semidefinite_bands():
    # zero operators and a path-graph Laplacian (smallest eigenvalue 0,
    # which the eigensolver returns as about -5e-16 at n = 4)
    for n in (1, 3):
        assert tridiagonal_operator(np.zeros(n - 1), np.zeros(n), np.zeros(n - 1)).dim == n
    for n in (3, 4, 50):
        diag = np.full(n, 7.4)
        diag[[0, -1]] = 3.7
        A = tridiagonal_operator(np.full(n - 1, -3.7), diag, np.full(n - 1, -3.7))
        assert A.eigenbasis is None


def test_constant_band_tridiagonal_has_sine_eigenbasis():
    n, a, d = 30, -2.0, 4.5
    A = tridiagonal_operator(np.full(n - 1, a), np.full(n, d), np.full(n - 1, a))
    basis = A.eigenbasis
    assert basis.shape == (n,) and basis.operator.dim == n
    v = np.random.default_rng(3).standard_normal((2, n))
    modal = basis.transform(A.matrix @ basis.transform(v[0]))
    np.testing.assert_allclose(modal, basis.eigenvalues * v[0], atol=1e-13)
    assert tridiagonal_operator(np.full(n - 1, a), np.linspace(5.0, 6.0, n),
                                np.full(n - 1, a)).eigenbasis is None


@pytest.mark.parametrize("n", [1, 2, SINE_FFT_LENGTH - 1, SINE_FFT_LENGTH, 999])
def test_sine_transform_matches_dense_matrix(n):
    # below SINE_FFT_LENGTH the transform is the cached matrix; from it on,
    # an rfft; both must agree with the matrix and be their own inverse
    rng = np.random.default_rng(n)
    q = _sine_matrix(n)
    for shape, axis in (((6, n), -1), ((2, n, 3), -2)):
        v = rng.standard_normal(shape)
        exact = v @ q if axis == -1 else q @ v
        out = _sine_transform(v, axis)
        assert out.shape == v.shape
        assert np.linalg.norm(out - exact) <= 2e-15 * np.linalg.norm(exact)
        back = _sine_transform(out, axis)
        assert np.linalg.norm(back - v) <= 2e-15 * np.linalg.norm(v)


def test_rfft_sine_transform_holds_no_complex_array():
    # the result owns real memory: an .imag view would keep the twice as
    # large complex rfft output alive for as long as the result is held
    rng = np.random.default_rng(4)
    for shape, axis in (((3, SINE_FFT_LENGTH), -1), ((2, SINE_FFT_LENGTH, 3), -2)):
        link = _sine_transform(rng.standard_normal(shape), axis)
        while link is not None:
            assert not np.iscomplexobj(link)
            link = link.base


@pytest.mark.parametrize("rows", [1, 15, 16, 17, 63])
@pytest.mark.parametrize("n", [SINE_FFT_LENGTH, 999])
def test_rfft_sine_transform_groups_keep_each_rows_bits(n, rows):
    # the rfft branch transforms its rows in groups: on either axis, with or
    # without leading axes, every row reads the bits of its transform alone
    v = np.random.default_rng(rows).standard_normal((rows, n))
    alone = np.stack([_sine_transform(v[i:i + 1], -1)[0] for i in range(rows)])
    assert np.array_equal(_sine_transform(v, -1), alone)
    assert np.array_equal(_sine_transform(v.T, -2), alone.T)
    assert np.array_equal(_sine_transform(np.stack([v.T, v.T[:, ::-1]]), -2),
                          np.stack([alone.T, alone.T[:, ::-1]]))


def test_rfft_sine_transform_temporaries_do_not_grow_with_the_rows():
    # a (63, 999) block: the 0.48 MiB result plus one 16-row group's padding,
    # its complex rfft and its scaled imaginary part (0.6 MiB) came to 1.15
    # MiB; padding all 63 rows at once took 2.47 MiB
    rng = np.random.default_rng(6)
    for shape, axis in (((63, 999), -1), ((999, 63), -2)):
        v = rng.standard_normal(shape)
        _sine_transform(v, axis)  # the FFT plan is cached outside the trace
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            _sine_transform(v, axis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 1.5 * 2 ** 20, axis


def test_block_solve_keeps_no_complex_product_through_refinement():
    # the first pass's U is a real copy: as the .real view of the complex
    # (r, M) product it kept twice its size alive through the second pass
    r, dim = 5, 9801
    fac = factorize_step_matrix(diagonal_operator(np.linspace(1.0, 100.0, dim)),
                                make_workspace(r), 0.1)
    rhs = np.random.default_rng(0).standard_normal((r, dim))
    fac.solve(rhs)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        U = fac.solve(rhs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert U.flags.c_contiguous
    assert peak - before < 5.5 * U.nbytes  # 6.2 with the view
