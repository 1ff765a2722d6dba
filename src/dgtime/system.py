"""Linear operators and the per-step block solve.

Each time step requires the solution of an (r M) x (r M) linear system whose
(i, j) block is G[i, j] I + k H[j] A, i.e. kron(G, I) + k kron(diag(H), A)
acting on the r coefficient vectors stacked one after another.

For a state of dimension M > 1 the system is never assembled.  Scaling the
block rows by 1/H and diagonalising H^-1 G = V diag(lam) V^-1 (once per r)
decouples it into r shifted systems (lam_j I + k A) w_j = s_j of size M,
with S = V^-1 H^-1 R and U = V W.  The eigenvalues are one real value and
complex conjugate pairs; the conjugate partner of a pair solves the
conjugate system, so each step sets up ceil(r/2) shifted solvers.  One pass of
iterative refinement against the true block operator, applied matrix-free,
removes the error that cond(V) (about 6e5 at r = 12) adds to the
transformation.  Degrees 1 <= r <= MAX_DEGREE are supported; beyond it the
transformation loses accuracy and the factorization refuses to build.

A scalar state (M = 1) has nothing to decouple: its r x r block matrix is
assembled and factored densely.

`shifted_lu` is the one place that solves sigma I + c A, for the steps and
for the Laplace reference: by division for a diagonal operator, by sparse
LU for any other.  A Kronecker sum kron(I, Tx) + kron(Ty, I) of
constant-band tridiagonal factors (the 5-point Laplacian on a rectangle)
carries its closed-form DST-I eigenbasis (`SineEigenbasis`); the stepper
and the 2D reference transform into it once, work with the diagonal
operator of the eigenvalues, and transform back once (fast
diagonalisation, Lynch, Rice & Thomas 1964).
"""

from __future__ import annotations

import warnings
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgWarning, eigh_tridiagonal, lu_factor, lu_solve
from scipy.sparse.linalg import splu

from .basis import LegendreWorkspace, g_matrix, h_diag

__all__ = [
    "LinearOperator",
    "scalar_operator",
    "tridiagonal_operator",
    "sparse_operator",
    "kronecker_sum_operator",
    "diagonal_operator",
    "SineEigenbasis",
    "MAX_DEGREE",
    "shifted_lu",
    "BlockSystemFactorization",
    "factorize_step_matrix",
    "solve_step",
]

# largest r the shifted step solve is tested for
MAX_DEGREE = 12


class LinearOperator:
    """A (sparse) symmetric positive-definite operator with a known structure.

    diagonal holds the entries of a diagonal operator; eigenbasis is the
    `SineEigenbasis` of a Kronecker sum of constant-band factors.  Both are
    None for an operator without such structure.
    """

    def __init__(self, matrix: sp.spmatrix, eigenbasis=None, diagonal=None):
        matrix = sp.csr_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("operator matrix must be square")
        self.matrix = matrix
        self.dim = matrix.shape[0]
        self.eigenbasis = eigenbasis
        self.diagonal = diagonal

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v

    def __repr__(self):
        return f"LinearOperator(dim={self.dim})"


def scalar_operator(lam: float) -> LinearOperator:
    """The multiplication operator u -> lam * u on a one-dimensional state."""
    return LinearOperator(sp.csr_matrix(np.array([[float(lam)]])))


def diagonal_operator(values: np.ndarray) -> LinearOperator:
    """The operator diag(values); its shifted systems are solved by division."""
    values = np.asarray(values, dtype=float)
    return LinearOperator(sp.diags(values), diagonal=values)


def tridiagonal_operator(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray) -> LinearOperator:
    """Tridiagonal operator from its three bands (lower/upper of length n - 1)."""
    diag = np.asarray(diag, dtype=float)
    n = diag.size
    if len(lower) != n - 1 or len(upper) != n - 1:
        raise ValueError("band lengths incompatible with the diagonal")
    mat = sp.diags([lower, diag, upper], offsets=[-1, 0, 1], format="csr")
    return LinearOperator(mat)


def sparse_operator(matrix: sp.spmatrix) -> LinearOperator:
    return LinearOperator(matrix)


def _sine_eigenpairs(diag: np.ndarray, off: np.ndarray):
    """Closed-form eigenpairs of tridiag(a, d, a), or None for non-constant bands.

    mu_j = (d + 2a) - 4a sin^2(j pi / (2(n + 1))) keeps the small eigenvalues
    of a stiff factor to a few ulps, where a numerical eigensolver loses
    about eps ||T|| in each.  Q_ij = sqrt(2/(n + 1)) sin(pi i j / (n + 1)),
    with i j reduced modulo 2(n + 1) first, so Q stays orthogonal to roundoff.
    """
    n = diag.size
    a = off[0] if n > 1 else 0.0
    if np.any(diag != diag[0]) or np.any(off != a):
        return None
    j = np.arange(1, n + 1)
    mu = (diag[0] + 2.0 * a) - 4.0 * a * np.sin(np.pi * j / (2 * (n + 1))) ** 2
    q = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * (np.outer(j, j) % (2 * (n + 1))) / (n + 1))
    return mu, q


class SineEigenbasis:
    """Eigenbasis of kron(I_ny, Tx) + kron(Ty, I_nx): Tx = Qx diag(mux) Qx, same for y.

    The DST-I matrices Qx, Qy are symmetric and orthogonal, so `transform`
    is its own inverse.  operator is the sum in this basis: the diagonal
    operator of eigenvalues muy_i + mux_j, x index fastest.
    """

    def __init__(self, mux, qx, muy, qy):
        self.mux, self.qx, self.muy, self.qy = mux, qx, muy, qy
        self.eigenvalues = (muy[:, None] + mux[None, :]).ravel()
        self.operator = diagonal_operator(self.eigenvalues)

    def transform(self, v: np.ndarray) -> np.ndarray:
        """Q v = Q^T v for states stacked along the last axis (x index fastest)."""
        grids = np.reshape(v, (-1, self.muy.size, self.mux.size))
        return (self.qy @ (grids @ self.qx)).reshape(np.shape(v))


def kronecker_sum_operator(tx, ty) -> LinearOperator:
    """kron(I_ny, Tx) + kron(Ty, I_nx), x index fastest.

    tx and ty are the (lower, diag, upper) bands of symmetric tridiagonal
    factors of sizes nx and ny.  When both factors have constant bands the
    operator carries their closed-form `SineEigenbasis`.  Raises ValueError
    when a factor is not symmetric or the sum is not positive definite.
    """
    factors = []
    for name, (lower, diag, upper) in (("x", tx), ("y", ty)):
        mat = tridiagonal_operator(lower, diag, upper).matrix
        if not np.array_equal(lower, upper):
            raise ValueError(f"{name} factor is not symmetric: lower and upper bands differ")
        diag, upper = np.asarray(diag, dtype=float), np.asarray(upper, dtype=float)
        smallest = eigh_tridiagonal(diag, upper, eigvals_only=True, select="i",
                                    select_range=(0, 0))[0]
        factors.append((mat, smallest, _sine_eigenpairs(diag, upper)))
    (tx_mat, minx, pairs_x), (ty_mat, miny, pairs_y) = factors
    if minx + miny <= 0.0:
        raise ValueError(f"operator is not positive definite: smallest eigenvalue "
                         f"{minx + miny!r}")
    nx, ny = tx_mat.shape[0], ty_mat.shape[0]
    matrix = (sp.kron(sp.identity(ny), tx_mat, format="csr")
              + sp.kron(ty_mat, sp.identity(nx), format="csr"))
    basis = None
    if pairs_x is not None and pairs_y is not None:
        basis = SineEigenbasis(*pairs_x, *pairs_y)
    return LinearOperator(matrix, eigenbasis=basis)


class _DiagonalSolve:
    def __init__(self, denom: np.ndarray):
        self._denom = denom

    def solve(self, b: np.ndarray) -> np.ndarray:
        return b / self._denom


def shifted_lu(A: LinearOperator, shift: complex, scale: float = 1.0):
    """Solver for shift I + scale A; complex when the shift is.

    Returns an object with `.solve(b)`.  A diagonal operator is solved by
    division; any other operator gets a sparse LU, with the minimum-degree
    ordering on A^T + A, which suits the symmetric sparsity of the model
    operators.  Raises LinAlgError (a ValueError) when the shifted matrix is
    exactly singular.
    """
    if A.diagonal is not None:
        denom = shift + scale * A.diagonal
        if np.any(denom == 0):
            raise np.linalg.LinAlgError(f"shifted system {shift} I + {scale} A is singular")
        return _DiagonalSolve(denom)
    mat = (scale * A.matrix + shift * sp.identity(A.dim, format="csc")).tocsc()
    try:
        return splu(mat, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise np.linalg.LinAlgError(f"shifted system {shift} I + {scale} A is singular") from exc


@lru_cache(maxsize=None)
def _decoupling(r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, weighted eigenvectors and projector for H^-1 G.

    Only one eigenvalue of each conjugate pair is kept.  Returns lam (p,),
    V (r, p) with pair columns doubled, and T (p, r) = rows of V^-1 H^-1,
    so a block right-hand side R of shape (r, M) decouples as S = T R and
    U = Re(V W).  LAPACK returns real eigenvalues with an exactly zero
    imaginary part and real eigenvectors, so their rows of T are real.
    """
    H = h_diag(r)
    lam, V = np.linalg.eig(g_matrix(r) / H[:, None])
    T = np.linalg.inv(V) / H[None, :]
    keep = lam.imag >= 0.0
    real = lam.imag == 0.0
    T[real] = T[real].real
    weight = np.where(real, 1.0, 2.0)
    arrays = (lam[keep], V[:, keep] * weight[keep], T[keep])
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


class BlockSystemFactorization:
    """Reusable direct factorization of kron(G, I) + k kron(diag(H), A).

    Immutable after construction.  `matrix` assembles the block operator on
    first use, so residuals and round trips can be checked against the
    system that is solved.
    """

    def __init__(self, A: LinearOperator, ws: LegendreWorkspace, k: float):
        if k <= 0:
            raise ValueError("step size must be positive")
        if not 1 <= ws.r <= MAX_DEGREE:
            raise ValueError(f"r={ws.r} is outside the supported range 1..{MAX_DEGREE} "
                             "of the step solver")
        self.r = ws.r
        self.k = float(k)
        self.dim = A.dim
        self._A = A.matrix
        self._G = ws.G
        self._H = ws.H
        try:
            if A.dim == 1:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", LinAlgWarning)
                    self._dense = lu_factor(self.matrix.toarray())
            else:
                self._lam, self._V, self._T = _decoupling(self.r)
                self._lus = [shifted_lu(A, lam, self.k) for lam in self._lam]
        except (LinAlgWarning, np.linalg.LinAlgError) as exc:
            raise ValueError(f"singular step system for k={self.k!r}, r={self.r}: "
                             "the operator has an eigenvalue the scheme cannot take") from exc

    @cached_property
    def matrix(self) -> sp.csc_matrix:
        eye = sp.identity(self.dim, format="csr")
        return sp.kron(self._G, eye, format="csc") + self.k * sp.kron(
            sp.diags(self._H), self._A, format="csc"
        )

    def _shifted_solve(self, rhs: np.ndarray) -> np.ndarray:
        S = self._T @ rhs
        W = np.stack([lu.solve(s if lam.imag else s.real)
                      for lu, lam, s in zip(self._lus, self._lam, S)])
        return (self._V @ W).real

    def _apply(self, U: np.ndarray) -> np.ndarray:
        return self._G @ U + self.k * self._H[:, None] * (self._A @ U.T).T

    def solve(self, rhs_flat: np.ndarray) -> np.ndarray:
        if rhs_flat.shape != (self.r * self.dim,):
            raise ValueError(f"rhs must have length {self.r * self.dim}")
        # one step of iterative refinement; without it the forward error of
        # the stiff fine-grid systems (cond ~ k ||A||) accumulates to ~1e-11
        # over a long run, which is visible next to superconvergent nodal
        # errors near the roundoff floor
        if self.dim == 1:
            x = lu_solve(self._dense, rhs_flat, check_finite=False)
            x += lu_solve(self._dense, rhs_flat - self.matrix @ x, check_finite=False)
            return x
        R = rhs_flat.reshape(self.r, self.dim)
        U = self._shifted_solve(R)
        U += self._shifted_solve(R - self._apply(U))
        return U.ravel()


def factorize_step_matrix(A: LinearOperator, ws: LegendreWorkspace, k: float) -> BlockSystemFactorization:
    """Factor the step matrix for operator A and step size k.

    The scheme is uniquely solvable for symmetric positive-definite A, so a
    singular factorization signals an invalid operator and raises ValueError.
    """
    return BlockSystemFactorization(A, ws, k)


def solve_step(fac: BlockSystemFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve the block system for stacked right-hand sides of shape (r, M)."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape == (fac.r * fac.dim,):
        rhs = rhs.reshape(fac.r, fac.dim)
    if rhs.shape != (fac.r, fac.dim):
        raise ValueError(f"rhs shape {rhs.shape} incompatible with (r, M) = ({fac.r}, {fac.dim})")
    return fac.solve(rhs.ravel()).reshape(fac.r, fac.dim)
