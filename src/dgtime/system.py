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

`shifted_lu` is the one place that solves sigma I + c A; the Laplace
reference uses it for its resolvent solves as well.  The operator's
structure picks one of two forms.  A Kronecker sum kron(I, Tx) + kron(Ty, I)
of symmetric tridiagonal factors (the 5-point Laplacian on a rectangle)
carries the eigendecompositions Tx = Qx diag(mux) Qx^T and
Ty = Qy diag(muy) Qy^T, computed once at construction; in that basis every
shifted system is diagonal, so a solve is four small matrix products and
nothing is factored (fast diagonalisation, Lynch, Rice & Thomas 1964).
Every other operator gets a sparse LU.
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

    eigenbasis, set only for a Kronecker sum, holds (mux, Qx, muy, Qy), the
    eigendecompositions of its x and y factors.
    """

    def __init__(self, matrix: sp.spmatrix, eigenbasis=None):
        matrix = sp.csr_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("operator matrix must be square")
        self.matrix = matrix
        self.dim = matrix.shape[0]
        self.eigenbasis = eigenbasis

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v

    def __repr__(self):
        return f"LinearOperator(dim={self.dim})"


def scalar_operator(lam: float) -> LinearOperator:
    """The multiplication operator u -> lam * u on a one-dimensional state."""
    return LinearOperator(sp.csr_matrix(np.array([[float(lam)]])))


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


def kronecker_sum_operator(tx, ty) -> LinearOperator:
    """kron(I_ny, Tx) + kron(Ty, I_nx), x index fastest, with its eigenbasis.

    tx and ty are the (lower, diag, upper) bands of symmetric tridiagonal
    factors of sizes nx and ny.  Raises ValueError when a factor is not
    symmetric or the sum is not positive definite.
    """
    factors = []
    for name, (lower, diag, upper) in (("x", tx), ("y", ty)):
        mat = tridiagonal_operator(lower, diag, upper).matrix
        if not np.array_equal(lower, upper):
            raise ValueError(f"{name} factor is not symmetric: lower and upper bands differ")
        mu, q = eigh_tridiagonal(np.asarray(diag, dtype=float), np.asarray(upper, dtype=float))
        factors.append((mat, mu, q))
    (tx_mat, mux, qx), (ty_mat, muy, qy) = factors
    if mux[0] + muy[0] <= 0.0:
        raise ValueError(f"operator is not positive definite: smallest eigenvalue "
                         f"{mux[0] + muy[0]!r}")
    matrix = (sp.kron(sp.identity(muy.size), tx_mat, format="csr")
              + sp.kron(ty_mat, sp.identity(mux.size), format="csr"))
    return LinearOperator(matrix, eigenbasis=(mux, qx, muy, qy))


class _EigenbasisSolve:
    """Solve of shift I + scale A for a Kronecker sum, diagonal in its eigenbasis.

    With b reshaped to B (ny, nx), x fastest, A acts as Ty B + B Tx, so
    x = Qy ((Qy^T B Qx) / (shift + scale (muy_i + mux_j))) Qx^T.
    """

    def __init__(self, eigenbasis, shift: complex, scale: float):
        mux, self._qx, muy, self._qy = eigenbasis
        self._denom = shift + scale * (muy[:, None] + mux[None, :])
        if np.any(self._denom == 0):
            raise np.linalg.LinAlgError(f"shifted system {shift} I + {scale} A is singular")

    def solve(self, b: np.ndarray) -> np.ndarray:
        qx, qy = self._qx, self._qy
        C = qy.T @ np.reshape(b, self._denom.shape) @ qx
        return (qy @ (C / self._denom) @ qx.T).ravel()


def shifted_lu(A: LinearOperator, shift: complex, scale: float = 1.0):
    """Solver for shift I + scale A; complex when the shift is.

    Returns an object with `.solve(b)`.  A Kronecker sum is solved in its
    eigenbasis; any other operator gets a sparse LU, with the minimum-degree
    ordering on A^T + A, which suits the symmetric sparsity of the model
    operators.  Raises LinAlgError (a ValueError) when the shifted matrix is
    exactly singular.
    """
    if A.eigenbasis is not None:
        return _EigenbasisSolve(A.eigenbasis, shift, scale)
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
