"""Linear operators and the per-step block solve.

Each time step requires the solution of an (r M) x (r M) linear system whose
(i, j) block is G[i, j] I + k H[j] A, i.e. kron(G, I) + k kron(diag(H), A)
acting on the r coefficient vectors stacked one after another.

For a state of dimension M > 1 the system is never assembled.  Scaling the
block rows by 1/H and diagonalising H^-1 G = V diag(lam) V^-1 (once per r)
decouples it into r shifted systems (lam_j I + k A) w_j = s_j of size M,
with S = V^-1 H^-1 R and U = V W.  The eigenvalues are one real value and
complex conjugate pairs; the conjugate partner of a pair solves the
conjugate system, so each step sets up one `shifted_lu` solver for
ceil(r/2) shifts.  One pass of iterative refinement against the true block operator, applied matrix-free,
removes the error that cond(V) (about 6e5 at r = 12) adds to the
transformation.  Degrees 1 <= r <= MAX_DEGREE are supported; beyond it the
transformation loses accuracy and the factorization refuses to build.

A scalar state (M = 1) has nothing to decouple: its dense r x r block
matrix G + k diag(H lam) is solved by `np.linalg.solve` (LU with partial
pivoting) and refined once against the same matrix.

`shifted_lu` is the one solver of shifted systems sigma I + c A, for the
steps and for the Laplace reference alike.  It takes one shift or an
array of them: for a diagonal operator the systems are one array of
sigma_j + c mu, solved by one broadcast division; any other operator gets
one sparse LU per shift.  A constant-band symmetric tridiagonal operator
(the 1D Laplacian) and a Kronecker sum kron(I, Tx) + kron(Ty, I) of such
factors (the 5-point Laplacian on a rectangle) carry their closed-form
DST-I eigenbasis (`SineEigenbasis`); the stepper and the 2D reference
transform into it once (`LinearProblem.modal`), solve with the diagonal
operator of the eigenvalues, and transform back once (fast
diagonalisation, Lynch, Rice & Thomas 1964).  The transform multiplies by
the dense sine matrix on short axes and takes an rfft on long ones.

Only numpy is imported at module load.  scipy is imported on first use, by
`sparse_operator`, a sparse `shifted_lu`, the eigensolver of non-constant
tridiagonal bands and the `.matrix` of an operator, a scipy sparse matrix
built on first access.  The built-in experiments reach none of these.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, partial, reduce

import numpy as np
import numpy.fft  # noqa: F401 -- a lazy submodule: load it here, not at the first rfft

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
# shortest axis the sine transform takes by FFT; shorter axes use the dense matrix
SINE_FFT_LENGTH = 400
# rows the FFT branch pads and transforms at a time: a (63, 999) block took
# 0.57 ms and a 1.2 MiB traced peak in groups of 16, against 1.30 ms and 2.5 MiB
# in one group and 1.4 ms row by row (2-vCPU Xeon); each row's bits are the same
SINE_FFT_ROWS = 16


def _sparse():
    """scipy.sparse, imported on first use."""
    import scipy.sparse

    return scipy.sparse


def _diags(*args, **kwargs):
    return _sparse().diags(*args, **kwargs)


def _kronecker_sum(build_x, build_y):
    """kron(I_ny, Tx) + kron(Ty, I_nx) from the builders of Tx and Ty."""
    sp, tx, ty = _sparse(), build_x(), build_y()
    return (sp.kron(sp.identity(ty.shape[0]), tx, format="csr")
            + sp.kron(ty, sp.identity(tx.shape[0]), format="csr"))


class LinearOperator:
    """A symmetric positive-(semi)definite operator with a known structure.

    build returns the operator's sparse matrix; `matrix` calls it on first
    access and keeps the result as a scipy CSR matrix.  diagonal holds the
    entries of a diagonal operator; eigenbasis is the `SineEigenbasis` of a
    constant-band tridiagonal operator or of a Kronecker sum of such
    factors.  Both are None for an operator without such structure.
    """

    def __init__(self, dim: int, build, eigenbasis=None, diagonal=None):
        self.dim = dim
        self._build = build
        self.eigenbasis = eigenbasis
        self.diagonal = diagonal

    @cached_property
    def matrix(self):
        return _sparse().csr_matrix(self._build())

    def apply(self, v: np.ndarray) -> np.ndarray:
        """A v for a state or a stack of states along the columns of v."""
        if self.diagonal is None:
            return self.matrix @ v
        return (self.diagonal if np.ndim(v) < 2 else self.diagonal[:, None]) * v

    def __repr__(self):
        return f"LinearOperator(dim={self.dim})"


def scalar_operator(lam: float) -> LinearOperator:
    """The multiplication operator u -> lam * u on a one-dimensional state."""
    return diagonal_operator([float(lam)])


def diagonal_operator(values: np.ndarray) -> LinearOperator:
    """The operator diag(values); its shifted systems are solved by division.

    Raises ValueError for non-finite values.
    """
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("diagonal operator has non-finite entries")
    return LinearOperator(values.size, partial(_diags, values), diagonal=values)


def _symmetric_tridiagonal(lower, diag, upper, name: str):
    """Checked bands of a symmetric tridiagonal matrix.

    Returns (build, eigenvalues, smallest): a function that builds the
    sparse matrix, the closed-form eigenvalues for constant bands (None
    otherwise) and the smallest eigenvalue.  Raises ValueError, naming the
    matrix, for bands of the wrong length, non-finite entries or lower !=
    upper.
    """
    lower, diag, upper = (np.asarray(band, dtype=float) for band in (lower, diag, upper))
    n = diag.size
    if lower.shape != (n - 1,) or upper.shape != (n - 1,):
        raise ValueError("band lengths incompatible with the diagonal")
    if not all(np.all(np.isfinite(band)) for band in (lower, diag, upper)):
        raise ValueError(f"{name} has non-finite band entries")
    if not np.array_equal(lower, upper):
        raise ValueError(f"{name} is not symmetric: lower and upper bands differ")
    mu = _sine_eigenvalues(diag, upper)
    if mu is None:
        from scipy.linalg import eigvalsh_tridiagonal

        smallest = eigvalsh_tridiagonal(diag, upper, select="i", select_range=(0, 0))[0]
    else:
        smallest = mu.min()
    build = partial(_diags, [lower, diag, upper], offsets=[-1, 0, 1], format="csr")
    return build, mu, float(smallest)


def tridiagonal_operator(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray) -> LinearOperator:
    """Symmetric positive-semidefinite tridiagonal operator from its bands.

    lower and upper have length n - 1 and must be equal.  Constant bands
    carry their closed-form `SineEigenbasis`.  Raises ValueError for bands
    of the wrong length, non-finite or asymmetric bands and a negative
    eigenvalue.
    """
    build, mu, smallest = _symmetric_tridiagonal(lower, diag, upper, "tridiagonal operator")
    # the eigensolver is accurate to about eps ||T||, so a zero eigenvalue of
    # a semidefinite matrix may come out a few ulps of ||T|| below zero
    norm = np.max(np.abs(diag)) + 2.0 * np.max(np.abs(upper), initial=0.0)
    if smallest < -8.0 * np.finfo(float).eps * norm:
        raise ValueError(f"tridiagonal operator has a negative eigenvalue {smallest!r}")
    return LinearOperator(np.size(diag), build,
                          eigenbasis=None if mu is None else SineEigenbasis(mu))


def sparse_operator(matrix) -> LinearOperator:
    """Symmetric operator from a square sparse (or dense) matrix.

    Its shifted systems get a sparse LU.  Raises ValueError for a matrix
    that is not square, has non-finite entries or is not exactly symmetric.
    Definiteness is not checked: a step or shift the operator makes singular
    fails when it is factored.
    """
    matrix = _sparse().csr_matrix(matrix, dtype=float)
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError("operator matrix must be square")
    if not np.all(np.isfinite(matrix.data)):
        raise ValueError("sparse operator has non-finite entries")
    if (matrix != matrix.T).nnz:
        raise ValueError("sparse operator is not symmetric")
    return LinearOperator(matrix.shape[0], partial(_sparse().csr_matrix, matrix))


def _sine_eigenvalues(diag: np.ndarray, off: np.ndarray):
    """Closed-form eigenvalues of tridiag(a, d, a), or None for non-constant bands.

    mu_j = (d - 2|a|) + 4|a| sin^2(m pi / (2(n + 1))), m = j for a <= 0 and
    n + 1 - j for a > 0, keeps the small eigenvalues of a stiff matrix to a
    few ulps, where a numerical eigensolver loses about eps ||T|| in each.
    The eigenvectors are the columns of `_sine_matrix(n)`.
    """
    n = diag.size
    a = off[0] if n > 1 else 0.0
    if np.any(diag != diag[0]) or np.any(off != a):
        return None
    m = np.arange(1, n + 1) if a <= 0 else np.arange(n, 0, -1)  # no cancellation either way
    return (diag[0] - 2.0 * abs(a)) + 4.0 * abs(a) * np.sin(np.pi * m / (2 * (n + 1))) ** 2


@lru_cache(maxsize=None)
def _sine_matrix(n: int) -> np.ndarray:
    """The orthonormal DST-I matrix Q_ij = sqrt(2/(n + 1)) sin(pi i j / (n + 1)).

    i j is reduced modulo 2(n + 1) first, so Q stays orthogonal to roundoff.
    Q is symmetric and its own inverse.
    """
    j = np.arange(1, n + 1)
    q = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * (np.outer(j, j) % (2 * (n + 1))) / (n + 1))
    q.setflags(write=False)
    return q


def _sine_transform(v: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Q v along axis -1 or -2, Q = `_sine_matrix(n)`, written into out (new when None).

    out may be v itself.  Axes shorter than SINE_FFT_LENGTH multiply by the
    cached dense matrix; longer ones take the rfft of the odd extension (0,
    v, 0, -reversed v), whose imaginary part is -2 sum_j v_j sin(pi k j /
    (n + 1)) (Strang, SIAM Rev. 41, 1999), in O(n log n) and without
    building Q.  The FFT branch pads and transforms SINE_FFT_ROWS rows at a
    time, each group copied into the pad before its rows of out are written,
    so its temporaries do not grow with the row count; an rfft row does not
    depend on the rows beside it, so the grouping keeps every bit.
    """
    n = v.shape[axis]
    if n < SINE_FFT_LENGTH:
        q = _sine_matrix(n)
        return np.matmul(v, q, out=out) if axis == -1 else np.matmul(q, v, out=out)
    out = np.empty(v.shape) if out is None else out
    # views with the transformed axis last: no copy of v, and out is written in place
    v, rows_out = np.moveaxis(v, axis, -1), np.moveaxis(out, axis, -1)
    odd = np.zeros((SINE_FFT_ROWS, 2 * n + 2))  # entries 0 and n + 1 stay zero
    for outer in np.ndindex(v.shape[:-2]):
        for g in range(0, v.shape[-2], SINE_FFT_ROWS):
            rows = v[outer][g:g + SINE_FFT_ROWS]
            pad = odd[:len(rows)]
            pad[:, 1:n + 1] = rows
            pad[:, n + 2:] = -rows[:, ::-1]
            rows_out[outer][g:g + SINE_FFT_ROWS] = (np.fft.rfft(pad)[:, 1:n + 1].imag
                                                    * -np.sqrt(0.5 / (n + 1)))
    return out


class SineEigenbasis:
    """Eigenbasis of a sum of constant-band symmetric tridiagonal matrices, one per axis.

    axis_eigenvalues lists each axis' eigenvalues, slowest axis first: (mu,)
    for tridiag(a, d, a) = Q diag(mu) Q, (muy, mux) for kron(I_ny, Tx) +
    kron(Ty, I_nx), x index fastest.  The DST-I matrices are symmetric and
    orthogonal, so `transform` is its own inverse.  operator is the sum in
    this basis: the diagonal operator of the eigenvalues, in state order.
    """

    def __init__(self, *axis_eigenvalues: np.ndarray):
        self.axis_eigenvalues = axis_eigenvalues
        self.shape = tuple(mu.size for mu in axis_eigenvalues)
        self.eigenvalues = reduce(np.add.outer, axis_eigenvalues).ravel()
        self.operator = diagonal_operator(self.eigenvalues)

    def transform(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Q v = Q^T v for states stacked along the last axis, written into out.

        out (new when None) is a C-contiguous float array of v's shape, and
        may be v itself; any other out raises ValueError.  A 2D basis
        transforms its x axis into one scratch grid and its y axis from
        there into out, so an in-place transform holds one v-sized scratch
        at most, and a long 1D axis none.
        """
        if out is None:
            out = np.empty(np.shape(v))
        elif out.shape != np.shape(v) or out.dtype != float or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous float array of shape {np.shape(v)}")
        grids = np.reshape(v, (-1,) + self.shape)
        if len(self.shape) == 2:
            grids = _sine_transform(grids, -1)
        _sine_transform(grids, -len(self.shape), out=out.reshape(grids.shape))  # a view
        return out


def kronecker_sum_operator(tx, ty) -> LinearOperator:
    """kron(I_ny, Tx) + kron(Ty, I_nx), x index fastest.

    tx and ty are the (lower, diag, upper) bands of symmetric tridiagonal
    factors of sizes nx and ny.  When both factors have constant bands the
    operator carries their closed-form `SineEigenbasis`.  Raises ValueError
    when a factor is not symmetric or the sum is not positive definite.
    """
    (build_x, mux, minx), (build_y, muy, miny) = (
        _symmetric_tridiagonal(*bands, f"{name} factor") for name, bands in (("x", tx), ("y", ty)))
    if minx + miny <= 0.0:
        raise ValueError(f"operator is not positive definite: smallest eigenvalue "
                         f"{minx + miny!r}")
    basis = None
    if mux is not None and muy is not None:
        basis = SineEigenbasis(muy, mux)
    build = partial(_kronecker_sum, build_x, build_y)
    return LinearOperator(np.size(tx[1]) * np.size(ty[1]), build, eigenbasis=basis)


class _DiagonalSolve:
    def __init__(self, denom: np.ndarray):
        self._denom = denom

    def solve(self, b: np.ndarray) -> np.ndarray:
        return b / self._denom


class _LuStack:
    def __init__(self, lus: list):
        self._lus = lus

    def solve(self, b: np.ndarray) -> np.ndarray:
        return np.stack([lu.solve(row) for lu, row in zip(self._lus, b)])


def shifted_lu(A: LinearOperator, shifts, scale: float = 1.0):
    """Solver for shift I + scale A, one system per shift; complex when a shift is.

    shifts is one shift or a 1-D array of them.  Returns an object whose
    `.solve(b)` takes a state for one shift and a stack with one row per
    shift for an array.  A diagonal operator is solved by one broadcast
    division by shift_j + scale mu; any other operator gets a sparse LU per
    shift, with the minimum-degree ordering on A^T + A, which suits the
    symmetric sparsity of the model operators.  Raises LinAlgError (a
    ValueError) when a shifted matrix is exactly singular.
    """
    if A.diagonal is not None:
        denom = np.add.outer(shifts, scale * A.diagonal)
        if np.any(denom == 0):
            raise np.linalg.LinAlgError(f"shifted system {shifts} I + {scale} A is singular")
        return _DiagonalSolve(denom)
    from scipy.sparse.linalg import splu

    lus = []
    for shift in np.atleast_1d(shifts):
        mat = (scale * A.matrix + shift * _sparse().identity(A.dim, format="csc")).tocsc()
        try:
            lus.append(splu(mat, permc_spec="MMD_AT_PLUS_A"))
        except RuntimeError as exc:
            raise np.linalg.LinAlgError(f"shifted system {shift} I + {scale} A is singular") from exc
    return _LuStack(lus) if np.ndim(shifts) else lus[0]


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

    Immutable after construction.
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
        self._A = A
        self._G = ws.G
        self._H = ws.H
        try:
            if A.dim == 1:
                # solve raises LinAlgError on an exactly zero pivot: probe once
                # so that a singular step fails here, not at its first solve
                self._dense = self._G + self.k * np.diag(self._H * A.apply(np.ones(1))[0])
                np.linalg.solve(self._dense, np.zeros(self.r))
            else:
                lam, self._V, self._T = _decoupling(self.r)
                self._solver = shifted_lu(A, lam, self.k)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"singular step system for k={self.k!r}, r={self.r}: "
                             "the operator has an eigenvalue the scheme cannot take") from exc

    def _shifted_solve(self, rhs: np.ndarray) -> np.ndarray:
        """V W for the decoupled systems of rhs, complex; its real part is the solution."""
        s = self._T @ rhs
        if isinstance(self._solver, _DiagonalSolve):
            s /= self._solver._denom  # in place; the public solve returns a new array
        else:
            s = self._solver.solve(s)
        return self._V @ s

    def _apply(self, U: np.ndarray) -> np.ndarray:
        return self._G @ U + self.k * self._H[:, None] * self._A.apply(U.T).T

    def solve(self, rhs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Solve for the (r, M) coefficients of one step from the (r, M) rhs.

        The coefficients are written into out (new when None), a float
        array of shape (r, M), and returned; another shape or dtype raises
        ValueError.  The first shifted pass writes the real part of its
        complex product into out, the refinement pass adds its own, and the
        residual is formed in place, so a step holds no real (r, M) copy
        beside out.
        """
        if rhs.shape != (self.r, self.dim):
            raise ValueError(f"rhs shape {rhs.shape} incompatible with (r, M) = "
                             f"({self.r}, {self.dim})")
        if out is None:
            out = np.empty((self.r, self.dim))
        elif out.shape != (self.r, self.dim) or out.dtype != float:
            raise ValueError(f"out must be a float array of shape ({self.r}, {self.dim})")
        # one step of iterative refinement; without it the forward error of
        # the stiff fine-grid systems (cond ~ k ||A||) accumulates to ~1e-11
        # over a long run, which is visible next to superconvergent nodal
        # errors near the roundoff floor
        if self.dim == 1:
            # the residual's row sums run left to right (cumsum), not in the
            # blocked order of a BLAS product, which moves the last digits
            # of every ODE table cell
            b = rhs[:, 0]
            x = np.linalg.solve(self._dense, b)
            x += np.linalg.solve(self._dense, b - np.cumsum(self._dense * x, axis=1)[:, -1])
            out[:, 0] = x
            return out
        out[...] = self._shifted_solve(rhs).real
        residual = self._apply(out)
        out += self._shifted_solve(np.subtract(rhs, residual, out=residual)).real
        return out


def factorize_step_matrix(A: LinearOperator, ws: LegendreWorkspace, k: float) -> BlockSystemFactorization:
    """Factor the step matrix for operator A and step size k.

    The scheme is uniquely solvable for symmetric positive-definite A, so a
    singular factorization signals an invalid operator and raises ValueError.
    """
    return BlockSystemFactorization(A, ws, k)


def solve_step(fac: BlockSystemFactorization, rhs: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Solve the block system for stacked right-hand sides of shape (r, M), into out."""
    return fac.solve(np.asarray(rhs, dtype=float), out)
