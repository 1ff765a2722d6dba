"""Discontinuous Galerkin time stepping for u' + A u = f.

The solution on each interval is a polynomial of degree at most r - 1 stored
as local Legendre coefficients, so it may jump at the break points.  A
piecewise solution is read in three ways only: the coefficients of a slice
of consecutive intervals (`coefficients(idx)`), the jumps at their left nodes
(`DgSolution.jumps(idx)`, formed when read, so no (N, M) array of jumps is
held), and its values as a function of time (`sol(t)`): the read protocol
`PiecewiseLegendre`.  `DgSolution` is the one class that stores
coefficients.  One step advances the expansion by solving the block system
assembled in `system`; the right-hand side combines the outgoing value from
the previous interval with moments of the separable forcing phi(t) g
(`Forcing`) against the local test polynomials.  The vectorised phi is
evaluated once per solve, at every quadrature time of the mesh.

An operator with a closed-form eigenbasis (`system.SineEigenbasis`: the
1D and 2D heat operators) is stepped in that basis: `LinearProblem.modal`
transforms u0 and the forcing profile once, the steps solve the diagonal
operator of the eigenvalues (M independent r x r problems, one broadcast
division per step), and the coefficients are transformed back once, a
bounded block of intervals at a time, in place in their chunk rows.

The stepping loop is one generator (`_dg_chunks`): it carries the left
limit from step to step and yields the back-transformed coefficients of
consecutive intervals, whole transform blocks at a time.  Every
`DgSolution` reads its coefficients from a window of such chunks.
`dg_solve` takes one chunk of all N intervals, a whole solution; with
stream=True the solution takes chunks of STREAM_CHUNK_BLOCKS transform
blocks as its reader reaches them, so it is read forward only and the
tables measure a row without holding its (N, r, M) coefficient array.
Rows are dropped by one rule, and only when a read is about to step the
next chunk: the rows before the read's first interval go, a chunk that
reaches past it keeps a copy of its own rows, and the left limit at the
new first node is carried.  Each step is solved into its chunk row
(`solve_step(..., out=row)`) and each transform block is written back
into its own rows, so no step result or transformed block lives beside
the chunk, and a forward read holds one chunk plus at most its own rows.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .basis import legendre_table, make_workspace, radau_rule
from .mesh import TimeMesh
from .system import LinearOperator, factorize_step_matrix, solve_step

# most coefficient entries one block of the back transform holds
TRANSFORM_BLOCK_ELEMENTS = 2 ** 16
# transform blocks one chunk of a streamed solve steps at a time
STREAM_CHUNK_BLOCKS = 4

__all__ = ["Forcing", "LinearProblem", "PiecewiseLegendre", "DgSolution", "dg_solve",
           "state_norm"]


def state_norm(v: np.ndarray, weight: float = 1.0) -> float:
    """Discrete norm: |v| for scalars, sqrt(weight) * l2 for grid states."""
    return float(np.sqrt(weight) * np.linalg.norm(np.atleast_1d(v)))


@dataclass(frozen=True, eq=False)
class Forcing:
    """Separable forcing f(t) = phi(t) g.

    phi maps an array of times to an array of the same shape, profile is the
    state vector g, and phi_hat is phi's Laplace transform or None.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    profile: np.ndarray
    phi_hat: Callable[[complex], complex] | None = None

    def __post_init__(self):
        object.__setattr__(self, "profile", np.atleast_1d(np.asarray(self.profile, dtype=float)))


@dataclass
class LinearProblem:
    """Initial-value problem u' + A u = f on (0, T] with u(0) = u0.

    norm_weight is the mesh weight of the discrete spatial norm (1 for
    scalar problems, h or hx*hy for grid states).  forcing is the separable
    right-hand side phi(t) g, or None for the homogeneous problem.  A u0 or
    profile of the wrong dimension or with a non-finite entry, a T or a
    norm_weight that is not finite and positive raise ValueError.
    """

    A: LinearOperator
    u0: np.ndarray
    T: float
    norm_weight: float = 1.0
    forcing: Forcing | None = None

    def __post_init__(self):
        self.u0 = np.atleast_1d(np.asarray(self.u0, dtype=float))
        if self.u0.shape != (self.A.dim,):
            raise ValueError("initial state dimension does not match the operator")
        if self.forcing is not None and self.forcing.profile.shape != (self.A.dim,):
            raise ValueError("forcing profile dimension does not match the operator")
        if not np.all(np.isfinite(self.u0)):
            raise ValueError("initial state u0 has a non-finite entry")
        if self.forcing is not None and not np.all(np.isfinite(self.forcing.profile)):
            raise ValueError("forcing profile has a non-finite entry")
        if self.T <= 0:
            raise ValueError("final time must be positive")
        if not math.isfinite(self.T):  # NaN passes the comparison above
            raise ValueError(f"final time must be finite, got {self.T!r}")
        if not (math.isfinite(self.norm_weight) and self.norm_weight > 0):
            raise ValueError(f"norm_weight must be finite and positive, got {self.norm_weight!r}")

    def f(self, t) -> np.ndarray:
        """Forcing states phi(t) g, shape t.shape + (M,) (zero without a forcing)."""
        if self.forcing is None:
            return np.zeros(np.shape(t) + (self.A.dim,))
        return np.multiply.outer(self.forcing.phi(t), self.forcing.profile)

    def modal(self):
        """(operator, u0, profile, basis) in the operator's eigenbasis.

        With a `SineEigenbasis` the operator is the diagonal operator of its
        eigenvalues and u0 and the forcing profile are transformed into the
        basis; without one they are the problem's own and basis is None.
        profile is None without a forcing.
        """
        basis = self.A.eigenbasis
        profile = None if self.forcing is None else self.forcing.profile
        if basis is None:
            return self.A, self.u0, profile, None
        if profile is not None:
            profile = basis.transform(profile)
        return basis.operator, basis.transform(self.u0), profile, basis


class PiecewiseLegendre:
    """Read protocol of a piecewise polynomial in per-interval Legendre coefficients.

    It carries the time mesh, the coefficient count q per interval
    (degree_count), the state dimension M (dim) and the norm weight.  A
    subclass supplies `coefficients(idx)`, (len(idx), q, M) for the 0-based
    slice idx of consecutive intervals (step 1; `_span` gives its bounds
    and rejects anything else); this class reads it as a function of time
    (`mesh.time_values`) on (t_0, T], where a break point takes the left limit.
    """

    def __init__(self, mesh: TimeMesh, degree_count: int, dim: int, norm_weight: float = 1.0):
        self.mesh, self.degree_count, self.dim = mesh, degree_count, dim
        self.norm_weight = norm_weight

    def __call__(self, t) -> np.ndarray:
        """Values at the times t, shape np.shape(t) + (M,); a break point t_n gives
        the left limit, from interval n, and a time outside (t_0, T] ValueError."""
        t, nodes = np.asarray(t, dtype=float), self.mesh.nodes
        if not np.all((nodes[0] < t) & (t <= nodes[-1])):
            raise ValueError(f"times must lie in ({nodes[0]}, {nodes[-1]}]")
        n = np.searchsorted(nodes, t.ravel(), side="left")  # interval n holds (t_{n-1}, t_n]
        a, b = nodes[n - 1], nodes[n]
        table = legendre_table(self.degree_count - 1, (2.0 * t.ravel() - (a + b)) / (b - a))
        # one read of the intervals that cover the times, indexed here
        lo, hi = (int(n.min()) - 1, int(n.max())) if n.size else (0, 0)
        coeffs = self.coefficients(slice(lo, hi))[n - 1 - lo]
        return (table[:, None, :] @ coeffs).reshape(t.shape + (self.dim,))

    def _span(self, idx) -> tuple[int, int]:
        """(lo, hi) of a slice idx of intervals lo..hi - 1; anything else raises ValueError."""
        if not (isinstance(idx, slice) and idx.step in (None, 1)):
            raise ValueError(f"intervals are read by a slice with step 1, got {idx!r}")
        lo, hi, _ = idx.indices(self.mesh.N)
        return lo, max(lo, hi)


class DgSolution(PiecewiseLegendre):
    """DG solution with its trial degree, initial state and norm weight.

    It reads its coefficients from a window of chunks, the (n, r, M) arrays
    of consecutive intervals from interval 1 on, with u0 as the left limit
    carried at its start.  A read of intervals lo..hi - 1 takes chunks until
    interval hi - 1 is held.  Before it takes one, it drops every held row
    before lo, keeping a copy of the rows from lo on of a chunk that reaches
    past lo, and carries the left limit at t_lo; a read that takes no chunk
    drops nothing.  Reading behind the window raises ValueError.  coeffs is
    the (N, r, M) array, one chunk that no read drops (ValueError unless it
    holds r coefficients per interval and u0 is (M,)), or the chunk iterator
    of `dg_solve(..., stream=True)`, which is stepped as it is read, forward
    only.
    """

    def __init__(self, mesh: TimeMesh, r: int, coeffs: np.ndarray | Iterator[np.ndarray],
                 u0: np.ndarray, norm_weight: float = 1.0):
        self.u0 = np.atleast_1d(np.asarray(u0, dtype=float))
        dim = len(self.u0)
        if not isinstance(coeffs, Iterator):
            coeffs = np.asarray(coeffs, dtype=float)
            if coeffs.ndim != 3 or coeffs.shape[0] != mesh.N:
                raise ValueError("coefficient array must have shape (N, q, M)")
            dim = coeffs.shape[2]
            if coeffs.shape[1] != r:
                raise ValueError("coefficient count must equal r")
            if self.u0.shape != (dim,):
                raise ValueError(f"u0 has shape {self.u0.shape}, expected ({dim},)")
            coeffs = iter([coeffs])
        super().__init__(mesh, r, dim, norm_weight)
        self.r, self._chunks = r, coeffs
        self._held: list[tuple[int, np.ndarray]] = []  # (first interval, coefficients)
        self._start = self._end = 0  # intervals _start.._end - 1 are held
        self._carried = self.u0  # left limit at t_{_start}

    def _rows(self, lo: int, hi: int) -> np.ndarray:
        """Coefficients of the intervals lo..hi - 1, taking chunks as far as they need."""
        if lo < self._start:
            raise ValueError(f"interval {lo + 1} lies behind the streamed window, "
                             f"which starts at interval {self._start + 1}")
        while self._end < hi:
            # before the next chunk is stepped, drop the rows before lo: a chunk
            # that reaches past lo keeps a copy of its rows from lo on
            while self._held and self._held[0][0] < lo:
                first, chunk = self._held.pop(0)
                i = min(lo - first, len(chunk))
                self._start, self._carried = first + i, chunk[i - 1:i].sum(axis=1)[0]
                if i < len(chunk):
                    self._held.insert(0, (lo, chunk[i:].copy()))
                del chunk  # freed before the next chunk is stepped
            self._held.append((self._end, next(self._chunks)))
            self._end += len(self._held[-1][1])
        parts = [chunk[max(lo - first, 0):hi - first] for first, chunk in self._held
                 if first < hi and lo < first + len(chunk)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def coefficients(self, idx) -> np.ndarray:
        """Coefficients of the intervals idx (a 0-based slice), (len(idx), q, M)."""
        lo, hi = self._span(idx)
        return self._rows(lo, hi) if hi > lo else np.empty((0, self.degree_count, self.dim))

    def jumps(self, idx) -> np.ndarray:
        """Jumps of the intervals idx (a 0-based slice), (len(idx), M): the row
        of interval n is the jump at t_{n-1}, the right limit from interval n
        minus the left limit from interval n - 1 (u0 for n = 1).  The jump of
        interval n alone is jumps(slice(n - 1, n))[0]."""
        lo, hi = self._span(idx)
        if hi == lo:
            return np.empty((0, self.dim))
        # the left limit at t_lo first (carried at the window's start; behind
        # it _rows raises), so the read of lo..hi - 1 may drop its chunk
        first = self._carried[None] if lo == self._start else self._rows(lo - 1, lo).sum(axis=1)
        coeffs = self._rows(lo, hi)
        left = np.concatenate([first, coeffs[:-1].sum(axis=1)])
        return (-1.0) ** np.arange(self.r) @ coeffs - left


def dg_solve(problem: LinearProblem, mesh: TimeMesh, r: int,
             moment_quadrature: str = "gauss", *, stream: bool = False) -> DgSolution:
    """Run the DG time stepping loop over the whole mesh.

    Per step the right-hand side entries are (-1)^i times the previous left
    limit plus the forcing moments, integrated by a quadrature rule mapped
    through the interval.  The default "gauss" rule (workspace size, r + 3)
    resolves the moments essentially exactly for smooth forcings; passing
    "radau" evaluates them by the r-point right Radau rule instead, which
    makes the stepper coincide with the r-stage Radau IIA Runge-Kutta
    method.  The step factorization is kept while the step size repeats
    to a relative 1e-12, so a uniform mesh factors exactly once; raises
    ValueError when phi does not keep the shape of its (N, m) times and
    when a step produces non-finite coefficients.

    With stream=True nothing is stepped yet: the solution is read forward
    only, and the steps run as its intervals are read, STREAM_CHUNK_BLOCKS
    transform blocks at a time, so no (N, r, M) array is held; a
    non-finite step then raises when it is read.
    """
    chunks = _dg_chunks(problem, mesh, r, moment_quadrature,
                        STREAM_CHUNK_BLOCKS if stream else None)
    # a whole solution takes the one chunk of all N intervals now, so it steps here
    coeffs = chunks if stream else next(chunks)
    return DgSolution(mesh, r, coeffs, problem.u0, problem.norm_weight)


def _dg_chunks(problem: LinearProblem, mesh: TimeMesh, r: int, moment_quadrature: str,
               chunk_blocks: int | None):
    """The stepping loop as a generator of back-transformed coefficient chunks.

    The set-up (quadrature, forcing moments, modal data) runs at once and
    raises its errors here; the steps run as the chunks are taken.  The
    loop carries the left limit from step to step and yields the
    coefficients of intervals 1, 2, ... in order, chunk_blocks whole
    transform blocks of TRANSFORM_BLOCK_ELEMENTS // (r M) intervals per
    chunk, or all N intervals in one chunk when chunk_blocks is None.  The
    back transform groups the intervals in the same blocks, counted from
    interval 1, whatever the chunk size, so every chunking gives the same
    bits.
    """
    ws = make_workspace(r)
    if moment_quadrature == "gauss":
        q_nodes, q_weights = ws.quad_nodes, ws.quad_weights
    elif moment_quadrature == "radau":
        q_nodes, q_weights = radau_rule(r)
    else:
        raise ValueError(f"unknown moment quadrature {moment_quadrature!r}")
    N, steps = mesh.N, mesh.steps
    test_table = legendre_table(r - 1, q_nodes)  # (m, r)
    signs = (-1.0) ** np.arange(r)

    A, left, profile, basis = problem.modal()
    forcing = problem.forcing
    if forcing is not None:
        # phi at every quadrature time in one call, shape (N, m); row n - 1
        # of moments holds step n's moments per unit of the profile
        t_quad = mesh.to_physical(np.arange(1, N + 1), q_nodes)
        phi = np.asarray(forcing.phi(t_quad), dtype=float)
        if phi.shape != t_quad.shape:
            raise ValueError(f"forcing phi returned shape {phi.shape} for times {t_quad.shape}")
        moments = 0.5 * steps[:, None] * ((q_weights * phi) @ test_table)
    block = max(1, TRANSFORM_BLOCK_ELEMENTS // (r * A.dim))
    chunk = N if chunk_blocks is None else chunk_blocks * block

    def chunks(prev_left):
        fac = None
        for lo in range(0, N, chunk):
            coeffs = np.empty((min(chunk, N - lo), r, A.dim))
            for n in range(lo + 1, lo + len(coeffs) + 1):
                k = float(steps[n - 1])
                if fac is None or abs(k - fac.k) > 1e-12 * k:
                    fac = factorize_step_matrix(A, ws, k)

                rhs = signs[:, None] * prev_left[None, :]
                if forcing is not None:
                    rhs = rhs + moments[n - 1][:, None] * profile

                # solved into its chunk row: no step result lives beside the chunk
                U = solve_step(fac, rhs, out=coeffs[n - 1 - lo])
                if not np.all(np.isfinite(U)):
                    raise ValueError(f"non-finite DG coefficients at step n={n}, "
                                     f"t_n={float(mesh.nodes[n])!r}")
                prev_left = U.sum(axis=0)
            if basis is not None:
                # in place in the chunk: at most one block-sized scratch
                for b in range(0, len(coeffs), block):
                    basis.transform(coeffs[b:b + block], out=coeffs[b:b + block])
            yield coeffs
            del coeffs, U  # the reader holds the chunk; the next is not stepped beside it

    return chunks(left)

