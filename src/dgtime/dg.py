"""Discontinuous Galerkin time stepping for u' + A u = f.

The solution on each interval is a polynomial of degree at most r - 1 stored
as local Legendre coefficients, so it may jump at the break points.  A
piecewise solution is read in three ways only: the coefficients of a block
of intervals (`coefficients(idx)`), the jumps at their left nodes
(`DgSolution.jumps(idx)`, formed when read, so no (N, M) array of jumps is
held), and its values as a function of time (`sol(t)`).  One step advances
the expansion by solving the block system assembled in `system`; the
right-hand side combines the outgoing value from the previous interval
with moments of the separable forcing phi(t) g (`Forcing`) against the local
test polynomials.  The vectorised phi is evaluated once per solve, at every
quadrature time of the mesh.

An operator with a closed-form eigenbasis (`system.SineEigenbasis`: the
1D and 2D heat operators) is stepped in that basis: `LinearProblem.modal`
transforms u0 and the forcing profile once, the steps solve the diagonal
operator of the eigenvalues (M independent r x r problems, one broadcast
division per step), and the coefficients are transformed back once, a
bounded block of intervals at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import legendre_table, make_workspace, radau_rule
from .mesh import TimeMesh
from .system import LinearOperator, factorize_step_matrix, solve_step

# most coefficient entries one block of the back transform holds
TRANSFORM_BLOCK_ELEMENTS = 2 ** 16

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
    right-hand side phi(t) g, or None for the homogeneous problem.
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
        if self.T <= 0:
            raise ValueError("final time must be positive")

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
    """Piecewise polynomial stored as per-interval Legendre coefficients.

    coeffs has shape (N, q, M): N intervals, q coefficients per interval,
    state dimension M.  It is read only through `coefficients` and as a
    function of time (`mesh.time_values`) on (t_0, T], where a break point
    takes the left limit.  A subclass that sets mesh, degree_count and dim
    and overrides `coefficients` may derive its coefficients one block of
    intervals at a time instead of storing them.
    """

    def __init__(self, mesh: TimeMesh, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 3 or coeffs.shape[0] != mesh.N:
            raise ValueError("coefficient array must have shape (N, q, M)")
        self.mesh = mesh
        self.coeffs = coeffs
        self.degree_count, self.dim = coeffs.shape[1:]

    def coefficients(self, idx) -> np.ndarray:
        """Coefficients of the intervals idx (0-based slice or index array), (len(idx), q, M)."""
        return self.coeffs[idx]

    def __call__(self, t) -> np.ndarray:
        """Values at the times t, shape np.shape(t) + (M,); a break point t_n gives
        the left limit, from interval n, and a time outside (t_0, T] ValueError."""
        t, nodes = np.asarray(t, dtype=float), self.mesh.nodes
        if not np.all((nodes[0] < t) & (t <= nodes[-1])):
            raise ValueError(f"times must lie in ({nodes[0]}, {nodes[-1]}]")
        n = np.searchsorted(nodes, t.ravel(), side="left")  # interval n holds (t_{n-1}, t_n]
        a, b = nodes[n - 1], nodes[n]
        table = legendre_table(self.degree_count - 1, (2.0 * t.ravel() - (a + b)) / (b - a))
        return (table[:, None, :] @ self.coefficients(n - 1)).reshape(t.shape + (self.dim,))


class DgSolution(PiecewiseLegendre):
    """DG solution with its trial degree, initial state and norm weight; raises
    ValueError unless coeffs holds r coefficients per interval and u0 is (M,)."""

    def __init__(self, mesh: TimeMesh, r: int, coeffs: np.ndarray,
                 u0: np.ndarray, norm_weight: float = 1.0):
        super().__init__(mesh, coeffs)
        if self.degree_count != r:
            raise ValueError("coefficient count must equal r")
        self.r = r
        self.u0 = np.atleast_1d(np.asarray(u0, dtype=float))
        if self.u0.shape != (self.dim,):
            raise ValueError(f"u0 has shape {self.u0.shape}, expected ({self.dim},)")
        self.norm_weight = norm_weight

    def jumps(self, idx) -> np.ndarray:
        """Jumps of the intervals idx (0-based slice or index array), (len(idx), M):
        the row of interval n is the jump at t_{n-1}, the right limit from
        interval n minus the left limit from interval n - 1 (u0 for n = 1)."""
        i = np.arange(*idx.indices(self.mesh.N)) if isinstance(idx, slice) else np.asarray(idx)
        left = self.coefficients(np.maximum(i - 1, 0)).sum(axis=1)
        left[i == 0] = self.u0
        return (-1.0) ** np.arange(self.r) @ self.coefficients(idx) - left

    def jump(self, n: int) -> np.ndarray:
        """Jump at t_{n-1}, `jumps` of interval n."""
        self.mesh._check_index(n)
        return self.jumps(slice(n - 1, n))[0]


def dg_solve(problem: LinearProblem, mesh: TimeMesh, r: int,
             moment_quadrature: str = "gauss") -> DgSolution:
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
    """
    ws = make_workspace(r)
    if moment_quadrature == "gauss":
        q_nodes, q_weights = ws.quad
    elif moment_quadrature == "radau":
        q_nodes, q_weights = radau_rule(r)
    else:
        raise ValueError(f"unknown moment quadrature {moment_quadrature!r}")
    N, steps = mesh.N, mesh.steps
    test_table = legendre_table(r - 1, q_nodes)  # (m, r)
    signs = (-1.0) ** np.arange(r)

    A, prev_left, profile, basis = problem.modal()
    forcing = problem.forcing
    if forcing is not None:
        # phi at every quadrature time in one call, shape (N, m); row n - 1
        # of moments holds step n's moments per unit of the profile
        t_quad = mesh.to_physical(np.arange(1, N + 1), q_nodes)
        phi = np.asarray(forcing.phi(t_quad), dtype=float)
        if phi.shape != t_quad.shape:
            raise ValueError(f"forcing phi returned shape {phi.shape} for times {t_quad.shape}")
        moments = 0.5 * steps[:, None] * ((q_weights * phi) @ test_table)

    coeffs = np.empty((N, r, A.dim))
    fac = None
    for n in range(1, N + 1):
        k = float(steps[n - 1])
        if fac is None or abs(k - fac.k) > 1e-12 * k:
            fac = factorize_step_matrix(A, ws, k)

        rhs = signs[:, None] * prev_left[None, :]
        if forcing is not None:
            rhs = rhs + moments[n - 1][:, None] * profile

        U = solve_step(fac, rhs)
        if not np.all(np.isfinite(U)):
            raise ValueError(f"non-finite DG coefficients at step n={n}, "
                             f"t_n={float(mesh.nodes[n])!r}")
        coeffs[n - 1] = U
        prev_left = U.sum(axis=0)

    if basis is not None:
        # in place, so the peak memory grows by one block, not by the array
        block = max(1, TRANSFORM_BLOCK_ELEMENTS // (r * A.dim))
        for lo in range(0, N, block):
            coeffs[lo:lo + block] = basis.transform(coeffs[lo:lo + block])

    return DgSolution(mesh, r, coeffs, problem.u0, problem.norm_weight)
