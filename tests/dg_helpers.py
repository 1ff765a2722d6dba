"""Shared test helpers: the one-interval readings the tests compare against.

A piecewise solution is read through `coefficients(idx)` and `jumps(idx)`,
for a slice idx of consecutive intervals, and `sol(t)` only.  These helpers
spell out, from `coefficients`, the values on one interval at reference
coordinates and the one-sided limits at a node; `ArrayPiecewise` reads a
piecewise polynomial from one coefficient array, by the same slices;
`legendre_coeff` projects a function of time on one interval;
`error_profile_deviation` measures how far the error on one interval
deviates from its leading Radau-polynomial profile; `pi_tilde_project`
builds the right-node interpolating projection of the paper's analysis;
`forcing_values` evaluates a problem's forcing phi(t) g; `stack_values`
lays complex transform values out as the real stack the references hold,
and `unstack_values` reads such a stack back; `invert_scalar` runs a
scalar Laplace transform through the contour inversion the references
use; `block_matrix` assembles the dense step operator that the step
solver applies matrix-free.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

from dgtime.basis import legendre_table, make_workspace
from dgtime.dg import PiecewiseLegendre, state_norm
from dgtime.mesh import TimeMesh, time_values
from dgtime.reference import _invert_values


class ArrayPiecewise(PiecewiseLegendre):
    """A piecewise polynomial read from its whole (N, q, M) coefficient array."""

    def __init__(self, mesh, coeffs):
        super().__init__(mesh, *coeffs.shape[1:])
        self._coeffs = coeffs

    def coefficients(self, idx):
        lo, hi = self._span(idx)
        return self._coeffs[lo:hi]


def interval_values(x, n, taus):
    """Values of x on interval n (1-based) at the reference coordinates taus, (len(taus), M)."""
    return legendre_table(x.degree_count - 1, taus) @ x.coefficients(slice(n - 1, n))[0]


def left_limit(x, n):
    """Value at t_n from interval n: every local polynomial is 1 at tau = 1."""
    return x.coefficients(slice(n - 1, n))[0].sum(axis=0)


def right_limit(x, n):
    """Value at t_n from interval n + 1: the local polynomial P_j is (-1)^j at tau = -1."""
    return (-1.0) ** np.arange(x.degree_count) @ x.coefficients(slice(n, n + 1))[0]


def legendre_coeff(v, interval, j):
    """Local Fourier-Legendre coefficient of v on an interval.

    Computes ((2j + 1) / k) * integral of v(t) p_j(t) over (a, b), where p_j
    is P_j mapped to the interval and k = b - a.  The integral is evaluated
    by mapping the Gauss-Legendre rule of size j + 3 (`leggauss`) through
    `TimeMesh.to_physical`, so it is exact (to roundoff) whenever v is a
    polynomial of degree <= j + 5.  An interval without b > a raises
    ValueError (from `TimeMesh`).

    v is a function of time (`time_values`), called once with the array of
    quadrature times; a scalar state gives a float, a state vector a vector.
    """
    nodes, weights = leggauss(j + 3)
    vals = time_values(v, TimeMesh(np.array(interval, dtype=float)).to_physical(1, nodes))
    pj = legendre_table(j, nodes)[:, j]
    coeff = 0.5 * (2 * j + 1) * np.tensordot(weights * pj, vals, axes=1)
    return coeff if np.ndim(coeff) else float(coeff)


def error_profile_deviation(sol, u, n, samples=50):
    """Leading Legendre coefficient of the reference and the profile residual.

    Returns (a_nr, deviation): a_nr is the degree-r coefficient of the
    reference u on interval n, and deviation is the sampled maximum norm of
    U - u + a_nr (p_r - p_{r-1}), i.e. what is left of the error after
    removing its predicted Radau-polynomial profile.  u is a function of
    time (`time_values`), called once by `legendre_coeff` for a_nr and once
    with the sample times.  Raises ValueError for n outside 1..N.
    """
    sol.mesh._check_index(n)
    r = sol.r
    a, b = sol.mesh.nodes[n - 1], sol.mesh.nodes[n]
    anr = np.atleast_1d(legendre_coeff(u, (a, b), r))

    taus = np.linspace(-1.0, 1.0, samples)
    table = legendre_table(r, taus)
    profile = table[:, r] - table[:, r - 1]
    uvals = time_values(u, sol.mesh.to_physical(n, taus)).reshape(samples, -1)
    uh = table[:, :r] @ sol.coefficients(slice(n - 1, n))[0]
    resid = uh - uvals + profile[:, None] * anr[None, :]
    dev = max(state_norm(row, sol.norm_weight) for row in resid)
    return anr, dev


def pi_tilde_project(v, mesh, r):
    """Project a continuous function onto piecewise polynomials of degree r - 1.

    Coefficients 0..r-2 are the plain Fourier-Legendre coefficients; the top
    coefficient is adjusted so the projection interpolates v at the right
    node of every interval.  v is a function of time (`time_values`), called
    once with the (N, m + 1) times of every interval's m quadrature nodes and
    its right node.
    """
    ws = make_workspace(r)
    ts = mesh.to_physical(np.arange(1, mesh.N + 1), np.append(ws.quad_nodes, 1.0))
    vals = time_values(v, ts).reshape(ts.shape + (-1,))  # (N, m + 1, M)
    table = legendre_table(r - 1, ws.quad_nodes)[:, :-1]  # P_0..P_{r-2}, (m, r - 1)
    scale = 0.5 * (2.0 * np.arange(r - 1) + 1.0)
    coeffs = np.empty((mesh.N, r, vals.shape[-1]))
    coeffs[:, : r - 1] = scale[:, None] * (table.T @ (ws.quad_weights[:, None] * vals[:, :-1]))
    coeffs[:, r - 1] = vals[:, -1] - coeffs[:, : r - 1].sum(axis=1)
    return ArrayPiecewise(mesh, coeffs)


def forcing_values(problem, t):
    """Forcing states phi(t) g of a problem, shape t.shape + (M,) (zero without a forcing)."""
    if problem.forcing is None:
        return np.zeros(np.shape(t) + (problem.A.dim,))
    return np.multiply.outer(problem.forcing.phi(t), problem.forcing.profile)


def stack_values(values):
    """Complex transform values V at the contour nodes as the real stack [Im V; Re V]."""
    return np.concatenate([values.imag, values.real])


def unstack_values(stack):
    """The complex values V of a real stack [Im V; Re V]: the inverse of `stack_values`."""
    n = len(stack) // 2
    values = stack[n:].astype(complex)
    values.imag = stack[:n]
    return values


def invert_scalar(transform, ts, rule):
    """Contour inversion of a scalar transform (vectorised over z) at the times ts."""
    values = np.asarray(transform(rule.z), dtype=complex)[:, None]
    return _invert_values(rule, stack_values(values), np.asarray(ts, dtype=float))[:, 0]


def block_matrix(A, ws, k):
    """The dense (r M, r M) step operator kron(G, I) + k kron(diag(H), A) of one step of size k."""
    return np.kron(ws.G, np.eye(A.dim)) + k * np.kron(np.diag(ws.H), A.matrix.toarray())
