"""Shared test helpers: the one-interval readings the tests compare against.

A piecewise solution is read through `coefficients(idx)` and `jumps(idx)`,
for a slice idx of consecutive intervals, and `sol(t)` only.  These helpers
spell out, from `coefficients`, the values on one interval at reference
coordinates and the one-sided limits at a node; `ArrayPiecewise` reads a
piecewise polynomial from one coefficient array, by the same slices;
`pi_tilde_project` builds the right-node interpolating projection of the
paper's analysis; `invert_scalar` runs a scalar Laplace transform through
the contour inversion the references use.
"""

import numpy as np

from dgtime.basis import legendre_table, make_workspace
from dgtime.dg import PiecewiseLegendre
from dgtime.mesh import time_values
from dgtime.reference import _invert_values, _stack_values


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


def invert_scalar(transform, ts, rule):
    """Contour inversion of a scalar transform (vectorised over z) at the times ts."""
    zu, _ = rule.upper()
    values = np.asarray(transform(zu), dtype=complex)[:, None]
    return _invert_values(rule, _stack_values(values), np.asarray(ts, dtype=float))[:, 0]
