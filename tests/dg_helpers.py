"""Shared test helpers: the one-interval readings the tests compare against.

A piecewise solution is read through `coefficients(idx)`, `jumps(idx)` and
`sol(t)` only.  These helpers spell out, from `coefficients`, the values on
one interval at reference coordinates and the one-sided limits at a node;
`invert_scalar` runs a scalar Laplace transform through the contour
inversion the references use.
"""

import numpy as np

from dgtime.basis import legendre_table
from dgtime.reference import _invert_values, _stack_values


def interval_values(x, n, taus):
    """Values of x on interval n (1-based) at the reference coordinates taus, (len(taus), M)."""
    return legendre_table(x.degree_count - 1, taus) @ x.coefficients(slice(n - 1, n))[0]


def left_limit(x, n):
    """Value at t_n from interval n: every local polynomial is 1 at tau = 1."""
    return x.coefficients(slice(n - 1, n))[0].sum(axis=0)


def right_limit(x, n):
    """Value at t_n from interval n + 1: the local polynomial P_j is (-1)^j at tau = -1."""
    return (-1.0) ** np.arange(x.degree_count) @ x.coefficients(slice(n, n + 1))[0]


def invert_scalar(transform, ts, rule):
    """Contour inversion of a scalar transform (vectorised over z) at the times ts."""
    zu, _ = rule.upper()
    values = np.asarray(transform(zu), dtype=complex)[:, None]
    return _invert_values(rule, _stack_values(values), np.asarray(ts, dtype=float))[:, 0]
