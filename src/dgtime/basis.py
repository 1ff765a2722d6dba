"""Legendre polynomial machinery on the reference interval [-1, 1].

The time stepping scheme, the post-processing and the error measurement all
work in a local Legendre basis, so this module owns polynomial evaluation,
the trial/test coupling matrices G and H, Gauss-Legendre quadrature and the
right Gauss-Radau abscissas; `legendre_coeff` projects a function of time
(`mesh.time_values`) with one call.  Evaluation, roots and Gauss rules
come from numpy.polynomial.legendre (companion-matrix eigenvalues,
Golub-Welsch); no tabulated nodes or weights are used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import legder, leggauss, legroots, legval, legvander

from .mesh import TimeMesh, time_values

__all__ = [
    "LegendreWorkspace",
    "make_workspace",
    "legendre_eval",
    "legendre_table",
    "g_matrix",
    "h_diag",
    "radau_abscissas",
    "radau_rule",
    "gauss_rule",
    "legendre_coeff",
]


def legendre_eval(j: int, tau):
    """Evaluate the Legendre polynomial P_j (normalized so P_j(1) = 1).

    Accepts a scalar or an array of points in [-1, 1].
    """
    t = np.asarray(tau, dtype=float)
    p = legvander(t, j)[..., j].reshape(t.shape)
    return float(p) if t.ndim == 0 else p


def legendre_table(jmax: int, taus: np.ndarray) -> np.ndarray:
    """Table of P_0..P_jmax at the given points, shape (len(taus), jmax + 1)."""
    return legvander(np.atleast_1d(np.asarray(taus, dtype=float)), jmax)


def g_matrix(r: int) -> np.ndarray:
    """Coupling matrix G[i, j] = (-1)^(i+j) if i >= j else 1 (0-based)."""
    if r < 1:
        raise ValueError("r must be at least 1")
    i, j = np.indices((r, r))
    lower = (-1.0) ** (i + j)
    return np.where(i >= j, lower, 1.0)


def h_diag(r: int) -> np.ndarray:
    """Diagonal of the mass matrix on [-1, 1]: H[j] = 1 / (2j + 1)."""
    if r < 1:
        raise ValueError("r must be at least 1")
    return 1.0 / (2.0 * np.arange(r) + 1.0)


def radau_abscissas(r: int) -> np.ndarray:
    """The r roots of P_r - P_{r-1} in increasing order; the last is exactly 1.

    These are the right-hand Gauss-Radau points: the companion-matrix roots,
    polished by one Newton step.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    radau = np.zeros(r + 1)
    radau[r - 1:] = (-1.0, 1.0)
    x = legroots(radau)
    x -= legval(x, radau) / legval(x, legder(radau))
    x[-1] = 1.0
    return x


def radau_rule(r: int) -> tuple[np.ndarray, np.ndarray]:
    """r-point right Gauss-Radau rule on [-1, 1], exact for degree <= 2r - 2.

    Weights come from solving the Legendre moment system (integral of P_j
    is 2 for j = 0, else 0) on the Radau abscissas; exactness beyond degree
    r - 1 is then automatic and checked in the tests.
    """
    nodes = radau_abscissas(r)
    moments = np.zeros(r)
    moments[0] = 2.0
    weights = np.linalg.solve(legvander(nodes, r - 1).T, moments)
    return nodes, weights


def gauss_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre rule on [-1, 1], exact for degree <= 2m - 1."""
    if m < 1:
        raise ValueError("rule size must be at least 1")
    return leggauss(m)


def legendre_coeff(v: Callable, interval: tuple[float, float], j: int):
    """Local Fourier-Legendre coefficient of v on an interval.

    Computes ((2j + 1) / k) * integral of v(t) p_j(t) over (a, b), where p_j
    is P_j mapped to the interval and k = b - a.  The integral is evaluated
    by mapping the Gauss rule of size j + 3 through `TimeMesh.to_physical`,
    so it is exact (to roundoff) whenever v is a polynomial of degree
    <= j + 5.  An interval without b > a
    raises ValueError (from `TimeMesh`).

    v is a function of time (`time_values`), called once with the array of
    quadrature times; a scalar state gives a float, a state vector a vector.
    """
    nodes, weights = gauss_rule(j + 3)
    vals = time_values(v, TimeMesh(np.array(interval, dtype=float)).to_physical(1, nodes))
    coeff = 0.5 * (2 * j + 1) * np.tensordot(weights * legendre_eval(j, nodes), vals, axes=1)
    return coeff if np.ndim(coeff) else float(coeff)


@dataclass(frozen=True)
class LegendreWorkspace:
    """Immutable per-degree basis tables shared across all time steps."""

    r: int
    G: np.ndarray
    H: np.ndarray
    quad_nodes: np.ndarray
    quad_weights: np.ndarray


@lru_cache(maxsize=None)
def make_workspace(r: int) -> LegendreWorkspace:
    """Build (or fetch the cached) workspace for degree count r.

    The quadrature size r + 3 integrates all polynomial terms of the scheme
    exactly and resolves the smooth model forcings to ~1e-14.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    arrays = (g_matrix(r), h_diag(r), *gauss_rule(r + 3))
    for arr in arrays:
        arr.setflags(write=False)
    return LegendreWorkspace(r, *arrays)
