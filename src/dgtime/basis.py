"""Legendre polynomial machinery on the reference interval [-1, 1].

The time stepping scheme, the post-processing and the error measurement all
work in a local Legendre basis, so this module owns the table of Legendre
values, the trial/test coupling matrices G and H, the right Gauss-Radau
rule and the per-degree workspace with its Gauss-Legendre rule.
Evaluation, roots and Gauss rules come from numpy.polynomial.legendre
(`legvander`, companion-matrix eigenvalues, `leggauss`'s Golub-Welsch); no
tabulated nodes or weights are used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import legder, leggauss, legroots, legval, legvander

from .mesh import is_integer

__all__ = [
    "LegendreWorkspace",
    "make_workspace",
    "legendre_table",
    "g_matrix",
    "h_diag",
    "radau_rule",
]


def legendre_table(jmax: int, taus: np.ndarray) -> np.ndarray:
    """Table of P_0..P_jmax (P_j(1) = 1) at the given points, shape (len(taus), jmax + 1)."""
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


def radau_rule(r: int) -> tuple[np.ndarray, np.ndarray]:
    """r-point right Gauss-Radau rule on [-1, 1], exact for degree <= 2r - 2.

    The nodes are the r roots of P_r - P_{r-1} in increasing order, the last
    exactly 1: the companion-matrix roots, polished by one Newton step.
    Weights come from solving the Legendre moment system (integral of P_j
    is 2 for j = 0, else 0) on these nodes; exactness beyond degree r - 1
    is then automatic and checked in the tests.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    radau = np.zeros(r + 1)
    radau[r - 1:] = (-1.0, 1.0)
    nodes = legroots(radau)
    nodes -= legval(nodes, radau) / legval(nodes, legder(radau))
    nodes[-1] = 1.0
    moments = np.zeros(r)
    moments[0] = 2.0
    weights = np.linalg.solve(legvander(nodes, r - 1).T, moments)
    return nodes, weights


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

    The Gauss-Legendre rule (`leggauss`) of size r + 3 integrates all
    polynomial terms of the scheme exactly and resolves the smooth model
    forcings to ~1e-14.  A non-integer r or an r below 1 raises ValueError.
    """
    if not is_integer(r):
        raise ValueError(f"r must be an integer, got {r!r}")
    if r < 1:
        raise ValueError("r must be at least 1")
    arrays = (g_matrix(r), h_diag(r), *leggauss(r + 3))
    for arr in arrays:
        arr.setflags(write=False)
    return LegendreWorkspace(r, *arrays)
