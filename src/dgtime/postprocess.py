"""Post-processing of the DG solution.

Two consumers of the jump structure live here: the continuous degree-r
reconstruction and the jump error indicator.  A diagnostic measures how far
the actual error deviates from its leading Radau-polynomial profile; it
calls its function of time on arrays of times, never once per time
(`mesh.time_values`).

The reconstruction is a rank-one correction of the DG solution on each
interval, so it keeps the DG solution by reference: the coefficients of a
block of intervals are derived, with the block's jumps (`DgSolution.jumps`),
when they are read through `coefficients(idx)`, the one way besides
`recon(t)` to read it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .basis import legendre_coeff, legendre_table
from .dg import DgSolution, PiecewiseLegendre, state_norm
from .mesh import time_values

__all__ = [
    "Reconstruction",
    "reconstruct",
    "jump_indicator",
    "error_profile_deviation",
]


class Reconstruction(PiecewiseLegendre):
    """Continuous piecewise polynomial of degree r correcting the DG solution.

    It keeps the DG solution by reference and shares its mesh, dimension and
    norm weight.  The coefficients of a block of intervals are those of the
    DG solution with half_signed = (-1)^r / 2 times the jump at t_{n-1}
    (`sol.jumps` of the block) added to coefficient r - 1 and its negative
    appended as coefficient r, so no (N, r + 1, M) array is held.
    """

    def __init__(self, sol: DgSolution):
        super().__init__(sol.mesh, sol.r + 1, sol.dim, sol.norm_weight)
        self.r, self._sol = sol.r, sol

    def coefficients(self, idx) -> np.ndarray:
        half = 0.5 * (-1.0) ** self.r * self._sol.jumps(idx)
        coeffs = np.concatenate([self._sol.coefficients(idx), -half[:, None, :]], axis=1)
        coeffs[:, self.r - 1, :] += half
        return coeffs


def reconstruct(sol: DgSolution) -> Reconstruction:
    """The continuous reconstruction U* = U - (-1)^r / 2 [U]_{n-1} (p_r - p_{r-1}).

    On interval n the correction subtracts (-1)^r / 2 times the jump at
    t_{n-1} multiplied by the degree-r Radau polynomial, which in coefficient
    form means: keep coefficients 0..r-2, add half the signed jump to
    coefficient r-1, and set coefficient r to minus half the signed jump.
    The result matches the DG solution at the interior Radau points and the
    left-limit nodal values, and it starts from sol.u0.  It derives the
    coefficients of each block of intervals when they are read.
    """
    return Reconstruction(sol)


def jump_indicator(sol: DgSolution, n: int) -> float:
    """Norm of the solution jump at t_{n-1}, an estimate of the max error on I_n;
    ValueError for n outside 1..N, which the slice read would clip silently."""
    sol.mesh._check_index(n)
    return state_norm(sol.jumps(slice(n - 1, n))[0], sol.norm_weight)


def error_profile_deviation(sol: DgSolution, u: Callable, n: int,
                            samples: int = 50) -> tuple[np.ndarray, float]:
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
