"""Post-processing of the DG solution.

Two consumers of the jump structure live here: the continuous degree-r
reconstruction and the jump error indicator.

The reconstruction is a rank-one correction of the DG solution on each
interval, so it keeps the DG solution by reference: the coefficients of a
block of intervals are derived, with the block's jumps (`DgSolution.jumps`),
when they are read through `coefficients(idx)`, the one way besides
`recon(t)` to read it.
"""

from __future__ import annotations

import numpy as np

from .dg import DgSolution, PiecewiseLegendre, state_norm

__all__ = [
    "Reconstruction",
    "reconstruct",
    "jump_indicator",
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
