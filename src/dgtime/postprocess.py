"""Post-processing of the DG solution.

Three consumers of the jump structure live here: the continuous degree-r
reconstruction, the jump error indicator, and the interpolating projector
that fixes the value at the right node of each interval.  A diagnostic
measures how far the actual error deviates from its leading Radau-polynomial
profile.

The reconstruction is a rank-one correction of the DG solution on each
interval, so it is kept as a view: the DG solution plus one (N, M) array
of half signed jumps, from which the coefficients of a block of intervals
are derived when they are read.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .basis import legendre_coeff, legendre_eval, legendre_table, make_workspace
from .dg import DgSolution, PiecewiseLegendre, PiecewiseLegendreView, state_norm
from .mesh import TimeMesh

__all__ = [
    "Reconstruction",
    "reconstruct",
    "jump_indicator",
    "pi_tilde_project",
    "error_profile_deviation",
]


class Reconstruction(PiecewiseLegendreView):
    """Continuous piecewise polynomial of degree r correcting the DG solution.

    A view: it keeps the DG solution by reference and the (N, M) array
    half_signed of (-1)^r / 2 times the jump at t_{n-1}, row n - 1.  The
    coefficients of a block of intervals are those of the DG solution with
    half_signed added to coefficient r - 1 and its negative appended as
    coefficient r, so the (N, r + 1, M) array is built only when `coeffs`
    is read.
    """

    def __init__(self, sol: DgSolution, half_signed: np.ndarray):
        half_signed = np.asarray(half_signed, dtype=float)
        if half_signed.shape != (sol.mesh.N, sol.dim):
            raise ValueError("half_signed must have shape (N, M) of the DG solution")
        self.mesh, self.r, self.norm_weight = sol.mesh, sol.r, sol.norm_weight
        self.degree_count, self.dim = sol.r + 1, sol.dim
        self._sol = sol
        self._half_signed = half_signed

    def coefficients(self, idx) -> np.ndarray:
        half = self._half_signed[idx]
        coeffs = np.concatenate([self._sol.coefficients(idx), -half[:, None, :]], axis=1)
        coeffs[:, self.r - 1, :] += half
        return coeffs


def reconstruct(sol: DgSolution) -> Reconstruction:
    """Build the continuous reconstruction from the DG coefficients.

    On interval n the correction subtracts (-1)^r / 2 times the jump at
    t_{n-1} multiplied by the degree-r Radau polynomial, which in coefficient
    form means: keep coefficients 0..r-2, add half the signed jump to
    coefficient r-1, and set coefficient r to minus half the signed jump.
    The result matches the DG solution at the interior Radau points and the
    left-limit nodal values, and it starts from sol.u0.  Only the jumps are
    computed here, one (N, M) array; the returned view derives the
    coefficients of each block of intervals when they are read.
    """
    r = sol.r
    # jump at t_{n-1}: right limit from interval n minus the left limit
    # from interval n - 1 (u0 for n = 1), as in DgSolution.jump
    jumps = (-1.0) ** np.arange(r) @ sol.coeffs
    jumps[0] -= sol.u0
    jumps[1:] -= sol.coeffs[:-1].sum(axis=1)
    jumps *= 0.5 * (-1.0) ** r
    return Reconstruction(sol, jumps)


def jump_indicator(sol: DgSolution, n: int) -> float:
    """Norm of the solution jump at t_{n-1}; estimates the max error on I_n."""
    return state_norm(sol.jump(n), sol.norm_weight)


def pi_tilde_project(v: Callable, mesh: TimeMesh, r: int) -> PiecewiseLegendre:
    """Project a continuous function onto piecewise polynomials of degree r - 1.

    Coefficients 0..r-2 are the plain Fourier-Legendre coefficients; the top
    coefficient is adjusted so the projection interpolates v at the right
    node of every interval.
    """
    ws = make_workspace(r)
    table = legendre_table(max(r - 2, 0), ws.quad_nodes)  # (m, r-1) when r >= 2
    scale = 0.5 * (2.0 * np.arange(max(r - 1, 0)) + 1.0)

    first = np.atleast_1d(np.asarray(v(mesh.nodes[-1]), dtype=float))
    M = first.size
    coeffs = np.zeros((mesh.N, r, M))
    for n in range(1, mesh.N + 1):
        t_quad = mesh.to_physical(n, ws.quad_nodes)
        vals = np.array([np.atleast_1d(np.asarray(v(tq), dtype=float)) for tq in t_quad])
        if r >= 2:
            low = scale[:, None] * (table[:, : r - 1].T @ (ws.quad_weights[:, None] * vals))
            coeffs[n - 1, : r - 1] = low
        v_right = np.atleast_1d(np.asarray(v(mesh.nodes[n]), dtype=float))
        coeffs[n - 1, r - 1] = v_right - coeffs[n - 1, : r - 1].sum(axis=0)
    return PiecewiseLegendre(mesh, coeffs)


def error_profile_deviation(sol: DgSolution, u: Callable, n: int,
                            samples: int = 50) -> tuple[np.ndarray, float]:
    """Leading Legendre coefficient of the reference and the profile residual.

    Returns (a_nr, deviation): a_nr is the degree-r coefficient of the
    reference u on interval n, and deviation is the sampled maximum norm of
    U - u + a_nr (p_r - p_{r-1}), i.e. what is left of the error after
    removing its predicted Radau-polynomial profile.
    """
    r = sol.r
    a, b = sol.mesh.nodes[n - 1], sol.mesh.nodes[n]
    anr = np.atleast_1d(legendre_coeff(u, (a, b), r, make_workspace(r).quad))

    taus = np.linspace(-1.0, 1.0, samples)
    profile = legendre_eval(r, taus) - legendre_eval(r - 1, taus)
    uvals = np.array([np.atleast_1d(np.asarray(u(t), dtype=float))
                      for t in sol.mesh.to_physical(n, taus)])
    resid = sol.sample_interval(n, taus) - uvals + profile[:, None] * anr[None, :]
    dev = max(state_norm(row, sol.norm_weight) for row in resid)
    return anr, dev
