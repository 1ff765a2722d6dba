"""Model problems: a scalar ODE and heat equations in one and two dimensions.

The PDEs are discretized in space by standard central differences (method of
lines), producing stiff linear systems that the DG time stepper advances.
Thermal conductivities are chosen so the smallest discrete eigenvalue is
close to 1, which normalises the time scale of the slowest mode.  Both heat
problems carry the forcing (1 + t) exp(-t); a homogeneous run drops it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .dg import Forcing, LinearProblem
from .mesh import is_integer
from .system import kronecker_sum_operator, scalar_operator, tridiagonal_operator

__all__ = [
    "Heat1dConfig",
    "Heat2dConfig",
    "ode_problem",
    "heat1d_problem",
    "heat2d_problem",
    "fhat",
]

ODE_LAMBDA = 0.5  # decay rate of the scalar model problem u' + u/2 = cos(pi t)


def fhat(z):
    """Laplace transform of (1 + t) exp(-t): 1/(z + 1) + 1/(z + 1)^2, elementwise."""
    w = z + 1.0
    if np.any(np.abs(w) < 1e-12):
        raise ValueError("transform has a pole at z = -1")
    return 1.0 / w + 1.0 / (w * w)


def _heat_forcing(dim: int) -> Forcing:
    """The heat models' spatially constant forcing (1 + t) exp(-t), with its transform."""
    return Forcing(lambda t: (1.0 + t) * np.exp(-t), np.ones(dim), fhat)


def _check_positive(cfg, *names: str):
    """Raise ValueError naming the first of cfg's fields that is not finite and positive."""
    for name in names:
        value = getattr(cfg, name)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _check_integer(cfg, *names: str):
    """Raise ValueError naming the first of cfg's fields that is not an integer."""
    for name in names:
        if not is_integer(getattr(cfg, name)):
            raise ValueError(f"{name} must be an integer, got {getattr(cfg, name)!r}")


def ode_problem() -> LinearProblem:
    """u' + u/2 = cos(pi t) on (0, 2] with u(0) = 1."""
    return LinearProblem(
        A=scalar_operator(ODE_LAMBDA),
        u0=np.array([1.0]),
        T=2.0,
        forcing=Forcing(lambda t: np.cos(math.pi * t), np.ones(1)),
    )


@dataclass(frozen=True)
class Heat1dConfig:
    """1D heat equation u_t - kappa u_xx = f on (0, L) with zero boundary values.

    u0_poly lists the polynomial coefficients of the initial profile in
    increasing powers of x; the default is x(L - x).  An empty or
    non-finite u0_poly, a non-integer P, and a kappa, L or T that is not
    finite and positive, raise ValueError.
    """

    L: float = 2.0
    kappa: float = (2.0 / math.pi) ** 2
    P: int = 500
    T: float = 2.0
    u0_poly: tuple[float, ...] = (0.0, 2.0, -1.0)

    def __post_init__(self):
        _check_integer(self, "P")
        if self.P < 2:
            raise ValueError("need at least two spatial intervals")
        _check_positive(self, "kappa", "L", "T")
        if len(self.u0_poly) == 0:
            raise ValueError("u0_poly needs at least one coefficient")
        if not np.all(np.isfinite(self.u0_poly)):
            raise ValueError("u0_poly coefficients must be finite")

    @property
    def h(self) -> float:
        return self.L / self.P

    @property
    def x_interior(self) -> np.ndarray:
        return self.h * np.arange(1, self.P)

    def u0(self, x):
        return np.polynomial.polynomial.polyval(np.asarray(x), self.u0_poly)

    def refined(self) -> "Heat1dConfig":
        """Same problem on the spatial grid refined by 2."""
        return replace(self, P=2 * self.P)


def heat1d_problem(cfg: Heat1dConfig) -> LinearProblem:
    """Method-of-lines system on the interior grid points of cfg."""
    n = cfg.P - 1
    c = cfg.kappa / cfg.h**2
    A = tridiagonal_operator(np.full(n - 1, -c), np.full(n, 2.0 * c), np.full(n - 1, -c))
    return LinearProblem(
        A=A,
        u0=cfg.u0(cfg.x_interior),
        T=cfg.T,
        norm_weight=cfg.h,
        forcing=_heat_forcing(n),
    )


def _default_u0_2d(x, y):
    return x * (2.0 - x) * y * (2.0 - y)


@dataclass(frozen=True)
class Heat2dConfig:
    """2D heat equation on (0, Lx) x (0, Ly) with the 5-point Laplacian.

    Unknowns are ordered column-major: the x index varies fastest, so the
    state vector has dimension M = (Px - 1)(Py - 1).  A non-integer Px or
    Py, and a kappa, Lx, Ly or T that is not finite and positive, raise
    ValueError.
    """

    Lx: float = 2.0
    Ly: float = 2.0
    Px: int = 50
    Py: int = 50
    kappa: float = 2.0 / math.pi**2
    T: float = 2.0
    u0: Callable = _default_u0_2d

    def __post_init__(self):
        _check_integer(self, "Px", "Py")
        if self.Px < 2 or self.Py < 2:
            raise ValueError("need at least two spatial intervals per direction")
        _check_positive(self, "kappa", "Lx", "Ly", "T")

    @property
    def hx(self) -> float:
        return self.Lx / self.Px

    @property
    def hy(self) -> float:
        return self.Ly / self.Py

    @property
    def dim(self) -> int:
        return (self.Px - 1) * (self.Py - 1)


def heat2d_problem(cfg: Heat2dConfig) -> LinearProblem:
    """Semidiscrete system from the 5-point Laplacian on the interior grid."""
    nx, ny = cfg.Px - 1, cfg.Py - 1
    cx = cfg.kappa / cfg.hx**2
    cy = cfg.kappa / cfg.hy**2

    A = kronecker_sum_operator(
        (np.full(nx - 1, -cx), np.full(nx, 2.0 * cx), np.full(nx - 1, -cx)),
        (np.full(ny - 1, -cy), np.full(ny, 2.0 * cy), np.full(ny - 1, -cy)),
    )

    xg = cfg.hx * np.arange(1, cfg.Px)
    yg = cfg.hy * np.arange(1, cfg.Py)
    X, Y = np.meshgrid(xg, yg, indexing="ij")
    u0 = cfg.u0(X, Y).ravel(order="F")  # Fortran ravel keeps the x index fastest

    return LinearProblem(
        A=A,
        u0=u0,
        T=cfg.T,
        norm_weight=cfg.hx * cfg.hy,
        forcing=_heat_forcing(cfg.dim),
    )

