"""High-accuracy reference solutions.

The scalar ODE has a closed form.  The heat equations are handled through
the Laplace transform: for the 1D continuous solution, the transformed
two-point problem with polynomial data is solved in closed form, as a
polynomial particular solution plus two sinh boundary-layer terms; for the
2D solution, the resolvent of the semidiscrete operator is diagonal in its
sine eigenbasis.  Both take the problem's `Forcing` phi(t) g with phi's
transform phi_hat.  Both are inverted numerically on a hyperbolic Bromwich
contour (Weideman & Trefethen, Math. Comp. 76, 2007).  One step of
Richardson extrapolation removes the leading spatial error of the 1D
method-of-lines solutions.

Contour parameters are not dictated by any single source, so they are fixed
here by an explicit error budget (see `hyperbolic_contour`) and guarded at
runtime by a refinement self-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import is_integer
from .models import ODE_LAMBDA
from .system import shifted_lu

__all__ = [
    "ode_exact",
    "uhat_1d",
    "ContourRule",
    "hyperbolic_contour",
    "resolvent_2d",
    "richardson",
    "Heat1dReference",
    "Heat2dReference",
]

# Hyperbolic contour budget: z = mu (1 + sin(i x - alpha)), |x| <= xmax.
# CONTOUR_MU_TMAX caps mu * t_max, which bounds the integrand growth factor
# exp(mu (1 - sin alpha) t) and hence the roundoff amplification; CONTOUR_TRUNC
# is the target -log error for the truncation and aliasing terms.  With the
# default half_nodes below, every term sits at or below ~1e-13 for window
# ratios up to DEFAULT_BAND_RATIO.
CONTOUR_ANGLE = 1.1721
CONTOUR_MU_TMAX = 40.0
CONTOUR_TRUNC = 37.0
DEFAULT_BAND_RATIO = 8.0
DEFAULT_BAND_HALF_NODES = 48
REFINEMENT_EXTRA_NODES = 8  # refinement_check's twin has this many more half nodes


def ode_exact(t):
    """Exact solution of u' + u/2 = cos(pi t), u(0) = 1."""
    lam = ODE_LAMBDA
    denom = lam * lam + math.pi**2
    t = np.asarray(t, dtype=float)
    out = (1.0 - lam / denom) * np.exp(-lam * t) + (
        lam * np.cos(math.pi * t) + math.pi * np.sin(math.pi * t)
    ) / denom
    return float(out) if out.ndim == 0 else out


def uhat_1d(x, z, cfg, forcing) -> np.ndarray:
    """Laplace transform of the continuous 1D heat solution at position(s) x.

    Solves the two-point problem z uhat - kappa uhat'' = g, uhat(0) =
    uhat(L) = 0, with g = u0 + g0 phi_hat(z) for the forcing phi(t) g0 of
    the problem (`Forcing`; None for the homogeneous problem).  phi_hat is
    called once, on the array of z.  A forcing without phi_hat or whose
    profile is not constant raises ValueError.  For the polynomial data of
    cfg it has the polynomial particular solution p = sum_m kappa^m
    g^(2m) / z^(m+1), a finite sum, and

        uhat(x) = p(x) - p(0) s(L - x) - p(L) s(x),
        s(xi) = sinh(w xi) / sinh(w L)
              = exp(-w (L - xi)) (1 - exp(-2 w xi)) / (1 - exp(-2 w L)),

    with w = sqrt(z/kappa), Re w > 0, so every exponential has a
    nonpositive real part and the evaluation stays finite for arbitrarily
    large |w|.  z may be an array of transform variables: the result then
    has shape (len(z), len(x)), one row per z.  Raises ValueError for a z
    on the closed negative real axis, where the formula divides by z or by
    sinh(w L) = 0.
    """
    if forcing is not None and forcing.phi_hat is None:
        raise ValueError("the forcing has no Laplace transform phi_hat")
    if forcing is not None and np.any(forcing.profile != forcing.profile[0]):
        raise ValueError("uhat_1d needs a spatially constant forcing profile")
    L = cfg.L
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    on_axis = (zs.imag == 0.0) & (zs.real <= 0.0)
    if np.any(on_axis):
        raise ValueError(f"uhat_1d needs z off the closed negative real axis, "
                         f"got z = {complex(zs[on_axis][0])}")

    # coefficient stacks: powers of x along axis 0, one column per z
    poly = np.polynomial.polynomial
    g = np.repeat(np.asarray(cfg.u0_poly, dtype=complex)[:, None], zs.size, axis=1)
    if forcing is not None:
        g[0] += forcing.profile[0] * forcing.phi_hat(zs)
    p = g / zs
    term = p
    while len(term) > 2:
        term = poly.polyder(term, 2) * (cfg.kappa / zs)
        p[: len(term)] += term

    w = np.sqrt(zs / cfg.kappa)[:, None]
    E = lambda arg: np.exp(-w * arg)
    denom = 1.0 - E(2.0 * L)
    s_left = E(xs) * (1.0 - E(2.0 * (L - xs))) / denom  # s(L - x)
    s_right = E(L - xs) * (1.0 - E(2.0 * xs)) / denom  # s(x)
    # polyval broadcasts the trailing z axis of p to shape (len(z), len(x))
    out = poly.polyval(xs, p) - p[0][:, None] * s_left - poly.polyval(L, p)[:, None] * s_right
    return out.reshape(np.shape(z) + np.shape(x))[()]


@dataclass(frozen=True)
class ContourRule:
    """Trapezoid rule on a hyperbolic Bromwich contour for a time window.

    z and zprime hold the real node first and then the K upper half-plane
    nodes; the lower nodes are their conjugates, which a real inversion
    never needs.  Real parts are bounded above by mu (1 - sin alpha).
    """

    z: np.ndarray
    zprime: np.ndarray
    step: float
    t_min: float
    t_max: float


def hyperbolic_contour(t_min: float, t_max: float, half_nodes: int) -> ContourRule:
    """Contour z(x) = mu (1 + sin(ix - alpha)) sampled at x = 0, h, ..., K h = xmax.

    K = half_nodes: the real node and the upper half of the 2K + 1 trapezoid
    nodes.  mu is set from the cap on mu * t_max; the truncation point xmax
    makes the tail factor exp(mu t_min (1 - sin(alpha) cosh(xmax))) meet the
    target error, which for wider windows pushes xmax out and so requires
    more nodes to keep the step (and hence the aliasing error) small.

    The budget assumes the transform's singularities lie on the nonpositive
    real axis, i.e. an operator A with nonnegative real spectrum (the heat
    equations here).  A negative eigenvalue of A puts a pole right of the
    origin, which the contour may pass on the wrong side; the budget says
    nothing about complex eigenvalues.  Nothing here checks it: the 1D
    reference inverts the continuous problem, whose spectrum is positive,
    and `Heat2dReference` raises ValueError for a negative value in a
    spectrum it knows, the entries of a diagonal operator or the
    eigenvalues of a `SineEigenbasis`.  A sparse operator without an
    eigenbasis stays unchecked.
    """
    if not 0.0 < t_min <= t_max:
        raise ValueError("need 0 < t_min <= t_max")
    if not is_integer(half_nodes):
        raise ValueError(f"half_nodes must be an integer, got {half_nodes!r}")
    if half_nodes < 1:
        raise ValueError("half_nodes must be positive")
    ratio = t_max / t_min
    mu = CONTOUR_MU_TMAX / t_max
    cosh_target = (CONTOUR_TRUNC * ratio / CONTOUR_MU_TMAX + 1.0) / math.sin(CONTOUR_ANGLE)
    xmax = math.acosh(cosh_target)
    h = xmax / half_nodes
    xk = h * np.arange(half_nodes + 1)
    sin_a, cos_a = math.sin(CONTOUR_ANGLE), math.cos(CONTOUR_ANGLE)
    z = mu * (1.0 - sin_a * np.cosh(xk) + 1j * cos_a * np.sinh(xk))
    zprime = mu * (-sin_a * np.sinh(xk) + 1j * cos_a * np.cosh(xk))
    return ContourRule(z, zprime, h, float(t_min), float(t_max))


def _invert_values(rule: ContourRule, stacked: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Trapezoid inversion for cached transform values at the nodes of rule.

    stacked is the real stack [Im V; Re V] of the values V.  Only Im(K V) is
    needed, and Im(K V) = Re K Im V + Im K Re V = [Re K, Im K] @ stacked,
    one real product in place of a complex one.
    """
    coeff = np.ones(rule.z.size)
    coeff[0] = 0.5  # the real node is shared between the two half sums
    kernel = (rule.step / math.pi) * np.exp(np.outer(ts, rule.z)) * (coeff * rule.zprime)[None, :]
    return np.concatenate([kernel.real, kernel.imag], axis=1) @ stacked


def resolvent_2d(z, problem, *, out=None) -> np.ndarray:
    """Solve (z I + A) uhat = u0 + phi_hat(z) g for the state; the forcing is phi(t) g.

    z may be an array: the result then has one row per z.  The system is
    solved by `shifted_lu` in the problem's modal form (`LinearProblem.modal`):
    with an eigenbasis Q, uhat = Q ((Q^T u0 + phi_hat(z) Q^T g) / (z + mu)),
    u0 and g transformed once per call.  Any other operator gets a sparse LU
    per z and one refinement pass, which brings the forward error of the
    fine-grid solves from ~1e-13 back to the roundoff level of the contour
    self-check.

    The values go node by node into a real stack [Im uhat; Re uhat] of shape
    (2 len(z), M), with an eigenbasis each part transformed straight into its
    row: out when it is given, filled in place and returned (the form the
    contour inversion reads, so a caller holds no complex copy of all
    nodes), otherwise a scratch stack read back as the complex result.
    Raises ValueError for a forcing without phi_hat and for an out of
    another shape or dtype.
    """
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    op, u0, profile, basis = problem.modal()
    if profile is not None and problem.forcing.phi_hat is None:
        raise ValueError("the forcing has no Laplace transform phi_hat")
    n = zs.size
    stack = np.empty((2 * n, op.dim)) if out is None else out
    if stack.shape != (2 * n, op.dim) or stack.dtype != float:
        raise ValueError(f"out must be a float array of shape {(2 * n, op.dim)}")
    for k, zk in enumerate(zs):
        rhs = u0.astype(complex)
        if profile is not None:
            rhs += problem.forcing.phi_hat(zk) * profile
        solver = shifted_lu(op, zk)
        row = solver.solve(rhs)
        if basis is None:
            row += solver.solve(rhs - zk * row - op.matrix @ row)
            stack[k], stack[n + k] = row.imag, row.real
        else:
            basis.transform(row.imag, out=stack[k])
            basis.transform(row.real, out=stack[n + k])
        if not np.all(np.isfinite(stack[k::n])):  # node k's two rows, no stack-sized mask
            raise RuntimeError("singular resolvent system: contour crosses the spectrum")
    if out is not None:
        return out
    values = stack[n:].astype(complex)
    values.imag = stack[:n]
    return values.reshape(np.shape(z) + (op.dim,))


def richardson(coarse: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """One Richardson step combining interior grid functions on h and h/2.

    Interior vectors have P - 1 and 2P - 1 entries; the odd entries of the
    fine vector sit on the coarse points.  Works on the last axis, so stacks
    of states pass through unchanged.
    """
    coarse = np.asarray(coarse)
    fine = np.asarray(fine)
    if fine.shape[-1] != 2 * coarse.shape[-1] + 1:
        raise ValueError("fine grid must refine the coarse grid by exactly 2")
    shared = fine[..., 1::2]
    return shared + (shared - coarse) / 3.0


class _BandedContourReference:
    """Shared machinery: per-band contour rules with cached transform values.

    One contour cannot cover a window like [T/6400, T] at full accuracy with
    a fixed node budget, so the window splits into geometric bands of ratio
    at most DEFAULT_BAND_RATIO, each with its own rule and cached transform
    values at its nodes.  A band's values V are held as the real stack
    [Im V; Re V] that `_invert_values` reads, (2(K + 1), M), allocated once
    and filled in place by one `_transforms` call; `Heat2dReference` fills
    it node by node, so its build holds no second copy of a band.  source
    is the tuple of arguments a subclass is built from, so
    `type(self)(*source, t_min, t_max, half_nodes)` builds the same
    reference with other nodes; initial is the state at t = 0.
    """

    def __init__(self, source: tuple, initial: np.ndarray, t_min: float, t_max: float,
                 half_nodes: int):
        if not 0.0 < t_min <= t_max:
            raise ValueError("need 0 < t_min <= t_max")
        self.t_min, self.t_max = float(t_min), float(t_max)
        self.half_nodes = half_nodes
        self._source, self._initial = source, initial
        self._rules: list[ContourRule] = []
        self._values: list[np.ndarray] = []
        hi = self.t_max
        while True:
            lo = max(hi / DEFAULT_BAND_RATIO, self.t_min)
            rule = hyperbolic_contour(lo, hi, half_nodes)
            self._rules.append(rule)
            stack = np.empty((2 * rule.z.size, initial.size))
            self._transforms(rule.z, stack)
            self._values.append(stack)
            if lo <= self.t_min * (1.0 + 1e-12):
                break
            hi = lo
        # lower band edges with the contour's relative slack, ascending
        self._floors = np.array([rule.t_min * (1.0 - 1e-9) for rule in reversed(self._rules)])

    def _transforms(self, zs: np.ndarray, out: np.ndarray) -> None:
        """Fill out, (2 len(zs), M), with [Im V; Re V] of the transform values V at zs."""
        raise NotImplementedError

    def eval_many(self, ts) -> np.ndarray:
        """Reference states at the given times, shape (len(ts), M); t = 0 maps to u0.

        Each time goes to the highest band whose lower edge it reaches.
        Raises ValueError for a time outside [t_min, t_max], widened by a
        relative 1e-9 at each end: no contour is accurate there.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.empty((ts.size, self._values[0].shape[1]))
        zero = ts == 0.0
        bands = len(self._rules) - np.searchsorted(self._floors, ts, side="right")
        live = (bands < len(self._rules)) & (ts <= self.t_max * (1.0 + 1e-9))
        outside = ~(zero | live)
        if np.any(outside):
            raise ValueError(f"time {ts[outside][0]!r} outside the reference window "
                             f"[{self.t_min}, {self.t_max}]")
        out[zero] = self._initial
        live = np.nonzero(live)[0]
        for b in np.flatnonzero(np.bincount(bands[live])):
            rows = live[bands[live] == b]
            out[rows] = _invert_values(self._rules[b], self._values[b], ts[rows])
        return out

    def __call__(self, t) -> np.ndarray:
        """Reference states at a time or an array of times, shape np.shape(t) + (M,)."""
        return self.eval_many(np.ravel(t)).reshape(np.shape(t) + (-1,))

    def refinement_check(self, ts) -> float:
        """Max relative change of the reference values under node refinement."""
        twin = type(self)(*self._source, self.t_min, self.t_max,
                          self.half_nodes + REFINEMENT_EXTRA_NODES)
        base = self.eval_many(ts)
        other = twin.eval_many(ts)
        num = np.linalg.norm(base - other, axis=1)
        den = np.linalg.norm(base, axis=1)
        return float(np.max(num / np.maximum(den, 1e-300)))


class Heat1dReference(_BandedContourReference):
    """Continuous 1D heat solution on the interior grid of cfg, forced as in `uhat_1d`."""

    def __init__(self, cfg, forcing, t_min: float, t_max: float,
                 half_nodes: int = DEFAULT_BAND_HALF_NODES):
        self.cfg, self.forcing = cfg, forcing
        self._x = cfg.x_interior
        super().__init__((cfg, forcing), cfg.u0(self._x), t_min, t_max, half_nodes)

    def _transforms(self, zs: np.ndarray, out: np.ndarray) -> None:
        values = uhat_1d(self._x, zs, self.cfg, self.forcing)
        out[:zs.size], out[zs.size:] = values.imag, values.real


class Heat2dReference(_BandedContourReference):
    """Semidiscrete 2D heat solution via the resolvent; needs phi_hat.

    Each band's transform values come from one `resolvent_2d` call, which
    fills the band's real stack node by node.  Raises ValueError when the
    operator's known spectrum (`hyperbolic_contour`) has a negative value,
    and, through `resolvent_2d`, for a forcing without phi_hat.
    """

    def __init__(self, problem, t_min: float, t_max: float,
                 half_nodes: int = DEFAULT_BAND_HALF_NODES):
        A = problem.A
        spectrum = A.diagonal if A.eigenbasis is None else A.eigenbasis.eigenvalues
        if spectrum is not None and np.min(spectrum) < 0.0:
            raise ValueError(f"the operator has a negative eigenvalue {float(np.min(spectrum))!r}: "
                             "the contour needs a nonnegative spectrum")
        self.problem = problem
        super().__init__((problem,), problem.u0, t_min, t_max, half_nodes)

    def _transforms(self, zs: np.ndarray, out: np.ndarray) -> None:
        resolvent_2d(zs, self.problem, out=out)
