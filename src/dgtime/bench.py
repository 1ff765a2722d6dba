"""Benchmark harness: error norms, convergence tables, and the CLI.

Errors are estimated by sampling each time interval on an equispaced
reference grid (both endpoints included, so the one-sided limits at the
break points are seen), optionally restricted to a window or damped by the
weight min(t^alpha, 1).  Tables report errors of the DG solution, of its
reconstruction, and of the nodal values, with observed rates between
consecutive mesh halvings.

Each table row is measured in one pass over its intervals, walked in
blocks of whole intervals that hold at most MEASURE_BLOCK_ELEMENTS sample
times x state entries (or one interval, when that alone holds more).  Per
block the reference, a function of time (`mesh.time_values`), is called
once with all of the block's sample times, and the values are shared by
the three columns: the nodal value at t_n is the tau = 1 sample of
interval n.  Each piecewise solution is sampled on all intervals of a
block by one stacked matrix product.  The Richardson extrapolation of the
1D solutions is linear, so it is applied to the Legendre coefficients
rather than to every sample, one block at a time: the extrapolated
solution and the reconstruction derive the coefficients of a block when
it is measured.  The DG solutions are streamed (`dg_solve(...,
stream=True)`): a table row's pass, and `run_profile`, read their
intervals in order, and they are stepped a few transform blocks ahead of
the reader, so a table row holds no full coefficient array at all.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .basis import legendre_table
from .dg import PiecewiseLegendre, dg_solve, state_norm
from .mesh import time_values, uniform_mesh
from .models import Heat1dConfig, Heat2dConfig, heat1d_problem, heat2d_problem, ode_problem
from .postprocess import reconstruct
from .reference import Heat1dReference, Heat2dReference, ode_exact, richardson
from .system import MAX_DEGREE

__all__ = [
    "TableRow",
    "ConvergenceTable",
    "ExtrapolatedSolution",
    "max_error_sampled",
    "observed_rates",
    "run_experiment",
    "run_profile",
    "TableSpec",
    "main",
]

DEFAULT_SAMPLES = 50
HEAT_N_LIST = (8, 16, 32, 64, 128)
# most sample times x state entries one block of an error measurement holds
MEASURE_BLOCK_ELEMENTS = 2 ** 16


class ExtrapolatedSolution(PiecewiseLegendre):
    """Richardson combination of solutions on spatial grids h and h/2.

    Both members must share the time mesh and the coefficient count.
    Richardson extrapolation is linear, so it is applied to the Legendre
    coefficients rather than to every sample; the solution keeps its two
    members and combines their coefficients one block of intervals at a
    time.  The result lives on the coarse grid, which also supplies the
    norm weight.
    """

    def __init__(self, coarse, fine):
        if not np.array_equal(coarse.mesh.nodes, fine.mesh.nodes):
            raise ValueError("extrapolation partners must share the time mesh")
        if fine.degree_count != coarse.degree_count:
            raise ValueError("extrapolation partners must share the coefficient count")
        if fine.dim != 2 * coarse.dim + 1:
            raise ValueError("fine grid must refine the coarse grid by exactly 2")
        super().__init__(coarse.mesh, coarse.degree_count, coarse.dim, coarse.norm_weight)
        self._coarse, self._fine = coarse, fine

    def coefficients(self, idx) -> np.ndarray:
        return richardson(self._coarse.coefficients(idx), self._fine.coefficients(idx))


def _reference_values(reference, ts: np.ndarray) -> np.ndarray:
    """The reference states at the 1-D times ts in one call, shape (len(ts), M)."""
    return time_values(reference, ts).reshape(len(ts), -1)


def _blocks(mesh, taus: np.ndarray, dim: int, start: int, end: int):
    """Yield (idx, ts): slices of the 0-based intervals start..end - 1 and their
    sample times, shape (B, len(taus)), in blocks of at most MEASURE_BLOCK_ELEMENTS
    sample times x dim state entries (one interval when that alone holds more)."""
    block = max(1, MEASURE_BLOCK_ELEMENTS // (taus.size * dim))
    for lo in range(start, end, block):
        hi = min(lo + block, end)
        yield slice(lo, hi), mesh.to_physical(np.arange(lo + 1, hi + 1), taus)


def max_error_sampled(approx, reference, samples_per_interval: int = DEFAULT_SAMPLES,
                      weight=None, window: tuple[float, float] | None = None,
                      nodal=False, min_interval=1):
    """Maximum sampled (weighted) error of a piecewise solution.

    approx is a PiecewiseLegendre (mesh, degree_count, dim, norm_weight);
    reference is a function of time (`time_values`): called with an array of
    times, it returns one exact state per time.  With
    nodal=True only the left limits at the mesh nodes enter.  weight is the
    exponent alpha of min(t^alpha, 1).  The window selects whole intervals:
    interval n counts exactly when its right node t_n lies inside, and then
    all of its samples count, so a window starting at a break point still
    sees the one-sided values just left of it.  min_interval skips leading
    intervals (the sampled sup on I_1 is dominated by the reduced regularity
    at t = 0, and some references cannot be evaluated there).

    approx may also be a sequence of piecewise solutions on one mesh; weight,
    nodal and min_interval then each take one value for all of them or a
    sequence with one entry per solution, and the result is a list with one
    maximum per solution.  The reference is evaluated once per sample time
    for the whole sequence.  Intervals are measured in blocks of at most
    MEASURE_BLOCK_ELEMENTS sample times x state entries (one interval when
    a single interval holds more).  Raises ValueError when a solution has
    no interval to measure and when a measured error is not finite.
    """
    many = isinstance(approx, (list, tuple))
    approxes = list(approx) if many else [approx]

    def per_entry(value, name):
        if not (many and isinstance(value, (list, tuple))):
            return [value] * len(approxes)
        if len(value) != len(approxes):
            raise ValueError(f"{name} needs one entry per approximation")
        return list(value)

    weights = per_entry(weight, "weight")
    nodals = per_entry(nodal, "nodal")
    firsts = per_entry(min_interval, "min_interval")
    mesh = approxes[0].mesh
    if any(not np.array_equal(a.mesh.nodes, mesh.nodes) for a in approxes[1:]):
        raise ValueError("measured solutions must share the time mesh")
    if samples_per_interval < 2:
        raise ValueError("need at least 2 samples per interval (both endpoints)")
    lo, hi = window if window is not None else (mesh.nodes[0], mesh.nodes[-1])
    if not hi > lo:
        raise ValueError("empty error window")
    tol = 1e-12 * mesh.T

    # counted[c][n - 1]: interval n enters the maximum of solution c
    right = mesh.nodes[1:]
    in_window = (lo - tol <= right) & (right <= hi + tol)
    counted = [in_window & (np.arange(1, mesh.N + 1) >= first) for first in firsts]
    for mask, first in zip(counted, firsts):
        if not np.any(mask):
            raise ValueError(f"no interval to measure: window [{lo}, {hi}] holds no node "
                             f"t_n with n >= {first} of the N = {mesh.N} mesh")
    # the window and the leading skips leave one contiguous run of intervals
    measured = np.nonzero(np.any(counted, axis=0))[0]  # interval n - 1, 0-based
    first_measured, end_measured = int(measured[0]), int(measured[-1]) + 1

    # nodal values are the tau = 1 samples, the last of the grid
    taus = np.array([1.0]) if all(nodals) else np.linspace(-1.0, 1.0, samples_per_interval)
    tables = [legendre_table(a.degree_count - 1, taus) for a in approxes]
    worst = [0.0] * len(approxes)
    for idx, ts in _blocks(mesh, taus, approxes[0].dim, first_measured, end_measured):
        refs = _reference_values(reference, ts.ravel()).reshape(ts.shape + (-1,))
        # one coefficient block per distinct solution: U is measured twice
        # in [U, U*, U], and a derived solution computes its block on every call.
        # The last block's views go first, so no stream steps its next chunk
        # while a view keeps the dropped one alive
        blocks, coeffs = {}, None
        for c, sol in enumerate(approxes):
            rows = counted[c][idx]
            if not np.any(rows):
                continue
            if id(sol) not in blocks:
                blocks[id(sol)] = sol.coefficients(idx)
            coeffs = blocks[id(sol)]
            if nodals[c]:
                t, diff = ts[:, -1], coeffs.sum(axis=1) - refs[:, -1]
            else:
                t, diff = ts, tables[c] @ coeffs - refs
            errs = np.sqrt(sol.norm_weight) * np.linalg.norm(diff, axis=-1)
            if weights[c] is not None:
                # a negative exponent gives inf at t = 0, and min(inf, 1) = 1
                with np.errstate(divide="ignore"):
                    errs = errs * np.minimum(t ** weights[c], 1.0)
            block_max = float(np.max(errs[rows]))
            if not math.isfinite(block_max):  # max() would drop a NaN silently
                raise ValueError(f"non-finite error {block_max} on intervals "
                                 f"{idx.start + 1}..{idx.stop} of approximation {c}")
            worst[c] = max(worst[c], block_max)
    return worst if many else worst[0]


def _check_doubling(n_values: Sequence[int]) -> None:
    for a, b in zip(n_values, n_values[1:]):
        if b != 2 * a:
            raise ValueError(f"N values must double between rows, got {list(n_values)}")


def observed_rates(errors: Sequence[float], n_values: Sequence[int] | None = None) -> list[float]:
    """Rates log2(e_i / e_{i+1}) between consecutive rows of a halving study."""
    if n_values is not None:
        _check_doubling(n_values)
    return [float(np.log2(a / b)) for a, b in zip(errors, errors[1:])]


@dataclass
class TableRow:
    N: int
    P: int
    err_u: float
    rate_u: float | None
    err_ustar: float
    rate_ustar: float | None
    err_nodal: float
    rate_nodal: float | None


@dataclass
class ConvergenceTable:
    """Rows of a convergence study plus descriptors of how errors are measured."""

    experiment: str
    norm: str
    weight: str
    window: str
    rows: list[TableRow]

    CSV_HEADER = "N,P,err_U,rate_U,err_Ustar,rate_Ustar,err_nodal,rate_nodal"

    def to_csv(self) -> str:
        def cell(v):
            return "" if v is None else repr(float(v))

        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(",".join([str(r.N), str(r.P), cell(r.err_u), cell(r.rate_u),
                                   cell(r.err_ustar), cell(r.rate_ustar),
                                   cell(r.err_nodal), cell(r.rate_nodal)]))
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        def err(v):
            return f"{v:.2e}"

        def rate(v):
            return "" if v is None else f"{v:.3f}"

        head = (f"## {self.experiment}  (norm: {self.norm}, weight: {self.weight}, "
                f"window: {self.window})")
        lines = [
            head,
            "",
            "| N | P | err_U | rate | err_U* | rate | err_nodal | rate |",
            "|---:|---:|---:|---:|---:|---:|---:|---:|",
        ]
        for r in self.rows:
            lines.append(f"| {r.N} | {r.P} | {err(r.err_u)} | {rate(r.rate_u)} | "
                         f"{err(r.err_ustar)} | {rate(r.rate_ustar)} | "
                         f"{err(r.err_nodal)} | {rate(r.rate_nodal)} |")
        return "\n".join(lines) + "\n"


def _attach_rates(rows_raw: list[tuple[int, int, float, float, float]]) -> list[TableRow]:
    ns = [row[0] for row in rows_raw]
    cols = list(zip(*[(r[2], r[3], r[4]) for r in rows_raw]))
    rates = [observed_rates(col, ns) for col in cols]
    out = []
    for i, (n, p, eu, es, en) in enumerate(rows_raw):
        pick = lambda c: None if i == 0 else rates[c][i - 1]
        out.append(TableRow(n, p, eu, pick(0), es, pick(1), en, pick(2)))
    return out


def _weight_exponents(r: int, weighted: float | None) -> tuple[float | None, float | None, float | None]:
    """Per-column weight exponents from the regularity deficit.

    The three error families converge at orders r, r + 1 and 2r - 1, so a
    data regularity deficit alpha is compensated by the weight exponents
    r - alpha, r + 1 - alpha and 2r - 1 - alpha.
    """
    if weighted is None:
        return None, None, None
    return r - weighted, r + 1 - weighted, 2 * r - 1 - weighted


def _reference_floor(T: float, n_list: Sequence[int], cutoff: bool, samples: int) -> float:
    """Smallest positive time the reference will be asked for.

    Without a cutoff that is the first sample inside I_1 on the finest mesh.
    With the cutoff window the first included interval is the one whose
    right node reaches T/4, and its samples extend down to its left node,
    or to its first interior sample when that node is t = 0.
    """
    floors = []
    for n in n_list if cutoff else (max(n_list),):
        left = (math.ceil(n / 4.0) - 1) * T / n if cutoff else 0.0
        floors.append(left if left > 0 else (T / n) / (samples - 1))
    return min(floors)


# per-experiment defaults of the TableSpec fields; the ODE has no spatial
# grid and reports P = 1
_DEFAULTS = {
    "ode": dict(r=4, p=1, n_list=(4, 8, 16, 32, 64, 128), samples=DEFAULT_SAMPLES, moments="gauss"),
    "heat1d": dict(r=3, p=500, n_list=HEAT_N_LIST, samples=DEFAULT_SAMPLES, moments="gauss"),
    "heat2d": dict(r=3, p=50, n_list=HEAT_N_LIST, samples=4, moments="radau"),
}
# the forcing moment rules of `dg_solve`
_MOMENTS = ("gauss", "radau")


def _refuse(what: str, given: dict) -> None:
    """Reject a request that gives any of the options it takes none of."""
    if any(given.values()):
        raise ValueError(f"{what} takes no " + ", ".join(name for name, on in given.items() if on))


@dataclass(frozen=True)
class TableSpec:
    """One run of the CLI: a convergence table, or with profile=True an error profile.

    The fields are the CLI's options (n_list is --N, p is --P).  Building a
    spec replaces each None by its per-experiment default, except that a
    profile samples DEFAULT_SAMPLES points per interval for every
    experiment, and makes n_list a tuple.  The ode's p and a profile's
    moments may only be given as those defaults, so `replace` rebuilds a
    built spec.  A bad request raises ValueError, before anything is built
    or solved, in this order: an unknown experiment; a profile without
    exactly one N or with weighted, cutoff, homogeneous or another moments;
    the ode with another p or homogeneous; a non-integer r, r below 1 or
    above MAX_DEGREE; an empty N list, a non-integer N, an N below 1 or a
    non-doubling N list; a non-integer p; a weighted that is not a real
    number or not finite; a non-integer samples or fewer than 2 samples;
    moments other than "gauss" and "radau".  numpy integers are integers.
    """

    experiment: str
    r: int | None = None
    n_list: Sequence[int] | None = None
    p: int | None = None
    weighted: float | None = None
    cutoff: bool = False
    homogeneous: bool = False
    samples: int | None = None
    moments: str | None = None
    profile: bool = False

    def __post_init__(self):
        if self.experiment not in _DEFAULTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        defaults = _DEFAULTS[self.experiment]
        if self.profile:
            if self.n_list is None or len(self.n_list) != 1:
                raise ValueError("--profile needs exactly one value in --N")
            _refuse("--profile", {"--weighted": self.weighted is not None, "--cutoff": self.cutoff,
                                  "--homogeneous": self.homogeneous,
                                  "--moments": self.moments not in (None, defaults.get("moments"))})
        if self.experiment == "ode":  # it has no grid or forcing switch
            _refuse("the ode experiment", {"p": self.p not in (None, defaults["p"]),
                                           "homogeneous": self.homogeneous})
        if self.profile and self.samples is None:
            object.__setattr__(self, "samples", DEFAULT_SAMPLES)  # for every experiment
        for name, value in defaults.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        object.__setattr__(self, "n_list", tuple(self.n_list))
        if not isinstance(self.r, numbers.Integral):
            raise ValueError(f"r must be an integer, got {self.r!r}")
        if self.r < 1:
            raise ValueError(f"r must be at least 1, got {self.r}")
        if self.r > MAX_DEGREE:  # the step solver's own message
            raise ValueError(f"r={self.r} is outside the supported range 1..{MAX_DEGREE} "
                             "of the step solver")
        if len(self.n_list) == 0:
            raise ValueError("the N list is empty")
        if not all(isinstance(n, numbers.Integral) for n in self.n_list):
            raise ValueError(f"N values must be integers, got {list(self.n_list)}")
        if min(self.n_list) < 1:
            raise ValueError(f"N values must be at least 1, got {list(self.n_list)}")
        _check_doubling(self.n_list)
        if not isinstance(self.p, numbers.Integral):
            raise ValueError(f"p must be an integer, got {self.p!r}")
        if self.weighted is not None and not isinstance(self.weighted, numbers.Real):
            raise ValueError(f"weighted must be a real number, got {self.weighted!r}")
        if self.weighted is not None and not math.isfinite(self.weighted):
            raise ValueError(f"weighted must be finite, got {self.weighted}")
        if not isinstance(self.samples, numbers.Integral):
            raise ValueError(f"samples must be an integer, got {self.samples!r}")
        if self.samples < 2:
            raise ValueError("need at least 2 samples per interval (both endpoints)")
        if self.moments not in _MOMENTS:  # dg_solve's own message
            raise ValueError(f"unknown moment quadrature {self.moments!r}")


def _solver(problem, spec):
    def solve(mesh):
        sol = dg_solve(problem, mesh, spec.r, moment_quadrature=spec.moments, stream=True)
        return sol, reconstruct(sol)

    return solve


def _study(spec: TableSpec) -> tuple[float, str, Callable, Callable]:
    """(T, norm, solve, make_reference): spec's experiment as the tables measure it.

    solve maps a time mesh to the measured solution and its reconstruction,
    streamed (read forward only, stepped while read); make_reference maps
    t_lo to the exact solution on [t_lo, T].
    """
    if spec.experiment == "ode":
        problem = ode_problem()
        return problem.T, "abs", _solver(problem, spec), lambda t_lo: ode_exact
    drop = {"forcing": None} if spec.homogeneous else {}  # the problem's forcing is the one switch
    if spec.experiment == "heat1d":
        # Richardson extrapolation from the spatial grids P and 2P
        cfg = Heat1dConfig(P=spec.p)
        prob_c, prob_f = (replace(heat1d_problem(c), **drop) for c in (cfg, cfg.refined()))
        solve_c, solve_f = _solver(prob_c, spec), _solver(prob_f, spec)

        def solve(mesh):
            (sol_c, star_c), (sol_f, star_f) = solve_c(mesh), solve_f(mesh)
            return ExtrapolatedSolution(sol_c, sol_f), ExtrapolatedSolution(star_c, star_f)

        return (cfg.T, "discrete-L2(h)", solve,
                lambda t_lo: Heat1dReference(cfg, prob_c.forcing, t_lo, cfg.T))
    cfg = Heat2dConfig(Px=spec.p, Py=spec.p)
    problem = replace(heat2d_problem(cfg), **drop)
    return (cfg.T, "discrete-L2(hx*hy)", _solver(problem, spec),
            lambda t_lo: Heat2dReference(problem, t_lo, cfg.T))


def run_experiment(experiment: str, r: int | None = None,
                   n_list: Sequence[int] | None = None, p: int | None = None,
                   weighted: float | None = None, cutoff: bool = False,
                   homogeneous: bool = False, samples: int | None = None,
                   moments: str | None = None) -> ConvergenceTable:
    """Run one of the built-in convergence experiments.

    weighted, when given, is the regularity deficit alpha of the initial
    data; see _weight_exponents.  homogeneous switches off the forcing.
    Arguments left None take per-experiment defaults: the 2D study measures
    on a coarse grid of 4 points per interval and integrates the forcing
    moments by the Radau rule (the Radau IIA form of the stepper); the
    others use 50 points and near-exact Gauss moments.  heat1d is
    Richardson-extrapolated from the grids P and 2P.  A bad request raises
    ValueError (see TableSpec) before anything is built or solved.
    """
    return _table(TableSpec(experiment, r, n_list, p, weighted, cutoff, homogeneous, samples,
                            moments))


def _table(spec: TableSpec) -> ConvergenceTable:
    T, norm, solve, make_reference = _study(spec)
    reference = make_reference(_reference_floor(T, spec.n_list, spec.cutoff, spec.samples))
    exps = _weight_exponents(spec.r, spec.weighted)
    window = (T / 4.0, T) if spec.cutoff else None
    # weighted full-window runs measure the sampled sups from I_2 on (the
    # nodal maximum still sees every node, including t_1)
    first = 2 if spec.experiment != "ode" and spec.weighted is not None else 1
    raw = []
    for n in spec.n_list:
        # one pass: err_U, err_U* and the nodal column share every reference
        # value, and the row is stepped while it is measured
        sol, star = solve(uniform_mesh(T, n))
        errors = max_error_sampled([sol, star, sol], reference, spec.samples, exps, window,
                                   nodal=[False, False, True], min_interval=[first, first, 1])
        del sol, star  # freed before the next row is set up
        raw.append((n, spec.p, *errors))
    weight_desc = "none" if spec.weighted is None else f"min(t^(order-{spec.weighted}),1)"
    window_desc = f"[{T / 4}, {T}]" if spec.cutoff else "full"
    return ConvergenceTable(spec.experiment, norm, weight_desc, window_desc, _attach_rates(raw))


def run_profile(experiment: str, r: int | None = None, n: int = 8,
                p: int | None = None, samples: int | None = None) -> str:
    """Per-sample error profile data: t, U - u, U - U* (norms for PDE states).

    The profiled solution is the one run_experiment measures: heat1d is
    Richardson-extrapolated from the grids P and 2P, heat2d uses Radau
    moments.  samples defaults to 50 for every experiment.  For the scalar
    ODE the two columns are signed differences, matching the usual
    error-profile plots; for the PDEs they are discrete norms.  The
    solutions are read in the blocks of `max_error_sampled` (`_blocks`), the
    reference is called once per interval.  A bad request raises ValueError (see
    TableSpec) before anything is built or solved.
    """
    return _profile(TableSpec(experiment, r, (n,), p, samples=samples, profile=True))


def _profile(spec: TableSpec) -> str:
    T, _, solve, make_reference = _study(spec)
    reference = make_reference(_reference_floor(T, spec.n_list, spec.cutoff, spec.samples))
    sol, recon = solve(uniform_mesh(T, spec.n_list[0]))
    scalar = spec.experiment == "ode"
    taus = np.linspace(-1.0, 1.0, spec.samples)
    tables = [legendre_table(x.degree_count - 1, taus) for x in (sol, recon)]
    lines = ["t,U_minus_u,U_minus_Ustar"]
    for idx, ts in _blocks(sol.mesh, taus, sol.dim, 0, sol.mesh.N):
        # one reference call per interval: a call per block moves the bits
        rvals = np.concatenate([_reference_values(reference, row) for row in ts])
        # U and U* on the block, (B * samples, M) each: the streams are read forward
        uvals, svals = ((tab @ x.coefficients(idx)).reshape(-1, x.dim)
                        for tab, x in zip(tables, (sol, recon)))
        for t, u, s, ref in zip(ts.ravel(), uvals, svals, rvals):
            if scalar:
                a = u[0] - ref[0]
                b = u[0] - s[0]
            else:
                a = state_norm(u - ref, sol.norm_weight)
                b = state_norm(u - s, sol.norm_weight)
            lines.append(f"{float(t)!r},{float(a)!r},{float(b)!r}")
    return "\n".join(lines) + "\n"


def _parse_n_list(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise SystemExit(f"invalid --N list: {text!r}") from exc


def _parser() -> argparse.ArgumentParser:
    """The CLI: a subcommand per experiment, an option per TableSpec field, --format and --out."""
    import argparse  # here, so that importing dgtime loads no argparse

    parser = argparse.ArgumentParser(
        prog="dgtime",
        description="Convergence benchmarks for DG time stepping of parabolic problems",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in _DEFAULTS:
        q = sub.add_parser(name, help=f"run the {name} experiment")
        q.add_argument("--r", type=int, default=None, help="polynomial degree count")
        q.add_argument("--N", type=str, default=None, help="comma list of step counts")
        q.add_argument("--P", type=int, default=None, help="spatial intervals")
        q.add_argument("--weighted", type=float, default=None, metavar="ALPHA",
                       help="weighted errors with regularity deficit ALPHA")
        q.add_argument("--cutoff", action="store_true",
                       help="restrict errors to the window [T/4, T]")
        q.add_argument("--homogeneous", action="store_true", help="drop the forcing")
        q.add_argument("--samples", type=int, default=None,
                       help="sample points per interval (default 50; 4 for heat2d tables)")
        q.add_argument("--moments", choices=_MOMENTS, default=None,
                       help="forcing moment quadrature (default gauss; radau for heat2d)")
        q.add_argument("--format", choices=("csv", "md"), default="md")
        q.add_argument("--out", type=str, default=None)
        q.add_argument("--profile", action="store_true",
                       help="dump per-sample error profile data instead of a table "
                            "(no --weighted, --cutoff, --homogeneous or non-default --moments)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = TableSpec(args.experiment, args.r, _parse_n_list(args.N), args.P, args.weighted,
                         args.cutoff, args.homogeneous, args.samples, args.moments, args.profile)
        if spec.profile:
            text = _profile(spec)
        else:
            table = _table(spec)
            text = table.to_csv() if args.format == "csv" else table.to_markdown()
    except ValueError as exc:  # a bad request ends with its message, not a traceback
        raise SystemExit(str(exc)) from exc

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
