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
block the coefficients of every measured solution are read first, then
the reference, a function of time (`mesh.time_values`), is called once
with all of the block's sample times, and the values are shared by the
three columns: the nodal value at t_n is the tau = 1 sample of interval
n.  A block's arrays are released before the next block is read.  Each
piecewise solution is sampled on all intervals of a block by one stacked
matrix product.  The Richardson extrapolation of the 1D solutions is
linear, so it is applied to the Legendre coefficients rather than to
every sample, one block at a time: the extrapolated solution and the
reconstruction derive the coefficients of a block when it is measured.
The DG solutions are streamed (`dg_solve(...,
stream=True)`): a table row's pass, and `run_profile`, read their
intervals in order, and they are stepped a few transform blocks ahead of
the reader, so a table row holds no full coefficient array at all.  The
steps run inside a block's coefficient read, before its reference call,
so no block of reference values is held while a chunk is stepped.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Sequence

import numpy as np

from .basis import legendre_table
from .dg import PiecewiseLegendre, dg_solve, state_norm
from .mesh import is_integer, time_values, uniform_mesh
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

    approx may also be a list or tuple of piecewise solutions on one mesh;
    weight, nodal and min_interval then each take one value for all of them or
    a list, tuple or 1-D array with one entry per solution, and the result is
    a list with one maximum per solution.  The reference is evaluated once per
    sample time for the whole sequence.  Intervals are measured in blocks of
    at most MEASURE_BLOCK_ELEMENTS sample times x state entries (one interval
    when a single interval holds more).  Raises ValueError when a solution has
    no interval to measure and when a measured error is not finite.
    """
    many = isinstance(approx, (list, tuple))
    approxes = list(approx) if many else [approx]

    def per_entry(value, name):
        if not (many and np.ndim(value) == 1):  # a list, tuple or 1-D array
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
    if not is_integer(samples_per_interval):
        raise ValueError(f"samples_per_interval must be an integer, got {samples_per_interval!r}")
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
        # one coefficient block per distinct counted solution (U is measured
        # twice in [U, U*, U], and a derived solution computes its block on
        # every call), read before the reference: a stream steps here, with
        # no block of reference values beside it
        blocks = {}
        for c, sol in enumerate(approxes):
            if np.any(counted[c][idx]) and id(sol) not in blocks:
                blocks[id(sol)] = sol.coefficients(idx)
        refs = _reference_values(reference, ts.ravel()).reshape(ts.shape + (-1,))
        for c, sol in enumerate(approxes):
            rows = counted[c][idx]
            if not np.any(rows):
                continue
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
        # every block counts some solution, so all of these are bound; released
        # here, so no stream steps its next chunk while a view keeps the dropped one
        del blocks, refs, coeffs, diff, errs
    return worst if many else worst[0]


def _check_doubling(n_values: Sequence[int]) -> None:
    for a, b in zip(n_values, n_values[1:]):
        if b != 2 * a:
            raise ValueError(f"N values must double between rows, got {list(n_values)}")


def observed_rates(errors: Sequence[float], n_values: Sequence[int] | None = None) -> list[float]:
    """Rates log2(e_i / e_{i+1}) between consecutive rows of a halving study.

    Raises ValueError for n_values without one entry per error and for
    n_values that do not double, and names the first row (1-based) whose
    error is not positive and finite.
    """
    if n_values is not None:
        if len(n_values) != len(errors):
            raise ValueError(f"n_values needs one entry per error, got {len(n_values)} "
                             f"for {len(errors)} errors")
        _check_doubling(n_values)
    for i, e in enumerate(errors, 1):
        if not (math.isfinite(e) and e > 0):
            raise ValueError(f"error of row {i} must be positive and finite for a rate, "
                             f"got {float(e)!r}")
    return [float(np.log2(a / b)) for a, b in zip(errors, errors[1:])]


@dataclass
class TableRow:
    """One N of a convergence table; the field order is the column order of
    both outputs, each error followed by its observed rate (None on the first
    row)."""

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

    def _cells(self, error: str, rate: str) -> list[list[str]]:
        """Each row's cells in TableRow's field order: N and P as they are, each
        err_ and rate_ field as a float in the format spec error or rate, and a
        None (a first row's rate) as ''."""
        def cell(name, value):
            if name in ("N", "P"):
                return str(value)
            spec = rate if name.startswith("rate") else error
            return "" if value is None else format(float(value), spec)

        return [[cell(f.name, getattr(row, f.name)) for f in fields(row)] for row in self.rows]

    def to_csv(self) -> str:
        # an empty spec formats a float as its repr, every digit
        return "\n".join([self.CSV_HEADER] + [",".join(c) for c in self._cells("", "")]) + "\n"

    def to_markdown(self) -> str:
        head = (f"## {self.experiment}  (norm: {self.norm}, weight: {self.weight}, "
                f"window: {self.window})")
        lines = [head, "", "| N | P | err_U | rate | err_U* | rate | err_nodal | rate |",
                 "|---:|---:|---:|---:|---:|---:|---:|---:|"]
        lines += [f"| {' | '.join(c)} |" for c in self._cells(".2e", ".3f")]
        return "\n".join(lines) + "\n"


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


def _option(flag: str, **argparse_keywords):
    """A TableSpec field that is a CLI option: its flag and its argparse keywords
    (help among them) are the field's metadata.  A switch (action="store_true")
    defaults to False, a valued option to None."""
    switch = argparse_keywords.get("action") == "store_true"
    return field(default=False if switch else None,
                 metadata={"flag": flag, "argparse": argparse_keywords})


def _refuse(what: str, given: dict) -> None:
    """Reject a request that gives any of the options it takes none of."""
    if any(given.values()):
        raise ValueError(f"{what} takes no " + ", ".join(name for name, on in given.items() if on))


@dataclass(frozen=True)
class TableSpec:
    """One run of the CLI: a convergence table, or with profile=True an error profile.

    Each field after experiment is a CLI option, with its flag and help in
    the field's metadata (n_list is --N, p is --P); `_parser` adds one
    argument per field, and `run_experiment` and `run_profile` take the
    fields as keywords.  weighted is the regularity deficit alpha of the
    initial data (see _weight_exponents); homogeneous switches off the
    forcing; heat1d is Richardson-extrapolated from the grids P and 2P.
    Building a spec replaces each None by its per-experiment default: the
    2D tables measure on a coarse grid of 4 points per interval and
    integrate the forcing moments by the Radau rule (the Radau IIA form of
    the stepper), the others use 50 points and near-exact Gauss moments,
    and a profile samples DEFAULT_SAMPLES points per interval for every
    experiment.  Building also makes n_list a tuple.  The ode's p and a
    profile's moments may only be given as those defaults, so `replace`
    rebuilds a built spec.  A bad request raises ValueError, before anything is
    built or solved, in this order: an unknown experiment; a cutoff,
    homogeneous or profile that is not a bool (a numpy bool is one); an n_list
    that is not one-dimensional (a list, tuple or 1-D array is; a str or a
    single N is not); a profile without exactly one N or with weighted,
    cutoff, homogeneous or another moments; the ode with another p or
    homogeneous; a non-integer r, r below 1 or above MAX_DEGREE; an empty N
    list, a non-integer N, an N below 1 or a non-doubling N list; a
    non-integer p; a weighted that is not a real number or not finite; a
    non-integer samples or fewer than 2 samples; moments other than "gauss"
    and "radau".  numpy integers are integers; a bool is neither an integer nor
    a real number here.
    """

    experiment: str
    r: int | None = _option("--r", type=int, help="polynomial degree count")
    n_list: Sequence[int] | None = _option("--N", metavar="N", help="comma list of step counts")
    p: int | None = _option("--P", type=int, help="spatial intervals")
    weighted: float | None = _option("--weighted", type=float, metavar="ALPHA",
                                     help="weighted errors with regularity deficit ALPHA")
    cutoff: bool = _option("--cutoff", action="store_true",
                           help="restrict errors to the window [T/4, T]")
    homogeneous: bool = _option("--homogeneous", action="store_true", help="drop the forcing")
    samples: int | None = _option(
        "--samples", type=int,
        help="sample points per interval (default 50; 4 for heat2d tables)")
    moments: str | None = _option(
        "--moments", choices=_MOMENTS,
        help="forcing moment quadrature (default gauss; radau for heat2d)")
    profile: bool = _option(
        "--profile", action="store_true",
        help="dump per-sample error profile data instead of a table "
             "(no --weighted, --cutoff, --homogeneous or non-default --moments)")

    def __post_init__(self):
        if self.experiment not in _DEFAULTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for option in fields(self):  # a switch is a field that defaults to False (_option)
            value = getattr(self, option.name)
            if option.default is False and not isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{option.name} must be a bool, got {value!r}")
        if self.n_list is not None and np.ndim(self.n_list) != 1:  # a str or an int is 0-D
            raise ValueError(f"n_list must be a sequence, got {self.n_list!r}")
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
        if not is_integer(self.r):
            raise ValueError(f"r must be an integer, got {self.r!r}")
        if self.r < 1:
            raise ValueError(f"r must be at least 1, got {self.r}")
        if self.r > MAX_DEGREE:  # the step solver's own message
            raise ValueError(f"r={self.r} is outside the supported range 1..{MAX_DEGREE} "
                             "of the step solver")
        if len(self.n_list) == 0:
            raise ValueError("the N list is empty")
        if not all(is_integer(n) for n in self.n_list):
            raise ValueError(f"N values must be integers, got {list(self.n_list)}")
        if min(self.n_list) < 1:
            raise ValueError(f"N values must be at least 1, got {list(self.n_list)}")
        _check_doubling(self.n_list)
        if not is_integer(self.p):
            raise ValueError(f"p must be an integer, got {self.p!r}")
        if self.weighted is not None and (not isinstance(self.weighted, numbers.Real)
                                          or isinstance(self.weighted, bool)):
            raise ValueError(f"weighted must be a real number, got {self.weighted!r}")
        if self.weighted is not None and not math.isfinite(self.weighted):
            raise ValueError(f"weighted must be finite, got {self.weighted}")
        if not is_integer(self.samples):
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
    """(T, norm, solve, reference): spec's experiment as the tables measure it.

    solve maps a time mesh to the measured solution and its reconstruction,
    streamed (read forward only, stepped while read); reference is the exact
    solution on [_reference_floor(...), T], built after the problems.
    """
    def span(T):  # the reference's time span
        return _reference_floor(T, spec.n_list, spec.cutoff, spec.samples), T

    if spec.experiment == "ode":
        problem = ode_problem()
        return problem.T, "abs", _solver(problem, spec), ode_exact
    drop = {"forcing": None} if spec.homogeneous else {}  # the problem's forcing is the one switch
    if spec.experiment == "heat1d":
        # Richardson extrapolation from the spatial grids P and 2P
        cfg = Heat1dConfig(P=spec.p)
        prob_c, prob_f = (replace(heat1d_problem(c), **drop) for c in (cfg, cfg.refined()))
        solve_c, solve_f = _solver(prob_c, spec), _solver(prob_f, spec)

        def solve(mesh):
            (sol_c, star_c), (sol_f, star_f) = solve_c(mesh), solve_f(mesh)
            return ExtrapolatedSolution(sol_c, sol_f), ExtrapolatedSolution(star_c, star_f)

        return cfg.T, "discrete-L2(h)", solve, Heat1dReference(cfg, prob_c.forcing, *span(cfg.T))
    cfg = Heat2dConfig(Px=spec.p, Py=spec.p)
    problem = replace(heat2d_problem(cfg), **drop)
    return (cfg.T, "discrete-L2(hx*hy)", _solver(problem, spec),
            Heat2dReference(problem, *span(cfg.T)))


def run_experiment(experiment: str, **options) -> ConvergenceTable:
    """The convergence table of TableSpec(experiment, **options).

    The options are TableSpec's fields, by keyword.  A bad request raises
    ValueError (see TableSpec) before anything is built or solved.
    """
    return _table(TableSpec(experiment, **options))


def _table(spec: TableSpec) -> ConvergenceTable:
    T, norm, solve, reference = _study(spec)
    exps = _weight_exponents(spec.r, spec.weighted)
    window = (T / 4.0, T) if spec.cutoff else None
    # weighted full-window runs measure the sampled sups from I_2 on (the
    # nodal maximum still sees every node, including t_1)
    first = 2 if spec.experiment != "ode" and spec.weighted is not None else 1
    errors = []  # (err_U, err_U*, err_nodal) per N
    for n in spec.n_list:
        # one pass: err_U, err_U* and the nodal column share every reference
        # value, and the row is stepped while it is measured
        sol, star = solve(uniform_mesh(T, n))
        errors.append(max_error_sampled([sol, star, sol], reference, spec.samples, exps, window,
                                        nodal=[False, False, True], min_interval=[first, first, 1]))
        del sol, star  # freed before the next row is set up
    # (rate_U, rate_U*, rate_nodal) per N, None on the first row
    rates = zip(*([None, *observed_rates(column, spec.n_list)] for column in zip(*errors)))
    rows = [TableRow(n, spec.p, *(cell for pair in zip(errs, row_rates) for cell in pair))
            for n, errs, row_rates in zip(spec.n_list, errors, rates)]
    weight_desc = "none" if spec.weighted is None else f"min(t^(order-{spec.weighted}),1)"
    window_desc = f"[{T / 4}, {T}]" if spec.cutoff else "full"
    return ConvergenceTable(spec.experiment, norm, weight_desc, window_desc, rows)


def run_profile(experiment: str, n: int = 8, **options) -> str:
    """Per-sample error profile data: t, U - u, U - U* (norms for PDE states).

    The profile of TableSpec(experiment, n_list=(n,), profile=True,
    **options), whose other fields are taken by keyword.  The profiled
    solution is the one run_experiment measures.  For the scalar
    ODE the two columns are signed differences, matching the usual
    error-profile plots; for the PDEs they are discrete norms.  The
    solutions are read in the blocks of `max_error_sampled` (`_blocks`), the
    reference is called once per interval.  A bad request raises ValueError (see
    TableSpec) before anything is built or solved.
    """
    return _profile(TableSpec(experiment, n_list=(n,), profile=True, **options))


def _profile(spec: TableSpec) -> str:
    T, _, solve, reference = _study(spec)
    sol, recon = solve(uniform_mesh(T, spec.n_list[0]))
    scalar = spec.experiment == "ode"
    taus = np.linspace(-1.0, 1.0, spec.samples)
    tables = [legendre_table(x.degree_count - 1, taus) for x in (sol, recon)]
    lines = ["t,U_minus_u,U_minus_Ustar"]
    for idx, ts in _blocks(sol.mesh, taus, sol.dim, 0, sol.mesh.N):
        # U and U* on the block, (B * samples, M) each, read before the
        # reference: the streams are read forward, stepped with no reference values held
        uvals, svals = ((tab @ x.coefficients(idx)).reshape(-1, x.dim)
                        for tab, x in zip(tables, (sol, recon)))
        # one reference call per interval: a call per block moves the bits
        rvals = np.concatenate([_reference_values(reference, row) for row in ts])
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
    """The CLI: a subcommand per experiment, an option per TableSpec field, --format and --out.

    Each option is added from its field's metadata, with the field's name as dest.
    """
    import argparse  # here, so that importing dgtime loads no argparse

    parser = argparse.ArgumentParser(
        prog="dgtime",
        description="Convergence benchmarks for DG time stepping of parabolic problems",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in _DEFAULTS:
        q = sub.add_parser(name, help=f"run the {name} experiment")
        for option in fields(TableSpec)[1:]:
            if option.name == "profile":  # the CLI's own options come just before it
                q.add_argument("--format", choices=("csv", "md"), default="md")
                q.add_argument("--out", type=str, default=None)
            q.add_argument(option.metadata["flag"], dest=option.name,
                           **option.metadata["argparse"])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        options = {option.name: getattr(args, option.name) for option in fields(TableSpec)}
        spec = TableSpec(**options | {"n_list": _parse_n_list(args.n_list)})
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
