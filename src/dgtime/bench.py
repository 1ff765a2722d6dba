"""Benchmark harness: error norms, convergence tables, and the CLI.

Errors are estimated by sampling each time interval on an equispaced
reference grid (both endpoints included, so the one-sided limits at the
break points are seen), optionally restricted to a window or damped by the
weight min(t^alpha, 1).  Tables report errors of the DG solution, of its
reconstruction, and of the nodal values, with observed rates between
consecutive mesh halvings.

Each table row is measured in one pass over its intervals, walked in
blocks of whole intervals that hold at most MEASURE_BLOCK_ELEMENTS sample
times x state entries (or one interval, when that alone holds more).  Per block the reference is evaluated once, and the
values are shared by the three columns: the nodal value at t_n is the
tau = 1 sample of interval n.  Each piecewise solution is sampled on all
intervals of a block by one stacked matrix product.  The Richardson
extrapolation of the 1D solutions is linear, so it is applied to the
Legendre coefficients rather than to every sample, one block at a time:
the extrapolated solution and the reconstruction are views that derive
the coefficients of a block when it is measured, so no full coefficient
array besides the DG solutions is held.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .basis import legendre_table
from .dg import PiecewiseLegendreView, dg_solve, state_norm
from .mesh import uniform_mesh
from .models import Heat1dConfig, Heat2dConfig, heat1d_problem, heat2d_problem, ode_problem
from .postprocess import reconstruct
from .reference import Heat1dReference, Heat2dReference, ode_exact, richardson

__all__ = [
    "TableRow",
    "ConvergenceTable",
    "ExtrapolatedSolution",
    "max_error_sampled",
    "observed_rates",
    "run_experiment",
    "run_profile",
    "main",
]

DEFAULT_SAMPLES = 50
HEAT2D_SAMPLES = 4
ODE_N_LIST = (4, 8, 16, 32, 64, 128)
HEAT_N_LIST = (8, 16, 32, 64, 128)
# most sample times x state entries one block of an error measurement holds
MEASURE_BLOCK_ELEMENTS = 2 ** 16


class ExtrapolatedSolution(PiecewiseLegendreView):
    """Richardson combination of solutions on spatial grids h and h/2.

    Both members must share the time mesh and the coefficient count.
    Richardson extrapolation is linear, so it is applied to the Legendre
    coefficients rather than to every sample; the view keeps its two
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
        self.mesh, self.norm_weight = coarse.mesh, coarse.norm_weight
        self.degree_count, self.dim = coarse.degree_count, coarse.dim
        self._coarse, self._fine = coarse, fine

    def coefficients(self, idx) -> np.ndarray:
        return richardson(self._coarse.coefficients(idx), self._fine.coefficients(idx))


class _OdeReference:
    """The closed-form ODE solution, evaluated on whole arrays of times."""

    @staticmethod
    def eval_many(ts) -> np.ndarray:
        return np.reshape(ode_exact(np.asarray(ts, dtype=float)), (-1, 1))


def _reference_values(reference, ts: np.ndarray) -> np.ndarray:
    if hasattr(reference, "eval_many"):
        return reference.eval_many(ts)
    return np.array([np.atleast_1d(np.asarray(reference(t), dtype=float)) for t in ts])


def max_error_sampled(approx, reference, samples_per_interval: int = DEFAULT_SAMPLES,
                      weight=None, window: tuple[float, float] | None = None,
                      nodal=False, min_interval=1):
    """Maximum sampled (weighted) error of a piecewise solution.

    approx is a PiecewiseLegendre (.mesh, .coefficients) with a .norm_weight;
    reference maps t to the exact state, or offers eval_many(ts).  With
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
    no interval to measure.
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
    block = max(1, MEASURE_BLOCK_ELEMENTS // (taus.size * approxes[0].dim))
    worst = [0.0] * len(approxes)
    for start in range(first_measured, end_measured, block):
        stop = min(start + block, end_measured)
        idx = slice(start, stop)
        # TimeMesh.to_physical for every interval of the block, shape (B, S)
        a, b = mesh.nodes[start:stop, None], mesh.nodes[start + 1:stop + 1, None]
        ts = 0.5 * ((1.0 - taus) * a + (1.0 + taus) * b)
        refs = _reference_values(reference, ts.ravel()).reshape(stop - start, taus.size, -1)
        # one coefficient block per distinct solution: U is measured twice
        # in [U, U*, U], and a view computes its block on every call
        blocks = {}
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
            errs = np.sqrt(getattr(sol, "norm_weight", 1.0)) * np.linalg.norm(diff, axis=-1)
            if weights[c] is not None:
                errs = errs * np.minimum(t ** weights[c], 1.0)
            worst[c] = max(worst[c], float(np.max(errs[rows])))
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


def _window(T: float, cutoff: bool) -> tuple[float, float] | None:
    return (T / 4.0, T) if cutoff else None


def _sample_floor(T: float, n_max: int, samples: int) -> float:
    """Smallest positive sample time: the first interior grid point of I_1."""
    return (T / n_max) / (samples - 1)


def _reference_floor(T: float, n_list: Sequence[int], cutoff: bool, samples: int) -> float:
    """Smallest positive time the reference will be asked for.

    Without a cutoff that is the first sample inside I_1 on the finest mesh.
    With the cutoff window the first included interval is the one whose
    right node reaches T/4, and its samples extend down to its left node.
    """
    if not cutoff:
        return _sample_floor(T, max(n_list), samples)
    floors = []
    for n in n_list:
        first = math.ceil(n / 4.0)
        left = (first - 1) * T / n
        floors.append(left if left > 0 else _sample_floor(T, n, samples))
    return min(floors)


# per-experiment defaults of (r, P, N list, samples, moment quadrature); the
# ODE has no spatial grid and reports P = 1
_DEFAULTS = {
    "ode": (4, 1, ODE_N_LIST, DEFAULT_SAMPLES, "gauss"),
    "heat1d": (3, 500, HEAT_N_LIST, DEFAULT_SAMPLES, "gauss"),
    "heat2d": (3, 50, HEAT_N_LIST, HEAT2D_SAMPLES, "radau"),
}


def _with_defaults(experiment: str, *values) -> list:
    """(r, P, N list, samples, moments) with each None replaced by its default."""
    if experiment not in _DEFAULTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    return [d if v is None else v for v, d in zip(values, _DEFAULTS[experiment])]


def _check_ode_options(experiment: str, p=None, homogeneous=False) -> None:
    """Reject the PDE options for the ODE: it has no grid or forcing switch."""
    given = {"p": p is not None, "homogeneous": homogeneous}
    if experiment == "ode" and any(given.values()):
        raise ValueError("the ode experiment takes no "
                         + ", ".join(name for name, value in given.items() if value))


def _check_request(r: int, n_list: Sequence[int], samples: int) -> None:
    """Reject a bad request before anything is built or solved."""
    if r < 1:
        raise ValueError(f"r must be at least 1, got {r}")
    if len(n_list) == 0:
        raise ValueError("the N list is empty")
    _check_doubling(n_list)
    if samples < 2:
        raise ValueError("need at least 2 samples per interval (both endpoints)")


@dataclass
class _Study:
    """A built-in experiment as the tables measure it.

    solve maps a time mesh to the measured solution and its reconstruction;
    reference maps t_lo to the exact solution on [t_lo, T].  Weighted PDE
    runs measure the sampled sups from I_2 on (skip_first).
    """

    T: float
    P: int
    norm: str
    solve: Callable
    reference: Callable
    skip_first: bool


def _solver(problem, r, moments):
    def solve(mesh):
        sol = dg_solve(problem, mesh, r, moment_quadrature=moments)
        return sol, reconstruct(sol)

    return solve


def _study(experiment, r, p, moments, homogeneous=False) -> _Study:
    if experiment == "ode":
        problem = ode_problem()
        return _Study(problem.T, 1, "abs", _solver(problem, r, moments),
                      lambda t_lo: _OdeReference(), False)
    if experiment == "heat1d":
        # Richardson extrapolation from the spatial grids P and 2P
        cfg = Heat1dConfig(P=p, with_forcing=not homogeneous)
        prob_c, prob_f = heat1d_problem(cfg), heat1d_problem(cfg.refined())

        def solve(mesh):
            sol_c = dg_solve(prob_c, mesh, r, moment_quadrature=moments)
            sol_f = dg_solve(prob_f, mesh, r, moment_quadrature=moments)
            return (ExtrapolatedSolution(sol_c, sol_f),
                    ExtrapolatedSolution(reconstruct(sol_c), reconstruct(sol_f)))

        return _Study(cfg.T, p, "discrete-L2(h)", solve,
                      lambda t_lo: Heat1dReference(cfg, t_lo, cfg.T), True)
    cfg = Heat2dConfig(Px=p, Py=p, with_forcing=not homogeneous)
    problem = heat2d_problem(cfg)
    return _Study(cfg.T, p, "discrete-L2(hx*hy)", _solver(problem, r, moments),
                  lambda t_lo: Heat2dReference(problem, t_lo, cfg.T), True)


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
    Richardson-extrapolated from the grids P and 2P.  Raises ValueError for
    r < 1, an empty or non-doubling N list or fewer than 2 samples, before
    anything is solved, and for the ode with p or homogeneous.
    """
    _check_ode_options(experiment, p, homogeneous)
    r, p, n_list, samples, moments = _with_defaults(experiment, r, p, n_list, samples, moments)
    n_list = tuple(n_list)
    _check_request(r, n_list, samples)
    study = _study(experiment, r, p, moments, homogeneous)
    reference = study.reference(_reference_floor(study.T, n_list, cutoff, samples))
    exps = _weight_exponents(r, weighted)
    window = _window(study.T, cutoff)
    skip_first = study.skip_first and weighted is not None
    raw = []
    for n in n_list:
        # no name holds a row's solutions, so they are freed before the next solve
        errors = _row_errors(*study.solve(uniform_mesh(study.T, n)), reference, exps,
                             window, samples, skip_first)
        raw.append((n, study.P, *errors))
    weight_desc, window_desc = _descriptors(weighted, cutoff, study.T)
    return ConvergenceTable(experiment, study.norm, weight_desc, window_desc,
                            _attach_rates(raw))


def _descriptors(weighted, cutoff, T):
    weight_desc = "none" if weighted is None else f"min(t^(order-{weighted}),1)"
    window_desc = f"[{T / 4}, {T}]" if cutoff else "full"
    return weight_desc, window_desc


def _row_errors(approx, approx_star, reference, exps, window, samples, skip_first=False):
    # one pass: err_U, err_U* and the nodal column share every reference
    # value.  Weighted full-window runs measure the sampled sups from I_2 on
    # (the nodal maximum still sees every node, including t_1)
    first = 2 if skip_first else 1
    return tuple(max_error_sampled([approx, approx_star, approx], reference, samples, exps,
                                   window, nodal=[False, False, True],
                                   min_interval=[first, first, 1]))


def run_profile(experiment: str, r: int | None = None, n: int = 8,
                p: int | None = None, samples: int | None = None) -> str:
    """Per-sample error profile data: t, U - u, U - U* (norms for PDE states).

    The profiled solution is the one run_experiment measures: heat1d is
    Richardson-extrapolated from the grids P and 2P, heat2d uses Radau
    moments.  samples defaults to 50 for every experiment.  For the scalar
    ODE the two columns are signed differences, matching the usual
    error-profile plots; for the PDEs they are discrete norms.  Raises
    ValueError for the ode with a p.
    """
    _check_ode_options(experiment, p)
    r, p, _, _, moments = _with_defaults(experiment, r, p, None, None, None)
    samples = DEFAULT_SAMPLES if samples is None else samples
    _check_request(r, (n,), samples)
    study = _study(experiment, r, p, moments)
    reference = study.reference(_sample_floor(study.T, n, samples))
    mesh = uniform_mesh(study.T, n)
    sol, recon = study.solve(mesh)
    scalar = experiment == "ode"
    taus = np.linspace(-1.0, 1.0, samples)
    lines = ["t,U_minus_u,U_minus_Ustar"]
    for m in range(1, mesh.N + 1):
        ts = mesh.to_physical(m, taus)
        uvals = sol.sample_interval(m, taus)
        svals = recon.sample_interval(m, taus)
        rvals = _reference_values(reference, ts)
        for i, t in enumerate(ts):
            if scalar:
                a = uvals[i, 0] - rvals[i, 0]
                b = uvals[i, 0] - svals[i, 0]
            else:
                a = state_norm(uvals[i] - rvals[i], sol.norm_weight)
                b = state_norm(uvals[i] - svals[i], sol.norm_weight)
            lines.append(f"{float(t)!r},{float(a)!r},{float(b)!r}")
    return "\n".join(lines) + "\n"


def _parse_n_list(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise SystemExit(f"invalid --N list: {text!r}") from exc


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dgtime",
        description="Convergence benchmarks for DG time stepping of parabolic problems",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in ("ode", "heat1d", "heat2d"):
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
                       help="sample points per interval (default 50; 4 for heat2d)")
        q.add_argument("--moments", choices=("gauss", "radau"), default=None,
                       help="forcing moment quadrature (default gauss; radau for heat2d)")
        q.add_argument("--format", choices=("csv", "md"), default="md")
        q.add_argument("--out", type=str, default=None)
        q.add_argument("--profile", action="store_true",
                       help="dump per-sample error profile data instead of a table")
    args = parser.parse_args(argv)

    n_list = _parse_n_list(args.N)
    try:
        if args.profile:
            if n_list is None or len(n_list) != 1:
                raise SystemExit("--profile needs exactly one value in --N")
            text = run_profile(args.experiment, r=args.r, n=n_list[0], p=args.P,
                               samples=args.samples)
        else:
            table = run_experiment(args.experiment, r=args.r, n_list=n_list, p=args.P,
                                   weighted=args.weighted, cutoff=args.cutoff,
                                   homogeneous=args.homogeneous, samples=args.samples,
                                   moments=args.moments)
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
