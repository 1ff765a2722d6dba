import re
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dgtime.bench as bench
import dgtime.dg as dg
from dgtime.bench import (
    ConvergenceTable,
    ExtrapolatedSolution,
    TableSpec,
    main,
    max_error_sampled,
    observed_rates,
    run_experiment,
    run_profile,
)
from dgtime.basis import legendre_table
from dgtime.dg import DgSolution, PiecewiseLegendre, dg_solve, state_norm
from dgtime.mesh import TimeMesh, uniform_mesh
from dgtime.models import (
    Heat1dConfig,
    Heat2dConfig,
    fhat,
    heat1d_problem,
    heat2d_problem,
    ode_problem,
)
from dgtime.postprocess import reconstruct
from dgtime.reference import Heat1dReference, Heat2dReference, ode_exact, richardson

from dg_helpers import interval_values, left_limit, right_limit


def ode_solution(r=3, N=4):
    return dg_solve(ode_problem(), uniform_mesh(2.0, N), r)


def test_zero_error_when_reference_is_the_approximation():
    # the reconstruction is continuous, so sampling it against itself is exact
    from dgtime.postprocess import reconstruct

    sol = ode_solution()
    recon = reconstruct(sol)

    def reference(ts):
        # the reconstruction starts from u0, its value at t_0
        vals = np.empty(ts.shape + (1,))
        vals[ts > 0] = recon(ts[ts > 0])
        vals[ts <= 0] = sol.u0
        return vals

    assert max_error_sampled(recon, reference) <= 1e-13


def test_zero_weight_exponent_matches_unweighted():
    sol = ode_solution()
    ref = ode_exact
    assert max_error_sampled(sol, ref, weight=0.0) == max_error_sampled(sol, ref)


def test_negative_weight_exponent_at_t0_warns_nothing():
    # r = 1, alpha = 5/4: err_U is weighted by min(t^(-1/4), 1), inf capped
    # at 1 on the t = 0 sample
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = run_experiment("ode", r=1, n_list=(4, 8), weighted=1.25)
    for row in table.rows:
        sol = ode_solution(r=1, N=row.N)
        with np.errstate(divide="ignore"):
            expected = _oracle_max_error(sol, ode_exact, bench.DEFAULT_SAMPLES, weight=-0.25)
        assert row.err_u == pytest.approx(expected, rel=1e-14)
        assert row.err_u >= abs(right_limit(sol, 0)[0] - ode_exact(0.0))


def test_window_selects_whole_intervals():
    sol = ode_solution(N=8)
    ref = ode_exact
    full = max_error_sampled(sol, ref)
    windowed = max_error_sampled(sol, ref, window=(0.5, 2.0))
    assert windowed <= full
    with pytest.raises(ValueError):
        max_error_sampled(sol, ref, window=(1.0, 1.0))


def test_nodal_variant_uses_left_limits():
    sol = ode_solution(N=4)
    ref = ode_exact
    expected = max(abs(left_limit(sol, n)[0] - ode_exact(sol.mesh.nodes[n]))
                   for n in range(1, 5))
    assert max_error_sampled(sol, ref, nodal=True) == pytest.approx(expected, rel=1e-12)


def test_empty_measurement_is_an_error():
    sol = ode_solution(N=4)  # nodes 0, 0.5, 1, 1.5, 2
    ref = ode_exact
    with pytest.raises(ValueError, match=r"window \[0.6, 0.9\].*N = 4"):
        max_error_sampled(sol, ref, window=(0.6, 0.9))
    with pytest.raises(ValueError, match="N = 4"):
        max_error_sampled(sol, ref, min_interval=5)
    with pytest.raises(ValueError, match="N = 4"):
        max_error_sampled(sol, ref, nodal=True, window=(0.6, 0.9))
    # one entry of a sequence with nothing to measure fails the whole call
    with pytest.raises(ValueError, match="N = 4"):
        max_error_sampled([sol, sol], ref, min_interval=[1, 5])


def test_non_finite_error_is_an_error():
    # max() would keep the finite maximum and drop a block holding a NaN
    sol = ode_solution(r=3, N=8)
    assert max_error_sampled(sol, ode_exact) == pytest.approx(2.4e-3, rel=0.05)
    nan_late = lambda ts: np.where(ts > 1.0, np.nan, ode_exact(ts))
    with pytest.raises(ValueError, match="non-finite error nan"):
        max_error_sampled(sol, nan_late)
    with pytest.raises(ValueError, match="non-finite error nan"):
        max_error_sampled(sol, ode_exact, weight=float("nan"))
    with pytest.raises(ValueError, match="non-finite error nan"):
        max_error_sampled(sol, nan_late, nodal=True)
    # one entry of a sequence with a non-finite error fails the whole call
    with pytest.raises(ValueError, match="of approximation 1"):
        max_error_sampled([sol, sol], ode_exact, weight=[None, float("nan")])


def test_sequence_arguments_are_checked():
    sol = ode_solution(N=4)
    ref = ode_exact
    with pytest.raises(ValueError, match="one entry per approximation"):
        max_error_sampled([sol, sol], ref, weight=[1.0])
    with pytest.raises(ValueError, match="share the time mesh"):
        max_error_sampled([sol, ode_solution(N=8)], ref)
    with pytest.raises(ValueError, match="2 samples"):
        max_error_sampled(sol, ref, samples_per_interval=1)
    # a scalar option applies to every entry
    both = max_error_sampled([sol, sol], ref, weight=2.0, nodal=[False, True])
    assert both == [max_error_sampled(sol, ref, weight=2.0),
                    max_error_sampled(sol, ref, weight=2.0, nodal=True)]
    # a 1-D array is one entry per solution, as a list is, with the same length check
    fine = ode_solution(N=4, r=2)
    by_list = max_error_sampled([sol, fine], ref, weight=[1.0, 2.0], nodal=[False, True],
                                min_interval=[1, 2])
    assert by_list == max_error_sampled([sol, fine], ref, weight=np.array([1.0, 2.0]),
                                        nodal=np.array([False, True]),
                                        min_interval=np.array([1, 2]))
    assert max_error_sampled([sol, fine], ref, samples_per_interval=2,
                             weight=np.array([1.0, 2.0])) == [
        max_error_sampled(sol, ref, samples_per_interval=2, weight=1.0),
        max_error_sampled(fine, ref, samples_per_interval=2, weight=2.0)]
    for name in ("weight", "nodal", "min_interval"):
        with pytest.raises(ValueError, match=f"^{name} needs one entry per approximation$"):
            max_error_sampled([sol, sol], ref, **{name: np.array([1, 1, 1])})
        # a 2-D array is neither one value nor one entry per solution
        with pytest.raises(ValueError, match=f"^{name} needs one entry per approximation$"):
            max_error_sampled([sol, sol], ref, **{name: np.array([[1, 1]])})
    # one solution takes one value per option: an array is no per-sample value
    for name, value in (("weight", np.array([1.0, 2.0])), ("nodal", np.array([True, False])),
                        ("min_interval", np.array([1, 2])), ("nodal", [True])):
        with pytest.raises(ValueError, match=f"^{name} takes one value for one approximation, "):
            max_error_sampled(sol, ref, samples_per_interval=2, **{name: value})
    # min_interval counts intervals: an integer of at least 1, a numpy integer too
    for first in (1.5, 0, True, np.float64(2.0)):
        with pytest.raises(ValueError, match=f"^min_interval must be an integer of at least 1, "
                                             f"got {re.escape(repr(first))}$"):
            max_error_sampled(sol, ref, min_interval=first)
    with pytest.raises(ValueError, match="^min_interval must be an integer of at least 1, got 0$"):
        max_error_sampled([sol, sol], ref, min_interval=[1, 0])
    assert max_error_sampled(sol, ref, min_interval=np.int64(2)) == max_error_sampled(
        sol, ref, min_interval=2)


class _SampleRichardson:
    """Richardson applied to every sample, as the per-interval measurement did."""

    def __init__(self, coarse, fine):
        self.mesh, self.norm_weight = coarse.mesh, coarse.norm_weight
        self.coarse, self.fine = coarse, fine

    def interval_values(self, n, taus):
        return richardson(interval_values(self.coarse, n, taus),
                          interval_values(self.fine, n, taus))

    def left_limit(self, n):
        return richardson(left_limit(self.coarse, n), left_limit(self.fine, n))


def _oracle_max_error(approx, reference, samples, weight=None, window=None, nodal=False,
                      min_interval=1):
    """One family, one interval and one reference call at a time."""
    mesh = approx.mesh
    # a _SampleRichardson reads itself; a solution is read through its coefficients
    values, left = ((approx.interval_values, approx.left_limit)
                    if isinstance(approx, _SampleRichardson)
                    else (partial(interval_values, approx), partial(left_limit, approx)))
    lo, hi = window if window is not None else (mesh.nodes[0], mesh.nodes[-1])
    tol = 1e-12 * mesh.T
    worst = 0.0
    taus = np.linspace(-1.0, 1.0, samples)
    for n in range(min_interval, mesh.N + 1):
        tn = mesh.nodes[n]
        if not (lo - tol <= tn <= hi + tol):
            continue
        if nodal:
            err = left(n) - bench._reference_values(reference, [tn])[0]
            w = min(tn ** weight, 1.0) if weight is not None else 1.0
            worst = max(worst, w * state_norm(err, approx.norm_weight))
            continue
        ts = mesh.to_physical(n, taus)
        refs = bench._reference_values(reference, ts)
        errs = np.sqrt(approx.norm_weight) * np.linalg.norm(
            values(n, taus) - refs, axis=1)
        if weight is not None:
            errs = errs * np.minimum(ts ** weight, 1.0)
        worst = max(worst, float(np.max(errs)))
    return worst


class _SmoothReference:
    """u_j(t) = 1.5 + cos((j + 1) t + j): vectorised, bounded away from zero."""

    def __init__(self, dim):
        self.j = np.arange(dim)

    def __call__(self, ts):
        return 1.5 + np.cos(np.multiply.outer(ts, self.j + 1) + self.j)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), r=st.integers(1, 5),
       dim=st.integers(1, 6), samples=st.sampled_from([2, 4, 50]),
       extrapolated=st.booleans(),
       per_block=st.sampled_from([1, 2, 3, 0]),
       first=st.integers(1, 3),
       window=st.one_of(st.none(), st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))),
       exps=st.tuples(*[st.one_of(st.none(), st.floats(0.0, 4.0))] * 3))
def test_blocked_measurement_matches_per_interval_oracle(seed, n, r, dim, samples, extrapolated,
                                                         per_block, first, window, exps):
    # per_block: intervals per block of the three-column call, 0 for the whole row
    budget = per_block * samples * dim if per_block else 10**9
    rng = np.random.default_rng(seed)
    mesh = TimeMesh(np.concatenate([[0.0], np.cumsum(rng.uniform(0.02, 0.5, n))]))
    norm_weight = rng.uniform(0.01, 1.0)

    def solution(q, m):
        return DgSolution(mesh, q, rng.standard_normal((n, q, m)), np.zeros(m), norm_weight)

    if extrapolated:
        pairs = [(solution(q, dim), solution(q, 2 * dim + 1)) for q in (r, r + 1)]
        measured = [ExtrapolatedSolution(c, f) for c, f in pairs]
        oracles = [_SampleRichardson(c, f) for c, f in pairs]
    else:
        measured = oracles = [solution(r, dim), solution(r + 1, dim)]
    reference = _SmoothReference(dim)
    if window is not None:
        lo, hi = sorted(window)
        window = (lo * mesh.T, hi * mesh.T)
        if not window[1] > window[0]:
            window = None
    w_u, w_star, w_nodal = exps
    call = dict(weight=[w_u, w_star, w_nodal], window=window, nodal=[False, False, True],
                min_interval=[first, first, 1])
    expected = [
        _oracle_max_error(oracles[0], reference, samples, w_u, window, min_interval=first),
        _oracle_max_error(oracles[1], reference, samples, w_star, window, min_interval=first),
        _oracle_max_error(oracles[0], reference, samples, w_nodal, window, nodal=True),
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "MEASURE_BLOCK_ELEMENTS", budget)
        lo, hi = window if window is not None else (0.0, mesh.T)
        right = mesh.nodes[1:]
        inside = (right >= lo - 1e-12 * mesh.T) & (right <= hi + 1e-12 * mesh.T)
        if not inside[first - 1:].any():
            with pytest.raises(ValueError, match="no interval to measure"):
                max_error_sampled([measured[0], measured[1], measured[0]], reference, samples,
                                  **call)
            return
        got = max_error_sampled([measured[0], measured[1], measured[0]], reference, samples,
                                **call)
        alone = max_error_sampled(measured[0], reference, samples, w_nodal, window, nodal=True)
    scale = max(state_norm(reference([t])[0], norm_weight) for t in mesh.nodes[1:])
    assert got[0] == pytest.approx(expected[0], rel=1e-13, abs=0)
    assert got[1] == pytest.approx(expected[1], rel=1e-13, abs=0)
    assert abs(got[2] - expected[2]) <= 1e-14 * scale
    assert abs(alone - expected[2]) <= 1e-14 * scale


def test_reference_values_take_one_call_and_check_its_shape():
    ts = np.linspace(0.1, 1.9, 5)
    calls = []

    def counted(t):
        calls.append(np.shape(t))
        return ode_exact(t)

    # a scalar state, shape (S,), is one column
    assert np.array_equal(bench._reference_values(counted, ts), ode_exact(ts)[:, None])
    assert calls == [(5,)]
    smooth = _SmoothReference(3)
    assert bench._reference_values(smooth, ts).shape == (5, 3)
    for bad, shape in ((lambda t: smooth(t).T, r"\(3, 5\)"),
                       (lambda t: np.array([ode_exact(t)]), r"\(1, 5\)"),
                       (lambda t: 3.5, r"\(\)")):
        with pytest.raises(ValueError, match=f"returned shape {shape} for times \\(5,\\)"):
            bench._reference_values(bad, ts)
    # max_error_sampled reports it too: there is no per-time fallback
    with pytest.raises(ValueError, match=r"returned shape \(\)"):
        max_error_sampled(ode_solution(), lambda t: 3.5)


def test_row_errors_measure_in_one_pass(monkeypatch):
    # err_U, err_U* and err_nodal come from one call with one set of reference values
    calls = []
    original = bench.max_error_sampled

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(bench, "max_error_sampled", counting)
    table = run_experiment("heat1d", r=2, n_list=(4, 8), p=16, cutoff=True)
    assert len(calls) == 2 and all(len(c) == 3 for c in calls)
    assert all(row.err_nodal > 0 for row in table.rows)


def test_measuring_a_streamed_row_holds_no_coefficient_array(monkeypatch):
    # heat1d's 60 interior points stepped in chunks of 4 x 4 intervals and
    # measured in blocks of 8: the (N, r, M) array is far larger than both
    n, r = 512, 3
    problem = heat1d_problem(Heat1dConfig(P=61))
    dim = problem.A.dim
    monkeypatch.setattr(dg, "TRANSFORM_BLOCK_ELEMENTS", 4 * r * dim)
    monkeypatch.setattr(bench, "MEASURE_BLOCK_ELEMENTS", 2 ** 10)
    mesh = uniform_mesh(problem.T, n)

    def zero_reference(ts):
        return np.zeros(ts.shape + (dim,))

    def measured_row(stream):
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            sol = dg_solve(problem, mesh, r, stream=stream)
            assert type(sol) is DgSolution  # one class, streamed or whole
            errors = bench.max_error_sampled([sol, reconstruct(sol), sol], zero_reference, 2,
                                             nodal=[False, False, True])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return errors, peak - before

    (errors, peak), (whole_errors, whole_peak) = measured_row(True), measured_row(False)
    assert errors == whole_errors
    assert whole_peak > n * r * dim * 8 > 2 * peak


class _LoggedReads(PiecewiseLegendre):
    """A piecewise solution that logs each coefficients(idx) call, then reads its inner one."""

    def __init__(self, inner, name, log):
        super().__init__(inner.mesh, inner.degree_count, inner.dim, inner.norm_weight)
        self._inner, self._name, self._log = inner, name, log

    def coefficients(self, idx):
        self._log.append((self._name, idx.start, idx.stop))
        return self._inner.coefficients(idx)


def test_a_block_reads_its_coefficients_before_its_reference(monkeypatch):
    # a streamed heat2d cutoff row in blocks of 3 intervals and chunks of 2:
    # every block reads U and U* (stepping the stream) before its one
    # reference call, so no block of reference values is held while a chunk
    # is stepped; the errors are those of the whole solution, bit for bit
    n, r, p, samples = 16, 3, 8, 4
    dim = (p - 1) ** 2
    monkeypatch.setattr(dg, "TRANSFORM_BLOCK_ELEMENTS", 2 * r * dim)
    monkeypatch.setattr(bench, "MEASURE_BLOCK_ELEMENTS", 3 * samples * dim)
    problem = heat2d_problem(Heat2dConfig(Px=p, Py=p))
    mesh = uniform_mesh(problem.T, n)
    window = (problem.T / 4, problem.T)
    reference = Heat2dReference(problem, window[0] - problem.T / n, problem.T)
    log = []

    def logged_reference(ts):
        log.append(("reference", ts))
        return reference(ts)

    def row(stream, wrap):
        sol = dg_solve(problem, mesh, r, moment_quadrature="radau", stream=stream)
        star = reconstruct(sol)
        if wrap:
            sol, star = _LoggedReads(sol, "U", log), _LoggedReads(star, "U*", log)
        return max_error_sampled([sol, star, sol], logged_reference if wrap else reference,
                                 samples, window=window, nodal=[False, False, True])

    errors = row(True, True)
    assert errors == row(False, False)
    calls = [i for i, entry in enumerate(log) if entry[0] == "reference"]
    taus = np.linspace(-1.0, 1.0, samples)
    start = 0
    for call in calls:
        reads = log[start:call]
        # U once (deduplicated from [U, U*, U]), then U*, on the same block
        assert [name for name, _, _ in reads] == ["U", "U*"]
        lo, hi = reads[0][1:]
        assert all(read[1:] == (lo, hi) for read in reads)
        times = mesh.to_physical(np.arange(lo + 1, hi + 1), taus).ravel()
        assert np.array_equal(log[call][1], times)
        start = call + 1
    assert start == len(log) and len(calls) == 5  # intervals 4..16 in blocks of 3


def test_profile_reads_its_streams_interval_by_interval(monkeypatch):
    # heat2d's 529 interior points stepped in chunks of 4 x 4 intervals and
    # read in blocks of 4 intervals: the profile holds no (N, r, M)
    # coefficient array and no (N, samples, M) sample array, only a chunk
    # and one block's samples at a time
    n, r, p, samples = 512, 3, 24, 2
    dim = (p - 1) ** 2
    monkeypatch.setattr(dg, "TRANSFORM_BLOCK_ELEMENTS", 4 * r * dim)
    monkeypatch.setattr(bench, "MEASURE_BLOCK_ELEMENTS", 4 * samples * dim)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        text = run_profile("heat2d", r=r, n=n, p=p, samples=samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text.splitlines()) == 1 + 2 * n
    assert peak - before < n * r * dim * 8 / 2


def test_piecewise_legendre_is_the_read_protocol_alone():
    # the base class sets the four protocol fields and stores no coefficients;
    # a DG solution, its reconstruction and a Richardson combination set them
    # through it, and only the DG solution holds a coefficient window
    mesh = uniform_mesh(1.0, 2)
    base = PiecewiseLegendre(mesh, 3, 2, 0.5)
    assert sorted(vars(base)) == ["degree_count", "dim", "mesh", "norm_weight"]
    assert (base.mesh, base.degree_count, base.dim, base.norm_weight) == (mesh, 3, 2, 0.5)
    assert PiecewiseLegendre(mesh, 3, 2).norm_weight == 1.0
    coarse = DgSolution(mesh, 2, np.ones((2, 2, 3)), np.zeros(3), 0.25)
    fine = DgSolution(mesh, 2, np.ones((2, 2, 7)), np.zeros(7), 0.125)
    for x, fields in ((coarse, (2, 3, 0.25)), (reconstruct(coarse), (3, 3, 0.25)),
                      (ExtrapolatedSolution(coarse, fine), (2, 3, 0.25))):
        assert x.mesh is mesh and (x.degree_count, x.dim, x.norm_weight) == fields
        assert not hasattr(x, "coeffs")
        assert hasattr(x, "_held") == (x is coarse)


def test_extrapolated_solution_samples_richardson_of_samples():
    mesh = uniform_mesh(1.0, 3)
    rng = np.random.default_rng(5)
    coarse = DgSolution(mesh, 3, rng.standard_normal((3, 3, 4)), np.zeros(4), 0.25)
    fine = DgSolution(mesh, 3, rng.standard_normal((3, 3, 9)), np.zeros(9), 0.125)
    ext = ExtrapolatedSolution(coarse, fine)
    taus = np.linspace(-1, 1, 7)
    for n in (1, 2, 3):
        per_sample = richardson(interval_values(coarse, n, taus), interval_values(fine, n, taus))
        np.testing.assert_allclose(interval_values(ext, n, taus), per_sample,
                                   rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(left_limit(ext, n),
                                   richardson(left_limit(coarse, n), left_limit(fine, n)),
                                   rtol=1e-14, atol=1e-14)
    assert ext.norm_weight == 0.25


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), r=st.integers(1, 10),
       dim=st.sampled_from([1, 7]), reconstructed=st.booleans())
@example(seed=75, n=10, r=10, dim=7, reconstructed=False)
@example(seed=75, n=10, r=10, dim=7, reconstructed=True)
def test_extrapolated_blocks_equal_full_array_richardson(seed, n, r, dim, reconstructed):
    rng = np.random.default_rng(seed)
    mesh = TimeMesh(np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, n))]))
    coarse, fine = (DgSolution(mesh, r, rng.standard_normal((n, r, m)),
                               rng.standard_normal(m), rng.uniform(0.01, 1.0))
                    for m in (dim, 2 * dim + 1))
    if reconstructed:
        coarse, fine = reconstruct(coarse), reconstruct(fine)
    ext = ExtrapolatedSolution(coarse, fine)
    full = richardson(coarse.coefficients(slice(None)), fine.coefficients(slice(None)))
    assert (ext.degree_count, ext.dim, ext.norm_weight) == (full.shape[1], dim,
                                                            coarse.norm_weight)
    assert np.array_equal(ext.coefficients(slice(None)), full)
    stop, start = int(rng.integers(1, n + 1)), int(rng.integers(0, n))
    # blocks from interval 1 include the jump from u0 in a reconstruction; the
    # last reads them again after a later block
    for idx in (slice(0, stop), slice(start, n), slice(0, stop)):
        assert np.array_equal(ext.coefficients(idx), full[idx])
    taus = np.linspace(-1.0, 1.0, 4)
    for m in (1, n):
        assert np.array_equal(left_limit(ext, m), full[m - 1].sum(axis=0))
        # as a function of time, at the sample times of interval m past its left
        # node, against the polynomial at the tau that sol(t) maps t back to
        ts, (a, b) = mesh.to_physical(m, taus[1:]), mesh.nodes[m - 1:m + 1]
        table = legendre_table(full.shape[1] - 1, (2.0 * ts - (a + b)) / (b - a))
        np.testing.assert_allclose(ext(ts), table @ full[m - 1], rtol=1e-12, atol=1e-12)


def test_extrapolated_solution_rejects_mismatched_members():
    mesh = uniform_mesh(1.0, 2)
    coarse = DgSolution(mesh, 2, np.zeros((2, 2, 3)), np.zeros(3))
    with pytest.raises(ValueError, match="refine the coarse grid"):
        ExtrapolatedSolution(coarse, DgSolution(mesh, 2, np.zeros((2, 2, 8)), np.zeros(8)))
    with pytest.raises(ValueError, match="coefficient count"):
        ExtrapolatedSolution(coarse, DgSolution(mesh, 3, np.zeros((2, 3, 7)), np.zeros(7)))


def _profile_text(mesh, coeffs_u, coeffs_star, norm_weight, reference, samples):
    """run_profile's CSV for a PDE, sampled from whole coefficient arrays."""
    taus = np.linspace(-1.0, 1.0, samples)
    lines = ["t,U_minus_u,U_minus_Ustar"]
    for m in range(1, mesh.N + 1):
        ts = mesh.to_physical(m, taus)
        uvals = legendre_table(coeffs_u.shape[1] - 1, taus) @ coeffs_u[m - 1]
        svals = legendre_table(coeffs_star.shape[1] - 1, taus) @ coeffs_star[m - 1]
        rvals = reference.eval_many(ts)
        for t, u, s, ref in zip(ts, uvals, svals, rvals):
            a, b = state_norm(u - ref, norm_weight), state_norm(u - s, norm_weight)
            lines.append(f"{float(t)!r},{float(a)!r},{float(b)!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("experiment, p, chunked", [
    ("heat1d", 12, False), ("heat2d", 6, False), ("heat1d", 12, True), ("heat2d", 6, True)],
    ids=["heat1d-12", "heat2d-6", "heat1d-12-chunked", "heat2d-6-chunked"])
def test_run_profile_equals_materialized_computation(monkeypatch, experiment, p, chunked):
    n, samples = (12 if chunked else 4), 50
    if chunked:
        # one interval per transform block: the streamed profile spans three chunks
        monkeypatch.setattr(dg, "TRANSFORM_BLOCK_ELEMENTS", 1)
        assert n == 3 * dg.STREAM_CHUNK_BLOCKS
    if experiment == "heat1d":
        cfg = Heat1dConfig(P=p)
        mesh = uniform_mesh(cfg.T, n)
        sols = [dg_solve(heat1d_problem(c), mesh, 3) for c in (cfg, cfg.refined())]
        coeffs_u = richardson(*(s.coefficients(slice(None)) for s in sols))
        coeffs_star = richardson(*(reconstruct(s).coefficients(slice(None)) for s in sols))
        reference = Heat1dReference(cfg, heat1d_problem(cfg).forcing,
                                    bench._reference_floor(cfg.T, (n,), False, samples), cfg.T)
    else:
        problem = heat2d_problem(Heat2dConfig(Px=p, Py=p))
        mesh = uniform_mesh(problem.T, n)
        sols = [dg_solve(problem, mesh, 3, moment_quadrature="radau")]
        coeffs_u = sols[0].coefficients(slice(None))
        coeffs_star = reconstruct(sols[0]).coefficients(slice(None))
        t_lo = bench._reference_floor(problem.T, (n,), False, samples)
        reference = Heat2dReference(problem, t_lo, problem.T)
    expected = _profile_text(mesh, coeffs_u, coeffs_star, sols[0].norm_weight, reference,
                             samples)
    assert run_profile(experiment, n=n, p=p) == expected


def test_observed_rates_examples():
    assert observed_rates([8e-4, 1e-4]) == [pytest.approx(3.0, abs=1e-12)]
    assert observed_rates([1.75e-3, 1.36e-4])[0] == pytest.approx(3.686, abs=0.01)
    np.testing.assert_allclose(observed_rates([2.0, 2.0, 2.0]), [0.0, 0.0])


@pytest.mark.parametrize("errors, row, bad", [([1e-3, 0.0], 2, "0.0"),
                                              ([np.float64(-1e-3), 1e-4], 1, "-0.001"),
                                              ([1e-3, 1e-4, np.inf], 3, "inf"),
                                              ([np.nan, 1e-4], 1, "nan")])
def test_observed_rates_rejects_an_error_that_is_not_positive_and_finite(errors, row, bad):
    # a zero error divided by zero, and a numpy one gave inf with a RuntimeWarning
    message = f"error of row {row} must be positive and finite for a rate, got {bad}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            observed_rates(errors)


def test_observed_rates_rejects_non_doubling():
    with pytest.raises(ValueError):
        observed_rates([1.0, 0.5], n_values=[4, 12])


@pytest.mark.parametrize("errors, n_values", [([1.0, 0.5, 0.25], [4, 8]),
                                              ([1.0, 0.5], [4, 8, 16])])
def test_observed_rates_needs_one_n_per_error(errors, n_values):
    message = (f"n_values needs one entry per error, got {len(n_values)} "
               f"for {len(errors)} errors")
    with pytest.raises(ValueError, match=f"^{message}$"):
        observed_rates(errors, n_values=n_values)


def test_extrapolated_solution_requires_shared_mesh():
    coarse = ode_solution(N=4)
    fine = ode_solution(N=8)
    with pytest.raises(ValueError):
        ExtrapolatedSolution(coarse, fine)


def test_table_csv_schema_and_consistency():
    table = run_experiment("ode", r=2, n_list=(4, 8, 16))
    csv = table.to_csv()
    lines = csv.splitlines()
    assert lines[0] == "N,P,err_U,rate_U,err_Ustar,rate_Ustar,err_nodal,rate_nodal"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[3] == "" and first[5] == "" and first[7] == ""
    assert "\r" not in csv
    # every rate recomputes from its two error entries
    for row_prev, row in zip(table.rows, table.rows[1:]):
        assert row.rate_u == pytest.approx(np.log2(row_prev.err_u / row.err_u), abs=1e-12)
        assert row.rate_nodal == pytest.approx(
            np.log2(row_prev.err_nodal / row.err_nodal), abs=1e-12)


def test_deterministic_output():
    a = run_experiment("ode", r=2, n_list=(4, 8)).to_csv()
    b = run_experiment("ode", r=2, n_list=(4, 8)).to_csv()
    assert a == b


def test_markdown_has_three_significant_digits():
    table = run_experiment("ode", r=2, n_list=(4, 8))
    md = table.to_markdown()
    assert "e-0" in md or "e+0" in md
    assert md.count("|") > 10


# a table built by hand, as perfbench's graded workload builds it: TableRows by
# position, numpy integer N and P, numpy and Python floats, no rate on the first row
HAND_BUILT_ROWS = [
    (np.int64(32), np.int64(50), 0.0012345678901234567, None,
     np.float64(9.876543210987653e-05), None, 3.3333333333333335e-07, None),
    (np.int64(64), np.int64(50), np.float64(0.00015432098765432098), 3.0000000000000004,
     6.172839506172839e-06, np.float64(3.999999999999999), 5.208333333333333e-09, 6.0),
    (np.int32(128), np.int32(50), np.float32(1.9290123e-05), 2.9999999999999996,
     3.858024691358025e-07, 4.000000000000001, 8.138020833333333e-11,
     np.float64(-0.1234567890123456)),
]
HAND_BUILT_CSV = """\
N,P,err_U,rate_U,err_Ustar,rate_Ustar,err_nodal,rate_nodal
32,50,0.0012345678901234567,,9.876543210987653e-05,,3.3333333333333335e-07,
64,50,0.00015432098765432098,3.0000000000000004,6.172839506172839e-06,3.999999999999999,\
5.208333333333333e-09,6.0
128,50,1.92901225091191e-05,2.9999999999999996,3.858024691358025e-07,4.000000000000001,\
8.138020833333333e-11,-0.1234567890123456
"""
HAND_BUILT_MARKDOWN = """\
## heat2d-graded  (norm: discrete-L2(hx*hy), weight: none, window: [0.5, 2.0])

| N | P | err_U | rate | err_U* | rate | err_nodal | rate |
|---:|---:|---:|---:|---:|---:|---:|---:|
| 32 | 50 | 1.23e-03 |  | 9.88e-05 |  | 3.33e-07 |  |
| 64 | 50 | 1.54e-04 | 3.000 | 6.17e-06 | 4.000 | 5.21e-09 | 6.000 |
| 128 | 50 | 1.93e-05 | 3.000 | 3.86e-07 | 4.000 | 8.14e-11 | -0.123 |
"""


def test_a_hand_built_table_keeps_its_text():
    rows = [bench.TableRow(*values) for values in HAND_BUILT_ROWS]
    table = ConvergenceTable("heat2d-graded", "discrete-L2(hx*hy)", "none", "[0.5, 2.0]", rows)
    assert table.to_csv() == HAND_BUILT_CSV
    assert table.to_markdown() == HAND_BUILT_MARKDOWN


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError):
        run_experiment("advection")


def test_cli_writes_csv(tmp_path):
    out = tmp_path / "table.csv"
    code = main(["ode", "--r", "2", "--N", "4,8", "--format", "csv", "--out", str(out)])
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("N,P,err_U")
    code = main(["ode", "--r", "2", "--N", "4,8", "--format", "csv",
                 "--out", str(tmp_path / "again.csv")])
    assert (tmp_path / "again.csv").read_text(encoding="utf-8") == text


def test_cli_stdout_markdown(capsys):
    assert main(["ode", "--r", "2", "--N", "4,8"]) == 0
    captured = capsys.readouterr()
    assert "| N | P |" in captured.out


def test_cli_profile_mode(tmp_path):
    out = tmp_path / "profile.csv"
    code = main(["ode", "--r", "4", "--N", "5", "--profile", "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,U_minus_u,U_minus_Ustar"
    assert len(lines) == 1 + 5 * 50
    t, du, ds = (float(x) for x in lines[1].split(","))
    assert t == 0.0
    assert abs(du) < 1e-2 and abs(ds) < 1e-2


# `dgtime --help` and the help of each subcommand, at an 80-column terminal
HELP = """\
usage: dgtime [-h] {ode,heat1d,heat2d} ...

Convergence benchmarks for DG time stepping of parabolic problems

positional arguments:
  {ode,heat1d,heat2d}
    ode                run the ode experiment
    heat1d             run the heat1d experiment
    heat2d             run the heat2d experiment

options:
  -h, --help           show this help message and exit
usage: dgtime ode [-h] [--r R] [--N N] [--P P] [--weighted ALPHA] [--cutoff]
                  [--homogeneous] [--samples SAMPLES]
                  [--moments {gauss,radau}] [--format {csv,md}] [--out OUT]
                  [--profile]

options:
  -h, --help            show this help message and exit
  --r R                 polynomial degree count
  --N N                 comma list of step counts
  --P P                 spatial intervals
  --weighted ALPHA      weighted errors with regularity deficit ALPHA
  --cutoff              restrict errors to the window [T/4, T]
  --homogeneous         drop the forcing
  --samples SAMPLES     sample points per interval (default 50; 4 for heat2d
                        tables)
  --moments {gauss,radau}
                        forcing moment quadrature (default gauss; radau for
                        heat2d)
  --format {csv,md}
  --out OUT
  --profile             dump per-sample error profile data instead of a table
                        (no --weighted, --cutoff, --homogeneous or non-default
                        --moments)
usage: dgtime heat1d [-h] [--r R] [--N N] [--P P] [--weighted ALPHA]
                     [--cutoff] [--homogeneous] [--samples SAMPLES]
                     [--moments {gauss,radau}] [--format {csv,md}] [--out OUT]
                     [--profile]

options:
  -h, --help            show this help message and exit
  --r R                 polynomial degree count
  --N N                 comma list of step counts
  --P P                 spatial intervals
  --weighted ALPHA      weighted errors with regularity deficit ALPHA
  --cutoff              restrict errors to the window [T/4, T]
  --homogeneous         drop the forcing
  --samples SAMPLES     sample points per interval (default 50; 4 for heat2d
                        tables)
  --moments {gauss,radau}
                        forcing moment quadrature (default gauss; radau for
                        heat2d)
  --format {csv,md}
  --out OUT
  --profile             dump per-sample error profile data instead of a table
                        (no --weighted, --cutoff, --homogeneous or non-default
                        --moments)
usage: dgtime heat2d [-h] [--r R] [--N N] [--P P] [--weighted ALPHA]
                     [--cutoff] [--homogeneous] [--samples SAMPLES]
                     [--moments {gauss,radau}] [--format {csv,md}] [--out OUT]
                     [--profile]

options:
  -h, --help            show this help message and exit
  --r R                 polynomial degree count
  --N N                 comma list of step counts
  --P P                 spatial intervals
  --weighted ALPHA      weighted errors with regularity deficit ALPHA
  --cutoff              restrict errors to the window [T/4, T]
  --homogeneous         drop the forcing
  --samples SAMPLES     sample points per interval (default 50; 4 for heat2d
                        tables)
  --moments {gauss,radau}
                        forcing moment quadrature (default gauss; radau for
                        heat2d)
  --format {csv,md}
  --out OUT
  --profile             dump per-sample error profile data instead of a table
                        (no --weighted, --cutoff, --homogeneous or non-default
                        --moments)
"""


def test_help_text_is_pinned(monkeypatch, capsys):
    # the options are added from TableSpec's fields; their help keeps its bytes and order
    monkeypatch.setenv("COLUMNS", "80")
    texts = []
    for argv in ([], ["ode"], ["heat1d"], ["heat2d"]):
        with pytest.raises(SystemExit) as done:
            main(argv + ["--help"])
        assert done.value.code == 0
        texts.append(capsys.readouterr().out)
    assert "".join(texts) == HELP


def test_cli_profile_needs_single_n():
    with pytest.raises(SystemExit):
        main(["ode", "--N", "4,8", "--profile"])


def test_run_profile_pde_emits_norms():
    text = run_profile("heat1d", n=4, p=16, samples=10)
    lines = text.splitlines()
    assert lines[0] == "t,U_minus_u,U_minus_Ustar"
    values = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert np.all(values[:, 1] >= 0.0) and np.all(values[:, 2] >= 0.0)


@pytest.mark.parametrize("experiment, p", [("ode", None), ("heat1d", 16), ("heat2d", 6)])
def test_run_profile_matches_table_error(experiment, p):
    # the profile shows the solution the table measures: extrapolated for
    # heat1d, Radau moments for heat2d
    text = run_profile(experiment, n=4, p=p, samples=10)
    values = np.array([[float(x) for x in line.split(",")] for line in text.splitlines()[1:]])
    table = run_experiment(experiment, n_list=(4,), p=p, samples=10)
    assert np.max(np.abs(values[:, 1])) == pytest.approx(table.rows[0].err_u, rel=1e-12, abs=0)


def _count_solves(monkeypatch):
    calls = []
    monkeypatch.setattr(bench, "dg_solve", lambda *args, **kwargs: calls.append(args))
    return calls


def test_run_experiment_rejects_r_zero(monkeypatch):
    calls = _count_solves(monkeypatch)
    with pytest.raises(ValueError, match="r must be at least 1"):
        run_experiment("ode", r=0)
    with pytest.raises(ValueError, match="r must be at least 1"):
        run_profile("heat1d", r=0, n=4, p=16)
    assert calls == []


def test_run_experiment_rejects_empty_n_list(monkeypatch):
    calls = _count_solves(monkeypatch)
    with pytest.raises(ValueError, match="N list is empty"):
        run_experiment("ode", n_list=())
    with pytest.raises(SystemExit, match="N list is empty"):
        main(["heat1d", "--N", ",", "--P", "16"])
    assert calls == []


def test_run_experiment_rejects_non_doubling_before_solving(monkeypatch):
    calls = _count_solves(monkeypatch)
    with pytest.raises(ValueError, match="must double"):
        run_experiment("heat1d", n_list=(8, 12), p=16)
    with pytest.raises(SystemExit, match="must double"):
        main(["ode", "--N", "8,12"])
    assert calls == []


def test_run_experiment_rejects_n_below_one_and_non_finite_weight(monkeypatch):
    calls = _count_solves(monkeypatch)
    with pytest.raises(ValueError, match=r"at least 1, got \[0, 0\]"):
        run_experiment("ode", n_list=(0, 0))
    with pytest.raises(ValueError, match=r"at least 1, got \[0\]"):
        run_profile("ode", n=0)
    with pytest.raises(SystemExit, match=r"^N values must be at least 1, got \[0, 0\]$"):
        main(["ode", "--N=0,0"])
    for value in ("nan", "inf", "-inf"):
        with pytest.raises(SystemExit, match=f"^weighted must be finite, got {value}$"):
            main(["ode", "--N", "4,8", f"--weighted={value}"])
    with pytest.raises(ValueError, match="weighted must be finite"):
        run_experiment("heat1d", n_list=(4, 8), p=16, weighted=float("nan"))
    assert calls == []


def test_run_experiment_rejects_too_few_samples(monkeypatch):
    calls = _count_solves(monkeypatch)
    with pytest.raises(ValueError, match="at least 2 samples"):
        run_experiment("heat2d", n_list=(4,), p=6, samples=0)
    with pytest.raises(ValueError, match="at least 2 samples"):
        run_profile("ode", n=4, samples=1)
    assert calls == []


def test_ode_rejects_pde_options_before_solving(monkeypatch):
    calls = _count_solves(monkeypatch)
    with pytest.raises(ValueError, match="ode experiment takes no homogeneous"):
        run_experiment("ode", r=2, n_list=(4, 8), homogeneous=True)
    with pytest.raises(ValueError, match="ode experiment takes no p"):
        run_experiment("ode", p=16)
    with pytest.raises(ValueError, match="ode experiment takes no p"):
        run_profile("ode", n=4, p=16)
    with pytest.raises(SystemExit, match="ode experiment takes no homogeneous"):
        main(["ode", "--r", "2", "--N", "4,8", "--homogeneous"])
    assert calls == []


def test_table_spec_resolves_the_per_experiment_defaults():
    assert TableSpec("heat2d") == TableSpec("heat2d", 3, (8, 16, 32, 64, 128), 50, None, False,
                                            False, 4, "radau")
    ode = TableSpec("ode", n_list=[4, 8])
    assert (ode.r, ode.n_list, ode.p, ode.samples, ode.moments) == (4, (4, 8), 1, 50, "gauss")
    # a profile samples 50 points per interval for every experiment
    assert TableSpec("heat2d", n_list=[8], profile=True).samples == 50
    assert TableSpec("heat2d", n_list=[8], samples=3, profile=True).samples == 3


def test_table_spec_takes_numpy_bools_and_any_sequence():
    # a numpy bool is a switch, as a numpy integer is an integer
    spec = TableSpec("heat1d", n_list=range(8, 9), cutoff=np.True_, homogeneous=np.bool_(False))
    assert (spec.n_list, spec.cutoff, spec.homogeneous) == ((8,), True, False)
    assert TableSpec("heat2d", n_list=np.array([8]), profile=np.True_).samples == 50


def test_a_built_spec_is_rebuilt_by_replace():
    # the ode's p and a profile's moments may be given as their defaults
    ode = TableSpec("ode")
    assert replace(ode, n_list=(4, 8)) == TableSpec("ode", n_list=(4, 8))
    assert TableSpec("ode", p=1) == ode
    profile = TableSpec("heat2d", n_list=(8,), profile=True)
    assert replace(profile, samples=10) == TableSpec("heat2d", n_list=(8,), samples=10,
                                                      profile=True)
    assert TableSpec("heat1d", n_list=(8,), moments="gauss", profile=True).moments == "gauss"
    # any other value is still refused
    with pytest.raises(ValueError, match="^the ode experiment takes no p$"):
        replace(ode, p=16)
    with pytest.raises(ValueError, match="^--profile takes no --moments$"):
        replace(profile, moments="gauss")


def test_non_integer_r_or_n_is_rejected_before_anything_is_built(monkeypatch):
    calls, built = _count_solves(monkeypatch), []
    for name in ("Heat1dReference", "Heat2dReference"):
        monkeypatch.setattr(bench, name, lambda *args: built.append(args))
    with pytest.raises(ValueError, match=r"^N values must be integers, got \[8\.0, 16\.0\]$"):
        run_experiment("heat2d", n_list=(8.0, 16.0), p=6)
    with pytest.raises(ValueError, match=r"^N values must be integers, got \[4\.0\]$"):
        run_profile("heat1d", n=4.0, p=16)
    with pytest.raises(ValueError, match=r"^r must be an integer, got 2\.5$"):
        run_experiment("ode", r=2.5, n_list=(4, 8))
    # checked before the range: 0.5 is not an integer, not a degree below 1
    with pytest.raises(ValueError, match=r"^r must be an integer, got 0\.5$"):
        run_profile("heat2d", r=0.5, n=4, p=6)
    assert calls == [] and built == []
    # numpy integers are integers
    spec = TableSpec("ode", r=np.int64(2), n_list=np.array([4, 8]))
    assert (spec.r, spec.n_list) == (2, (4, 8))


def test_non_integer_p_or_samples_is_rejected_before_anything_is_built(monkeypatch):
    calls, built = _count_solves(monkeypatch), []
    for name in ("Heat1dReference", "Heat2dReference"):
        monkeypatch.setattr(bench, name, lambda *args: built.append(args))
    with pytest.raises(ValueError, match=r"^samples must be an integer, got 10\.5$"):
        run_experiment("ode", n_list=(4, 8), samples=10.5)
    with pytest.raises(ValueError, match=r"^samples must be an integer, got 4\.0$"):
        run_profile("heat1d", n=4, p=16, samples=4.0)
    with pytest.raises(ValueError, match=r"^p must be an integer, got 6\.5$"):
        run_experiment("heat2d", n_list=(4, 8), p=6.5)
    with pytest.raises(ValueError, match=r"^p must be an integer, got 16\.0$"):
        run_profile("heat1d", n=4, p=16.0)
    assert calls == [] and built == []
    # numpy integers are integers
    spec = TableSpec("heat2d", n_list=(4, 8), p=np.int64(6), samples=np.int32(3))
    assert (spec.p, spec.samples) == (6, 3)


def test_unknown_moments_or_non_real_weighted_is_rejected_before_anything_is_built(monkeypatch):
    calls, built = _count_solves(monkeypatch), []
    for name in ("Heat1dReference", "Heat2dReference"):
        monkeypatch.setattr(bench, name, lambda *args: built.append(args))
    with pytest.raises(ValueError, match=r"^unknown moment quadrature 'simpson'$"):
        run_experiment("heat2d", n_list=(4, 8), p=6, moments="simpson")
    with pytest.raises(ValueError, match=r"^unknown moment quadrature 'simpson'$"):
        run_experiment("heat1d", n_list=(4, 8), p=16, cutoff=True, moments="simpson")
    with pytest.raises(ValueError, match=r"^weighted must be a real number, got '1\.25'$"):
        run_experiment("heat1d", n_list=(4, 8), p=16, weighted="1.25")
    assert calls == [] and built == []
    # numpy floats are real numbers
    assert TableSpec("ode", weighted=np.float32(1.25)).weighted == 1.25


def test_degree_beyond_the_step_solver_is_rejected_before_the_reference(monkeypatch):
    # r above MAX_DEGREE fails with the step solver's own message, but before
    # the contour reference is built, not at the first step factorization
    calls, built = _count_solves(monkeypatch), []
    for name in ("Heat1dReference", "Heat2dReference"):
        monkeypatch.setattr(bench, name, lambda *args: built.append(args))
    message = r"^r=13 is outside the supported range 1\.\.12 of the step solver$"
    for experiment in ("heat1d", "heat2d"):
        with pytest.raises(SystemExit, match=message):
            main([experiment, "--r", "13"])
        with pytest.raises(ValueError, match=message):
            run_profile(experiment, r=13, n=4, p=6)
    with pytest.raises(ValueError, match=message):
        run_experiment("ode", r=13)
    assert calls == [] and built == []
    assert TableSpec("heat2d", r=12).r == 12


@pytest.mark.parametrize("experiment", ["heat1d", "heat2d"])
def test_homogeneous_study_drops_the_forcing_from_problems_and_reference(monkeypatch, experiment):
    # the problem's forcing is the one switch: the solved problems (P and 2P
    # for heat1d) and the reference all read it
    solved = []
    monkeypatch.setattr(bench, "dg_solve", lambda problem, *args, **kwargs: solved.append(problem))
    monkeypatch.setattr(bench, "reconstruct", lambda sol: sol)
    monkeypatch.setattr(bench, "ExtrapolatedSolution", lambda *sols: sols)
    for homogeneous in (False, True):
        solved.clear()
        spec = TableSpec(experiment, r=2, p=6, moments="gauss", homogeneous=homogeneous)
        T, _, solve, reference = bench._study(spec)
        solve(uniform_mesh(T, 2))
        forcings = [problem.forcing for problem in solved]
        forcings.append(reference.forcing if experiment == "heat1d" else reference.problem.forcing)
        assert len(forcings) == (3 if experiment == "heat1d" else 2)
        if homogeneous:
            assert forcings == [None] * len(forcings)
        else:
            assert all(forcing.phi_hat is fhat for forcing in forcings)


def test_profile_rejects_the_flags_it_ignores(monkeypatch):
    # --profile measures the forced, unweighted, full-window run with the
    # default moments; the table flags would be silently dropped
    calls = _count_solves(monkeypatch)
    with pytest.raises(SystemExit, match="^--profile takes no --homogeneous$"):
        main(["heat1d", "--P", "20", "--N", "8", "--profile", "--homogeneous"])
    with pytest.raises(SystemExit, match="^--profile takes no --weighted, --cutoff, --moments$"):
        main(["heat2d", "--P", "6", "--N", "8", "--profile", "--weighted", "0",
              "--cutoff", "--moments", "gauss"])
    with pytest.raises(SystemExit, match="^--profile takes no --homogeneous$"):
        main(["ode", "--N", "4", "--profile", "--homogeneous"])
    assert calls == []


def test_cli_small_heat_experiments(tmp_path):
    out1 = tmp_path / "h1.csv"
    assert main(["heat1d", "--N", "4,8", "--P", "16", "--cutoff",
                 "--format", "csv", "--out", str(out1)]) == 0
    lines = out1.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3 and lines[1].split(",")[1] == "16"

    out2 = tmp_path / "h2.csv"
    assert main(["heat2d", "--N", "4,8", "--P", "6", "--cutoff",
                 "--format", "csv", "--out", str(out2)]) == 0
    rows = out2.read_text(encoding="utf-8").splitlines()
    assert len(rows) == 3
    errs = [float(rows[i].split(",")[2]) for i in (1, 2)]
    assert errs[1] < errs[0]  # halving the step reduces the error
