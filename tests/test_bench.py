import tracemalloc
import warnings
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
    main,
    max_error_sampled,
    observed_rates,
    run_experiment,
    run_profile,
)
from dgtime.basis import legendre_table
from dgtime.dg import DgSolution, PiecewiseLegendre, dg_solve, state_norm
from dgtime.mesh import TimeMesh, uniform_mesh
from dgtime.models import Heat1dConfig, Heat2dConfig, heat1d_problem, heat2d_problem, ode_problem
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
            errors = bench._row_errors(sol, reconstruct(sol), zero_reference, (None,) * 3,
                                       None, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return errors, peak - before

    (errors, peak), (whole_errors, whole_peak) = measured_row(True), measured_row(False)
    assert errors == whole_errors
    assert whole_peak > n * r * dim * 8 > 2 * peak


def test_profile_reads_its_streams_interval_by_interval(monkeypatch):
    # heat2d's 529 interior points stepped in chunks of 4 x 4 intervals: the
    # profile holds no (N, r, M) coefficient array and no (N, samples, M)
    # sample array, only a chunk and one interval's samples at a time
    n, r, p = 512, 3, 24
    dim = (p - 1) ** 2
    monkeypatch.setattr(dg, "TRANSFORM_BLOCK_ELEMENTS", 4 * r * dim)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        text = run_profile("heat2d", r=r, n=n, p=p, samples=2)
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
        reference = Heat1dReference(cfg, bench._sample_floor(cfg.T, n, samples), cfg.T)
    else:
        problem = heat2d_problem(Heat2dConfig(Px=p, Py=p))
        mesh = uniform_mesh(problem.T, n)
        sols = [dg_solve(problem, mesh, 3, moment_quadrature="radau")]
        coeffs_u = sols[0].coefficients(slice(None))
        coeffs_star = reconstruct(sols[0]).coefficients(slice(None))
        reference = Heat2dReference(problem, bench._sample_floor(problem.T, n, samples),
                                    problem.T)
    expected = _profile_text(mesh, coeffs_u, coeffs_star, sols[0].norm_weight, reference,
                             samples)
    assert run_profile(experiment, n=n, p=p) == expected


def test_observed_rates_examples():
    assert observed_rates([8e-4, 1e-4]) == [pytest.approx(3.0, abs=1e-12)]
    assert observed_rates([1.75e-3, 1.36e-4])[0] == pytest.approx(3.686, abs=0.01)
    np.testing.assert_allclose(observed_rates([2.0, 2.0, 2.0]), [0.0, 0.0])


def test_observed_rates_rejects_non_doubling():
    with pytest.raises(ValueError):
        observed_rates([1.0, 0.5], n_values=[4, 12])


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
