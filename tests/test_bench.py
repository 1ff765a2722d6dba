import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dgtime.bench as bench
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
from dgtime.dg import DgSolution, dg_solve, state_norm
from dgtime.mesh import TimeMesh, uniform_mesh
from dgtime.models import Heat1dConfig, Heat2dConfig, heat1d_problem, heat2d_problem, ode_problem
from dgtime.postprocess import reconstruct
from dgtime.reference import Heat1dReference, Heat2dReference, ode_exact, richardson


def ode_solution(r=3, N=4):
    return dg_solve(ode_problem(), uniform_mesh(2.0, N), r)


def test_zero_error_when_reference_is_the_approximation():
    # the reconstruction is continuous, so sampling it against itself is exact
    from dgtime.postprocess import reconstruct

    sol = ode_solution()
    recon = reconstruct(sol)
    reference = lambda t: recon.eval(t) if t > 0 else sol.u0
    assert max_error_sampled(recon, reference) <= 1e-13


def test_zero_weight_exponent_matches_unweighted():
    sol = ode_solution()
    ref = lambda t: np.array([ode_exact(t)])
    assert max_error_sampled(sol, ref, weight=0.0) == max_error_sampled(sol, ref)


def test_window_selects_whole_intervals():
    sol = ode_solution(N=8)
    ref = lambda t: np.array([ode_exact(t)])
    full = max_error_sampled(sol, ref)
    windowed = max_error_sampled(sol, ref, window=(0.5, 2.0))
    assert windowed <= full
    with pytest.raises(ValueError):
        max_error_sampled(sol, ref, window=(1.0, 1.0))


def test_nodal_variant_uses_left_limits():
    sol = ode_solution(N=4)
    ref = lambda t: np.array([ode_exact(t)])
    expected = max(abs(sol.left_limit(n)[0] - ode_exact(sol.mesh.nodes[n]))
                   for n in range(1, 5))
    assert max_error_sampled(sol, ref, nodal=True) == pytest.approx(expected, rel=1e-12)


def test_empty_measurement_is_an_error():
    sol = ode_solution(N=4)  # nodes 0, 0.5, 1, 1.5, 2
    ref = lambda t: np.array([ode_exact(t)])
    with pytest.raises(ValueError, match=r"window \[0.6, 0.9\].*N = 4"):
        max_error_sampled(sol, ref, window=(0.6, 0.9))
    with pytest.raises(ValueError, match="N = 4"):
        max_error_sampled(sol, ref, min_interval=5)
    with pytest.raises(ValueError, match="N = 4"):
        max_error_sampled(sol, ref, nodal=True, window=(0.6, 0.9))
    # one entry of a sequence with nothing to measure fails the whole call
    with pytest.raises(ValueError, match="N = 4"):
        max_error_sampled([sol, sol], ref, min_interval=[1, 5])


def test_sequence_arguments_are_checked():
    sol = ode_solution(N=4)
    ref = lambda t: np.array([ode_exact(t)])
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

    def sample_interval(self, n, taus):
        return richardson(self.coarse.sample_interval(n, taus), self.fine.sample_interval(n, taus))

    def left_limit(self, n):
        return richardson(self.coarse.left_limit(n), self.fine.left_limit(n))


def _oracle_max_error(approx, reference, samples, weight=None, window=None, nodal=False,
                      min_interval=1):
    """One family, one interval and one reference call at a time."""
    mesh = approx.mesh
    lo, hi = window if window is not None else (mesh.nodes[0], mesh.nodes[-1])
    tol = 1e-12 * mesh.T
    worst = 0.0
    taus = np.linspace(-1.0, 1.0, samples)
    for n in range(min_interval, mesh.N + 1):
        tn = mesh.nodes[n]
        if not (lo - tol <= tn <= hi + tol):
            continue
        if nodal:
            err = approx.left_limit(n) - bench._reference_values(reference, [tn])[0]
            w = min(tn ** weight, 1.0) if weight is not None else 1.0
            worst = max(worst, w * state_norm(err, approx.norm_weight))
            continue
        ts = mesh.to_physical(n, taus)
        refs = bench._reference_values(reference, ts)
        errs = np.sqrt(approx.norm_weight) * np.linalg.norm(
            approx.sample_interval(n, taus) - refs, axis=1)
        if weight is not None:
            errs = errs * np.minimum(ts ** weight, 1.0)
        worst = max(worst, float(np.max(errs)))
    return worst


class _SmoothReference:
    """u_j(t) = 1.5 + cos((j + 1) t + j): vectorised, bounded away from zero."""

    def __init__(self, dim):
        self.j = np.arange(dim)

    def eval_many(self, ts):
        return 1.5 + np.cos(np.outer(ts, self.j + 1) + self.j)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), r=st.integers(1, 5),
       dim=st.integers(1, 6), samples=st.sampled_from([2, 4, 50]),
       extrapolated=st.booleans(), vectorised=st.booleans(),
       per_block=st.sampled_from([1, 2, 3, 0]),
       first=st.integers(1, 3),
       window=st.one_of(st.none(), st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))),
       exps=st.tuples(*[st.one_of(st.none(), st.floats(0.0, 4.0))] * 3))
def test_blocked_measurement_matches_per_interval_oracle(seed, n, r, dim, samples, extrapolated,
                                                         vectorised, per_block, first, window,
                                                         exps):
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
    smooth = _SmoothReference(dim)
    reference = smooth if vectorised else (lambda t: smooth.eval_many([t])[0])
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
    scale = max(state_norm(smooth.eval_many([t])[0], norm_weight) for t in mesh.nodes[1:])
    assert got[0] == pytest.approx(expected[0], rel=1e-13, abs=0)
    assert got[1] == pytest.approx(expected[1], rel=1e-13, abs=0)
    assert abs(got[2] - expected[2]) <= 1e-14 * scale
    assert abs(alone - expected[2]) <= 1e-14 * scale


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


def test_extrapolated_solution_samples_richardson_of_samples():
    mesh = uniform_mesh(1.0, 3)
    rng = np.random.default_rng(5)
    coarse = DgSolution(mesh, 3, rng.standard_normal((3, 3, 4)), np.zeros(4), 0.25)
    fine = DgSolution(mesh, 3, rng.standard_normal((3, 3, 9)), np.zeros(9), 0.125)
    ext = ExtrapolatedSolution(coarse, fine)
    taus = np.linspace(-1, 1, 7)
    for n in (1, 2, 3):
        per_sample = richardson(coarse.sample_interval(n, taus), fine.sample_interval(n, taus))
        np.testing.assert_allclose(ext.sample_interval(n, taus), per_sample,
                                   rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(ext.left_limit(n),
                                   richardson(coarse.left_limit(n), fine.left_limit(n)),
                                   rtol=1e-14, atol=1e-14)
    assert ext.norm_weight == 0.25


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), r=st.integers(1, 10),
       dim=st.sampled_from([1, 7]), reconstructed=st.booleans())
def test_extrapolated_blocks_equal_full_array_richardson(seed, n, r, dim, reconstructed):
    rng = np.random.default_rng(seed)
    mesh = TimeMesh(np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, n))]))
    coarse, fine = (DgSolution(mesh, r, rng.standard_normal((n, r, m)),
                               rng.standard_normal(m), rng.uniform(0.01, 1.0))
                    for m in (dim, 2 * dim + 1))
    if reconstructed:
        coarse, fine = reconstruct(coarse), reconstruct(fine)
    ext = ExtrapolatedSolution(coarse, fine)
    full = richardson(coarse.coeffs, fine.coeffs)
    assert (ext.degree_count, ext.dim, ext.norm_weight) == (full.shape[1], dim,
                                                            coarse.norm_weight)
    assert np.array_equal(ext.coeffs, full)
    stop, start = int(rng.integers(1, n + 1)), int(rng.integers(0, n))
    picks = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
    # blocks from interval 1 include the jump from u0 in a reconstruction
    for idx in (slice(0, stop), slice(start, n), np.arange(stop), np.sort(picks), picks):
        assert np.array_equal(ext.coefficients(idx), full[idx])
    taus = np.linspace(-1.0, 1.0, 4)
    for m in (1, n):
        assert np.array_equal(ext.left_limit(m), full[m - 1].sum(axis=0))
        assert np.array_equal(ext.sample_interval(m, taus),
                              legendre_table(full.shape[1] - 1, taus) @ full[m - 1])


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


@pytest.mark.parametrize("experiment, p", [("heat1d", 12), ("heat2d", 6)])
def test_run_profile_equals_materialized_computation(experiment, p):
    n, samples = 4, 50
    if experiment == "heat1d":
        cfg = Heat1dConfig(P=p)
        mesh = uniform_mesh(cfg.T, n)
        sols = [dg_solve(heat1d_problem(c), mesh, 3) for c in (cfg, cfg.refined())]
        coeffs_u = richardson(*(s.coeffs for s in sols))
        coeffs_star = richardson(*(reconstruct(s).coeffs for s in sols))
        reference = Heat1dReference(cfg, bench._sample_floor(cfg.T, n, samples), cfg.T)
    else:
        problem = heat2d_problem(Heat2dConfig(Px=p, Py=p))
        mesh = uniform_mesh(problem.T, n)
        sols = [dg_solve(problem, mesh, 3, moment_quadrature="radau")]
        coeffs_u, coeffs_star = sols[0].coeffs, reconstruct(sols[0]).coeffs
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
