import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from dgtime.dg import Forcing, LinearProblem
from dgtime.system import LinearOperator, SineEigenbasis, diagonal_operator, sparse_operator
from dgtime.models import (
    ODE_LAMBDA,
    Heat1dConfig,
    Heat2dConfig,
    fhat,
    heat1d_problem,
    heat2d_problem,
)
from dgtime.reference import (
    Heat1dReference,
    Heat2dReference,
    hyperbolic_contour,
    ode_exact,
    resolvent_2d,
    richardson,
    uhat_1d,
)

from dg_helpers import invert_scalar, unstack_values

LAM = ODE_LAMBDA


def model_forcing(cfg, forced=True):
    """The forcing a heat1d problem on cfg carries, or None for the homogeneous one."""
    return heat1d_problem(cfg).forcing if forced else None


def test_ode_exact_initial_value():
    assert ode_exact(0.0) == pytest.approx(1.0, abs=1e-15)


def test_ode_exact_satisfies_the_equation():
    # independent oracle: differentiate the closed form analytically
    denom = LAM**2 + np.pi**2
    c0 = 1.0 - LAM / denom

    def du(t):
        return (-LAM * c0 * np.exp(-LAM * t)
                + (-LAM * np.pi * np.sin(np.pi * t) + np.pi**2 * np.cos(np.pi * t)) / denom)

    rng = np.random.default_rng(0)
    for t in rng.uniform(0, 2, 20):
        resid = du(t) + LAM * ode_exact(t) - np.cos(np.pi * t)
        assert abs(resid) <= 1e-12


def test_ode_exact_matches_integrator_at_t2():
    out = solve_ivp(lambda t, y: [np.cos(np.pi * t) - LAM * y[0]], (0, 2), [1.0],
                    method="DOP853", rtol=1e-13, atol=1e-14)
    assert ode_exact(2.0) == pytest.approx(out.y[0, -1], abs=1e-12)


def test_fhat_value_at_zero():
    # total integral of (1 + t) e^{-t} is 2
    assert fhat(0.0) == pytest.approx(2.0, rel=1e-15)


def test_fhat_asymptotics():
    for z in (1e3, 1e5):
        assert fhat(z) == pytest.approx(1.0 / z, rel=1e-2)


def test_fhat_matches_quadrature():
    val, _ = quad(lambda t: np.exp(-t) * (1 + t) * np.exp(-t), 0, 40)
    assert fhat(1.0) == pytest.approx(val, abs=1e-10)
    assert fhat(1.0) == pytest.approx(0.75, rel=1e-14)


def test_fhat_pole_rejected():
    with pytest.raises(ValueError):
        fhat(-1.0)


@pytest.mark.parametrize("problem", [heat1d_problem(Heat1dConfig(P=8)),
                                     heat2d_problem(Heat2dConfig(Px=4, Py=4))])
def test_forcing_transform_inverts_to_its_time_factor(problem):
    # independent multi-precision Talbot inversion ties phi_hat to phi;
    # measured at most 1.1e-16 relative
    import mpmath

    forcing = problem.forcing
    with mpmath.workdps(30):
        for t in (0.01, 0.3, 1.0, 2.0):
            inverted = float(mpmath.invertlaplace(forcing.phi_hat, t, method="talbot"))
            assert inverted == pytest.approx(float(forcing.phi(np.array(t))), rel=1e-14, abs=0)


def test_heat2d_reference_rejects_forcing_without_transform():
    problem = heat2d_problem(Heat2dConfig(Px=4, Py=4))
    untransformed = LinearProblem(problem.A, problem.u0, problem.T, problem.norm_weight,
                                  Forcing(problem.forcing.phi, problem.forcing.profile))
    with pytest.raises(ValueError, match="no Laplace transform phi_hat"):
        Heat2dReference(untransformed, 0.5, 2.0)


def test_resolvent_2d_rejects_forcing_without_transform():
    # the public function names the missing transform itself, before any node is solved
    problem = heat2d_problem(Heat2dConfig(Px=4, Py=4))
    untransformed = dataclasses.replace(
        problem, forcing=Forcing(problem.forcing.phi, problem.forcing.profile))
    with pytest.raises(ValueError, match="no Laplace transform phi_hat"):
        resolvent_2d(np.array([1.0, 2.0 + 1.0j]), untransformed, out=np.empty((4, 9)))
    # a homogeneous problem needs no transform
    homogeneous = dataclasses.replace(problem, forcing=None)
    assert resolvent_2d(1.0, homogeneous, out=np.empty((2, 9))).shape == (2, 9)


@pytest.mark.parametrize("kind", ["forced", "homogeneous", "sparse"])
def test_band_stacks_hold_the_resolvent_values_bit_for_bit(kind):
    # each band's real stack is filled node by node in place; it equals the
    # stack resolvent_2d fills in a fresh out, on the eigenbasis path and on
    # the sparse LU path with its refinement pass
    problem = heat2d_problem(Heat2dConfig(Px=6, Py=5))
    if kind == "homogeneous":
        problem = dataclasses.replace(problem, forcing=None)
    elif kind == "sparse":
        problem = dataclasses.replace(problem, A=sparse_operator(problem.A.matrix))
        assert problem.A.eigenbasis is None and problem.A.diagonal is None
    ref = Heat2dReference(problem, problem.T / 20, problem.T)
    assert len(ref._rules) == 2
    for rule, stack in zip(ref._rules, ref._values):
        out = np.empty_like(stack)
        assert resolvent_2d(rule.z, problem, out=out) is out
        assert np.array_equal(out, stack)
    with pytest.raises(ValueError, match="out must be a float array of shape"):
        resolvent_2d(rule.z, problem, out=out[1:])
    with pytest.raises(ValueError, match="out must be a float array of shape"):
        resolvent_2d(rule.z, problem, out=out.astype(complex))


def test_heat2d_reference_build_holds_each_band_once():
    # one band at P = 40: the build peaks at the stack it keeps plus a few
    # M-sized node temporaries, with no complex copy of the band beside it
    # (2x the stack before the values went straight into it)
    problem = heat2d_problem(Heat2dConfig(Px=40, Py=40))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        ref = Heat2dReference(problem, problem.T / 4, problem.T)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ref._values) == 1
    assert peak - before < 1.25 * ref._values[0].nbytes


def test_heat2d_reference_rejects_a_negative_known_spectrum():
    # a pole right of the origin: unchecked, this contour returned 6.51 at
    # t = 0.5 for the first entry, whose exact value is e^1.5 = 4.48
    negative = diagonal_operator([-3.0, 2.0])
    with pytest.raises(ValueError, match="negative eigenvalue -3.0"):
        Heat2dReference(LinearProblem(negative, np.ones(2), 1.0), 0.25, 1.0)
    basis = SineEigenbasis(np.array([-1.0, 2.0, 5.0]))
    modal = LinearOperator(3, None, eigenbasis=basis)
    with pytest.raises(ValueError, match="negative eigenvalue -1.0"):
        Heat2dReference(LinearProblem(modal, np.ones(3), 1.0), 0.25, 1.0)
    # a nonnegative diagonal spectrum passes and inverts to the exact exponentials
    ref = Heat2dReference(LinearProblem(diagonal_operator([0.0, 2.0]), np.ones(2), 1.0),
                          0.25, 1.0)
    np.testing.assert_allclose(ref(0.5), [1.0, math.exp(-1.0)], rtol=1e-12)


def test_heat2d_reference_leaves_sparse_spectra_unchecked():
    # no eigenbasis and no diagonal: the spectrum is unknown and not computed
    A = sparse_operator(np.array([[-3.0, 0.0], [0.0, 2.0]]))
    ref = Heat2dReference(LinearProblem(A, np.ones(2), 1.0), 0.25, 1.0)
    assert ref.eval_many([0.5]).shape == (1, 2)


def test_uhat_boundary_values():
    cfg = Heat1dConfig(P=10)
    for z in (2.0 + 1.0j, 50.0 + 300.0j):
        vals = uhat_1d(np.array([0.0, cfg.L]), z, cfg, model_forcing(cfg))
        assert np.max(np.abs(vals)) <= 1e-12


def test_uhat_symmetry_of_symmetric_data():
    cfg = Heat1dConfig(P=16)
    x = np.array([0.3, 0.9, 1.1, 1.7])
    vals = uhat_1d(x, 3.0 - 2.0j, cfg, model_forcing(cfg))
    np.testing.assert_allclose(vals, vals[::-1], rtol=1e-12)


def _decay2_forcing(profile):
    """phi = e^{-2t} with phi_hat = 1/(z + 2): a forcing other than the models' one."""
    return Forcing(lambda t: np.exp(-2.0 * t), profile, lambda z: 1.0 / (z + 2.0))


def test_uhat_satisfies_the_transformed_equation():
    # finite-difference residual of -uhat'' + (z/kappa) uhat = g at midpoint,
    # for the model forcing and for 0.75 e^{-2t}, whose transform is 0.75/(z + 2)
    cfg = Heat1dConfig()
    z = 4.0 + 3.0j
    x0, d = cfg.L / 2, 1e-4
    mids = []
    for forcing, forcing_hat in ((model_forcing(cfg), fhat(z)),
                                 (_decay2_forcing(np.full(cfg.P - 1, 0.75)), 0.75 / (z + 2.0))):
        stencil = uhat_1d(np.array([x0 - d, x0, x0 + d]), z, cfg, forcing)
        second = (stencil[0] - 2 * stencil[1] + stencil[2]) / d**2
        g = (cfg.u0(x0) + forcing_hat) / cfg.kappa
        resid = -second + (z / cfg.kappa) * stencil[1] - g
        assert abs(resid) / abs(g) <= 1e-6
        mids.append(stencil[1])
    assert abs(mids[0] - mids[1]) > 1e-3  # the forcing argument is read


def test_heat1d_reference_twin_reads_the_same_forcing():
    # a twin on the model forcing would differ by O(1) from this reference
    cfg = Heat1dConfig(P=20)
    ref = Heat1dReference(cfg, _decay2_forcing(np.ones(cfg.P - 1)), 0.05, 2.0)
    assert ref.refinement_check(np.geomspace(0.05, 2.0, 20)) <= 1e-11


def test_uhat_rejects_a_forcing_it_cannot_transform():
    cfg = Heat1dConfig(P=10)
    ramp = _decay2_forcing(cfg.x_interior)
    untransformed = Forcing(lambda t: np.exp(-2.0 * t), np.ones(cfg.P - 1))
    for forcing, message in ((ramp, "spatially constant forcing profile"),
                             (untransformed, "no Laplace transform phi_hat")):
        with pytest.raises(ValueError, match=message):
            uhat_1d(cfg.x_interior, 2.0 + 1.0j, cfg, forcing)
        with pytest.raises(ValueError, match=message):
            Heat1dReference(cfg, forcing, 0.5, 2.0)


def test_uhat_finite_at_large_frequencies():
    # largest-|z| node of the smallest band for a fine spatial grid
    cfg = Heat1dConfig(P=500)
    rule = hyperbolic_contour(2.0 / 4096, 2.0 / 512, half_nodes=48)
    z = rule.z[-1]
    vals = uhat_1d(cfg.x_interior, z, cfg, model_forcing(cfg))
    assert np.all(np.isfinite(vals.view(float)))


@pytest.mark.parametrize("z", [0.0, -1.0, -2.5, complex(-3.0, -0.0)])
def test_uhat_rejects_the_closed_negative_real_axis(z):
    cfg = Heat1dConfig(P=10)
    message = re.escape(f"negative real axis, got z = {complex(z)}")
    with pytest.raises(ValueError, match=message):
        uhat_1d(cfg.x_interior, z, cfg, model_forcing(cfg))
    with pytest.raises(ValueError, match=message):
        uhat_1d(cfg.x_interior, np.array([2.0 + 1.0j, z]), cfg, model_forcing(cfg))


_GREEN_X = (0.05, 0.6, 1.3, 1.95)
_GREEN_NODES = hyperbolic_contour(0.25, 2.0, 48).z[::16]


@pytest.fixture(scope="module")
def greens_monomials():
    """Green's-function transform of x^d, d <= 4, by 30-digit quadrature, as [node][x][d].

    For z uhat - kappa uhat'' = g with zero boundary values and w = sqrt(z/kappa),
    uhat(x) = [sinh(w(L-x)) int_0^x g sinh(w xi) + sinh(w x) int_x^L g sinh(w(L-xi))]
    / (kappa w sinh(w L)); every test case is a combination of the monomial columns.
    """
    import mpmath

    cfg = Heat1dConfig()
    with mpmath.workdps(30):
        L = mpmath.mpf(cfg.L)

        def green(w, x, d):
            left = mpmath.quad(lambda xi: xi**d * mpmath.sinh(w * xi), [0, x])
            right = mpmath.quad(lambda xi: xi**d * mpmath.sinh(w * (L - xi)), [x, L])
            return ((mpmath.sinh(w * (L - x)) * left + mpmath.sinh(w * x) * right)
                    / (cfg.kappa * w * mpmath.sinh(w * L)))

        ws = [mpmath.sqrt(mpmath.mpc(z) / cfg.kappa) for z in _GREEN_NODES]
        return [[[green(w, mpmath.mpf(x), d) for d in range(5)] for x in _GREEN_X] for w in ws]


@pytest.mark.parametrize("forced", [True, False])
@pytest.mark.parametrize("u0_poly", [(1.5,), (0.0, 2.0, -1.0), (1.0, -0.5, 0.75, -0.25),
                                     (0.0, 0.0, 0.0, 0.0, 1.0)])
def test_uhat_matches_greens_function_quadrature(greens_monomials, u0_poly, forced):
    # measured at most 5.3e-16 relative up to degree 3 and 2.0e-15 for x^4
    import mpmath

    cfg = Heat1dConfig(P=10, u0_poly=u0_poly)
    got = uhat_1d(np.array(_GREEN_X), _GREEN_NODES, cfg, model_forcing(cfg, forced))
    with mpmath.workdps(30):
        for z, row, monomials in zip(_GREEN_NODES, got, greens_monomials):
            g = [mpmath.mpf(c) for c in u0_poly]
            if forced:
                g[0] += 1 / (mpmath.mpc(z) + 1) + 1 / (mpmath.mpc(z) + 1) ** 2
            expected = np.array([complex(mpmath.fsum(c * m for c, m in zip(g, at_x)))
                                 for at_x in monomials])
            err = np.max(np.abs(row - expected)) / np.max(np.abs(expected))
            assert err <= 5e-15, f"z = {z}"


def test_contour_structure():
    # the real node, then the K upper half-plane nodes; no lower node is formed
    rule = hyperbolic_contour(0.1, 1.0, half_nodes=20)
    assert rule.z.size == rule.zprime.size == 21
    assert rule.z[0].imag == 0.0
    assert np.all(rule.z[1:].imag > 0.0)
    assert np.max(rule.z.real) < 0.5 * 40.0  # bounded by mu (1 - sin alpha)


def test_bromwich_scalar_exponential():
    rule = hyperbolic_contour(0.05, 2.0, half_nodes=64)
    ts = np.linspace(0.05, 2.0, 25)
    for a in (0.5, 3.0):
        vals = invert_scalar(lambda z: 1.0 / (z + a), ts, rule)
        np.testing.assert_allclose(vals, np.exp(-a * ts), rtol=0, atol=1e-11)


def test_bromwich_ramp():
    rule = hyperbolic_contour(0.05, 2.0, half_nodes=64)
    ts = np.linspace(0.05, 2.0, 25)
    np.testing.assert_allclose(invert_scalar(lambda z: 1.0 / z**2, ts, rule), ts,
                               rtol=0, atol=1e-10)


def test_resolvent_neumann_asymptotics():
    problem = heat2d_problem(Heat2dConfig(Px=10, Py=10))
    z = 1e3 * 8 * problem.A.matrix.max()
    out = unstack_values(resolvent_2d(z, problem, out=np.empty((2, problem.A.dim))))[0]
    expected = (problem.u0 + fhat(z).real * np.ones(problem.A.dim)) / z
    rel = np.linalg.norm(out.real - expected) / np.linalg.norm(expected)
    assert rel <= 2.0 / abs(z) * 8 * problem.A.matrix.max() + 1e-12


def test_resolvent_conjugacy_and_residual():
    problem = heat2d_problem(Heat2dConfig(Px=8, Py=12))
    rng = np.random.default_rng(21)
    for _ in range(3):
        z = complex(rng.uniform(0.5, 5), rng.uniform(-20, 20))
        out, conj = unstack_values(resolvent_2d(np.array([z, np.conj(z)]), problem,
                                                out=np.empty((4, problem.A.dim))))
        np.testing.assert_allclose(conj, np.conj(out), rtol=1e-12)
        rhs = problem.u0 + fhat(z) * np.ones(problem.A.dim)
        resid = z * out + problem.A.matrix @ out - rhs
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(rhs)


def test_bromwich_2d_against_stiff_integrator():
    cfg = Heat2dConfig(Px=10, Py=10)
    problem = heat2d_problem(cfg)
    ref = Heat2dReference(problem, 0.5, 2.0, half_nodes=48)
    A = problem.A.matrix.toarray()
    out = solve_ivp(lambda t, y: -A @ y + (1 + t) * np.exp(-t) * np.ones(cfg.dim),
                    (0, 1.0), problem.u0, method="Radau", rtol=1e-11, atol=1e-13)
    np.testing.assert_allclose(ref(1.0), out.y[:, -1], atol=1e-8)


def test_richardson_trivial_cases():
    coarse = np.array([1.0, 2.0, 3.0])
    fine = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
    np.testing.assert_allclose(richardson(coarse, fine), coarse, rtol=1e-15)


def test_richardson_cancels_h_squared():
    rng = np.random.default_rng(30)
    u = rng.standard_normal(5)
    c = rng.standard_normal(5)
    coarse = u + c  # error c h^2 with h = 1
    fine = np.zeros(11)
    fine[1::2] = u + c / 4.0
    np.testing.assert_allclose(richardson(coarse, fine), u, atol=1e-14)


def test_richardson_rejects_incompatible_sizes():
    with pytest.raises(ValueError):
        richardson(np.zeros(4), np.zeros(8))


def _fourier_heat1d(cfg, forced, x, ts, terms=20001):
    """Continuous 1D heat solution from its sine series, forcing tail in closed form.

    With lam_m = kappa (m pi / L)^2 and a_m = lam_m - 1, mode m of the
    constant forcing (1 + t) exp(-t) contributes (4 / (m pi)) times
    exp(-t) ((1 + t) / a_m - 1 / a_m^2) - exp(-lam_m t) (1 / a_m - 1 / a_m^2),
    and mode 1 (a_1 = 0) contributes exp(-t) (t + t^2 / 2).  The series
    S1 = sum_{m >= 3} (4 / (m pi)) sin(m pi x / L) / a_m decays only like
    m^-3, so it is summed in closed form: it solves (-kappa d^2/dx^2 - 1) S1
    = 1 - (4 / pi) sin(pi x / L) with zero boundary values and no mode-1
    part, which for kappa (pi / L)^2 = 1 and L = 2 gives
    S1 = -1 + (1 - x) cos(pi x / 2) + (3 / pi) sin(pi x / 2).  The other
    series decay like m^-5 or exponentially, so 10^4 terms leave them
    below 1e-18.
    """
    assert cfg.L == 2.0 and cfg.kappa * (np.pi / cfg.L) ** 2 == pytest.approx(1.0, rel=1e-15)
    assert cfg.u0_poly == (0.0, 2.0, -1.0)
    m = np.arange(1, terms, 2, dtype=float)
    k = np.pi / cfg.L
    lam = cfg.kappa * (m * k) ** 2
    b = 8 * cfg.L**2 / (np.pi**3 * m**3)  # sine coefficients of x (L - x)
    c = 4 / (m * np.pi)  # sine coefficients of 1
    sines = np.sin(np.outer(x, m * k))
    a = lam[1:] - 1.0
    s1 = -1.0 + (1.0 - x) * np.cos(k * x) + (3.0 / np.pi) * np.sin(k * x)
    s2 = sines[:, 1:] @ (c[1:] / a**2)
    out = []
    for t in ts:
        u = sines @ (b * np.exp(-lam * t))
        if forced:
            u = u + sines[:, 0] * c[0] * np.exp(-t) * (t + 0.5 * t * t)
            u = u + np.exp(-t) * ((1.0 + t) * s1 - s2)
            u = u - sines[:, 1:] @ (c[1:] * np.exp(-lam[1:] * t) * (1 / a - 1 / a**2))
        out.append(u)
    return np.array(out)


def test_heat1d_reference_matches_fourier_series():
    # measured maximum 1.3e-14 relative with forcing, 4.8e-14 without
    ts = np.geomspace(0.01, 2.0, 24)
    cfg = Heat1dConfig(P=30)
    for forced in (True, False):
        ref = Heat1dReference(cfg, model_forcing(cfg, forced), 0.01, 2.0)
        expected = _fourier_heat1d(cfg, forced, cfg.x_interior, ts)
        err = (np.linalg.norm(ref.eval_many(ts) - expected, axis=1)
               / np.linalg.norm(expected, axis=1))
        assert np.max(err) <= 1e-11, f"forced={forced}"


def test_fourier_oracle_closed_form_tail():
    # the closed-form S1 against the plain series with 10^6 terms at a few points
    cfg = Heat1dConfig(P=30)
    x = cfg.x_interior[::7]
    m = np.arange(3, 2_000_001, 2, dtype=float)
    series = np.sin(np.outer(x, m * np.pi / cfg.L)) @ (4 / (m * np.pi) / (m * m - 1.0))
    closed = -1.0 + (1.0 - x) * np.cos(np.pi * x / 2) + (3.0 / np.pi) * np.sin(np.pi * x / 2)
    np.testing.assert_allclose(series, closed, atol=1e-12)


@pytest.mark.parametrize("forced", [True, False])
@pytest.mark.parametrize("p", [50, 500])
def test_uhat_vectorised_over_z_matches_single_nodes(forced, p):
    cfg = Heat1dConfig(P=p)
    x, forcing = cfg.x_interior, model_forcing(cfg, forced)
    for t_min, t_max in [(0.25, 2.0), (2.0 / 64, 0.25), (2.0 / 6400, 2.0 / 4096)]:
        zu = hyperbolic_contour(t_min, t_max, half_nodes=48).z
        many = uhat_1d(x, zu, cfg, forcing)
        assert many.shape == (zu.size, x.size)
        single = np.stack([uhat_1d(x, z, cfg, forcing) for z in zu])
        scale = np.max(np.abs(single), axis=1, keepdims=True)
        assert np.max(np.abs(many - single) / scale) <= 1e-14
    # scalar positions and scalar z keep their shapes
    assert np.ndim(uhat_1d(0.7, 2.0 + 1.0j, cfg, forcing)) == 0
    assert uhat_1d(0.7, zu, cfg, forcing).shape == zu.shape


def test_banded_reference_called_on_times_gives_one_state_per_time():
    cfg = Heat1dConfig(P=12)
    ref = Heat1dReference(cfg, model_forcing(cfg), 0.1, 1.0)
    ts = np.array([0.0, 0.1, 0.35, 1.0])
    many = ref.eval_many(ts)
    assert many.shape == (4, 11)
    assert np.array_equal(ref(ts), many)
    # one time is a batch of one: the same values to the last bits of a product
    assert np.array_equal(ref(0.35), ref.eval_many([0.35])[0])
    np.testing.assert_allclose(ref(0.35), many[2], rtol=1e-14)
    assert np.array_equal(ref(ts.reshape(2, 2)), many.reshape(2, 2, 11))


def test_heat1d_reference_initial_state():
    cfg = Heat1dConfig(P=12)
    ref = Heat1dReference(cfg, model_forcing(cfg), 0.1, 1.0)
    np.testing.assert_allclose(ref.eval_many([0.0])[0], cfg.u0(cfg.x_interior), rtol=1e-14)


def test_banded_reference_rejects_times_outside_its_window():
    cfg = Heat1dConfig(P=20)
    ref = Heat1dReference(cfg, model_forcing(cfg), 0.01, 1.0)
    for t in (1.0 + 1e-8, 4.0, 8.0, 0.01 * (1 - 1e-8), 1e-3, -0.5, np.nan):
        with pytest.raises(ValueError, match="outside the reference window"):
            ref.eval_many([0.5, t])
    # a relative slack of 1e-9 at either end is accepted; t = 0 maps to u0
    vals = ref.eval_many([0.0, 0.01 * (1 - 1e-10), 1.0 * (1 + 1e-10)])
    np.testing.assert_array_equal(vals[0], cfg.u0(cfg.x_interior))
    assert np.all(np.isfinite(vals))


def test_banded_reference_assigns_band_edges_to_the_upper_band(monkeypatch):
    import dgtime.reference as reference_module

    cfg = Heat1dConfig(P=20)
    ref = Heat1dReference(cfg, model_forcing(cfg), 0.01, 1.0)
    rules = ref._rules
    assert len(rules) == 3  # [1/8, 1], [1/64, 1/8], [0.01, 1/64]
    calls = []
    original = reference_module._invert_values

    def recording(rule, values, ts):
        calls.append(([r is rule for r in rules].index(True), list(ts)))
        return original(rule, values, ts)

    monkeypatch.setattr(reference_module, "_invert_values", recording)
    edge0, edge1 = rules[0].t_min, rules[1].t_min
    ts = [1.0, edge0, edge0 * (1 - 5e-10), edge0 * (1 - 2e-9), edge1, edge1 * (1 - 2e-9), 0.01]
    ref.eval_many(ts)
    bands = {t: b for b, times in calls for t in times}
    assert [bands[t] for t in ts] == [0, 0, 0, 1, 1, 2, 2]
    assert len(calls) == 3  # one inversion per band


def test_reference_self_accuracy_under_refinement():
    cfg = Heat1dConfig(P=40)
    ref = Heat1dReference(cfg, model_forcing(cfg), 0.002, 2.0)
    times = np.geomspace(0.002, 2.0, 40)
    assert ref.refinement_check(times) <= 1e-11


def test_reference_2d_self_accuracy_under_refinement():
    problem = heat2d_problem(Heat2dConfig(Px=12, Py=12))
    ref = Heat2dReference(problem, 0.05, 2.0)
    times = np.geomspace(0.05, 2.0, 20)
    assert ref.refinement_check(times) <= 1e-11


def _moment_exp(x, k):
    """E_k(x) = int_0^1 s^(k-1) exp(-x s) ds for k = 1, 2, without cancellation."""
    x = np.asarray(x, dtype=float)
    series = np.zeros_like(x)  # sum of (-x)^m / (m! (m + k)), by Horner's rule
    for m in range(24, -1, -1):
        series = series * -x + 1.0 / (math.factorial(m) * (m + k))
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = -np.expm1(-x) / x if k == 1 else (-np.expm1(-x) - x * np.exp(-x)) / x**2
    return np.where(np.abs(x) < 1.0, series, closed)


def _modal_heat2d(cfg, forced, ts):
    """Semidiscrete 2D heat solution from the DST-I eigenpairs of the 5-point Laplacian.

    Mode (i, j) has eigenvalue lam = ly_i + lx_j and solves c' + lam c =
    (1 + t) exp(-t) f, whose Duhamel integral is, with a = lam - 1,
    exp(-t) t ((1 + t) E_1(a t) - t E_2(a t)).
    """
    def dst(n, c):
        j = np.arange(1, n + 1)
        S = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) * np.pi / (n + 1))
        return S, 4.0 * c * np.sin(j * np.pi / (2 * (n + 1))) ** 2

    nx, ny = cfg.Px - 1, cfg.Py - 1
    Sx, lx = dst(nx, cfg.kappa / cfg.hx**2)
    Sy, ly = dst(ny, cfg.kappa / cfg.hy**2)
    lam = ly[:, None] + lx[None, :]
    xg = cfg.hx * np.arange(1, cfg.Px)
    yg = cfg.hy * np.arange(1, cfg.Py)
    c0 = Sy @ cfg.u0(xg[None, :], yg[:, None]) @ Sx  # rows y, columns x
    f = Sy @ np.ones((ny, nx)) @ Sx
    out = []
    for t in ts:
        c = np.exp(-lam * t) * c0
        if forced:
            at = (lam - 1.0) * t
            c = c + f * math.exp(-t) * t * ((1.0 + t) * _moment_exp(at, 1)
                                            - t * _moment_exp(at, 2))
        out.append((Sy @ c @ Sx).ravel())
    return np.array(out)


@pytest.mark.parametrize("px,py", [(8, 12), (50, 50)])
@pytest.mark.parametrize("forced", [True, False])
def test_heat2d_reference_matches_modal_solution(px, py, forced):
    cfg = Heat2dConfig(Px=px, Py=py)
    problem = heat2d_problem(cfg)
    if not forced:
        problem = dataclasses.replace(problem, forcing=None)
    t_min = cfg.T / 1000
    ref = Heat2dReference(problem, t_min, cfg.T)
    ts = np.concatenate([np.geomspace(t_min, cfg.T, 25), np.linspace(t_min, cfg.T, 25)])
    expected = _modal_heat2d(cfg, forced, ts)
    err = np.linalg.norm(ref.eval_many(ts) - expected, axis=1) / np.linalg.norm(expected, axis=1)
    assert np.max(err) <= 1e-12
