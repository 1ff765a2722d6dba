import math

import numpy as np
import pytest
from numpy.polynomial import legendre

from dgtime.basis import (
    g_matrix,
    h_diag,
    legendre_table,
    make_workspace,
    radau_rule,
)

from dg_helpers import legendre_coeff


def bisect_root(f, lo, hi, iters=100):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (flo > 0):
            lo, flo = mid, f(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_legendre_p0_is_one():
    assert legendre_table(0, 0.7)[0, 0] == 1.0


def test_legendre_normalized_at_one():
    np.testing.assert_allclose(legendre_table(8, 1.0)[0, 1:], 1.0, rtol=0, atol=1e-15)


def test_legendre_p3_closed_form():
    # independent oracle: P_3(t) = (5 t^3 - 3 t)/2
    tau = -0.5
    assert legendre_table(3, tau)[0, 3] == pytest.approx((5 * tau**3 - 3 * tau) / 2, abs=1e-15)


def test_legendre_parity():
    taus = np.linspace(-1, 1, 11)
    signs = (-1.0) ** np.arange(7)
    np.testing.assert_allclose(legendre_table(6, -taus), signs * legendre_table(6, taus),
                               atol=1e-14)


def test_legendre_table_matches_eval():
    # each column against the explicit sum P_j = 2^-j sum_k C(j, k)^2 (t - 1)^(j-k) (t + 1)^k
    taus = np.linspace(-1, 1, 13)
    table = legendre_table(5, taus)
    for j in range(6):
        explicit = sum(math.comb(j, k) ** 2 * (taus - 1) ** (j - k) * (taus + 1) ** k
                       for k in range(j + 1)) / 2**j
        np.testing.assert_allclose(table[:, j], explicit, atol=1e-14)


def test_g_matrix_r1():
    np.testing.assert_array_equal(g_matrix(1), [[1.0]])


def test_g_matrix_r4_closed_form():
    expected = np.array([
        [1, 1, 1, 1],
        [-1, 1, 1, 1],
        [1, -1, 1, 1],
        [-1, 1, -1, 1],
    ], dtype=float)
    np.testing.assert_array_equal(g_matrix(4), expected)


@pytest.mark.parametrize("r", [1, 2, 3, 5, 8])
def test_g_matrix_integral_oracle(r):
    # G[i, j] = P_j(-1) P_i(-1) + integral of P_j' P_i, by quadrature
    nodes, weights = legendre.leggauss(r + 2)
    table, ends = legendre_table(r - 1, nodes), legendre_table(r - 1, -1.0)[0]
    G = np.empty((r, r))
    for i in range(r):
        for j in range(r):
            dpj = legendre.legval(nodes, legendre.legder(np.eye(r)[j]))
            G[i, j] = ends[j] * ends[i] + weights @ (dpj * table[:, i])
    assert np.max(np.abs(G - g_matrix(r))) <= 1e-12


def test_h_diag_values():
    np.testing.assert_array_equal(h_diag(1), [1.0])
    np.testing.assert_allclose(h_diag(4), [1, 1 / 3, 1 / 5, 1 / 7], rtol=1e-15)
    np.testing.assert_allclose(h_diag(2), [1, 1 / 3], rtol=1e-15)


def test_radau_r1():
    np.testing.assert_array_equal(radau_rule(1)[0], [1.0])


def test_radau_r2_closed_form_and_bisection():
    roots = radau_rule(2)[0]
    np.testing.assert_allclose(roots, [-1.0 / 3.0, 1.0], atol=1e-14)
    f = lambda x: legendre_table(2, x)[0, 2] - legendre_table(2, x)[0, 1]
    assert roots[0] == pytest.approx(bisect_root(f, -0.9, 0.0), abs=1e-12)


def test_radau_r3_closed_form_and_bisection():
    roots = radau_rule(3)[0]
    expected = [(-1 - np.sqrt(6)) / 5, (-1 + np.sqrt(6)) / 5, 1.0]
    np.testing.assert_allclose(roots, expected, atol=1e-13)
    f = lambda x: legendre_table(3, x)[0, 3] - legendre_table(3, x)[0, 2]
    assert roots[0] == pytest.approx(bisect_root(f, -0.9, -0.5), abs=1e-12)
    assert roots[1] == pytest.approx(bisect_root(f, 0.0, 0.5), abs=1e-12)


@pytest.mark.parametrize("r", range(1, 13))
def test_radau_residual_and_ordering(r):
    roots = radau_rule(r)[0]
    assert roots[-1] == 1.0
    assert np.all(np.diff(roots) > 0)
    table = legendre_table(r, roots)
    resid = np.abs(table[:, r] - table[:, r - 1])
    assert np.max(resid) <= 1e-12


def test_radau_rule_small_cases():
    nodes, weights = radau_rule(2)
    np.testing.assert_allclose(weights, [1.5, 0.5], atol=1e-13)
    assert weights.sum() == pytest.approx(2.0, abs=1e-13)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 6])
def test_radau_rule_degree_exactness(r):
    nodes, weights = radau_rule(r)
    rng = np.random.default_rng(11)
    for deg in range(2 * r - 1):
        coef = rng.standard_normal(deg + 1)
        exact = sum(c * (1 - (-1) ** (d + 1)) / (d + 1) for d, c in enumerate(coef))
        quad = weights @ np.polynomial.polynomial.polyval(nodes, coef)
        assert quad == pytest.approx(exact, abs=1e-12)


def _workspace_or_leggauss(m):
    """The m-point Gauss rule of the workspace of degree count m - 3; leggauss's below 4 points."""
    if m < 4:
        return legendre.leggauss(m)
    ws = make_workspace(m - 3)
    return ws.quad_nodes, ws.quad_weights


def test_gauss_rule_analytic_cases():
    nodes, weights = legendre.leggauss(1)
    np.testing.assert_allclose(nodes, [0.0], atol=1e-15)
    np.testing.assert_allclose(weights, [2.0], rtol=1e-15)
    nodes, weights = legendre.leggauss(2)
    np.testing.assert_allclose(nodes, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15)
    np.testing.assert_allclose(weights, [1.0, 1.0], rtol=1e-14)
    nodes, weights = legendre.leggauss(3)  # legendre_coeff's rule for j = 0
    np.testing.assert_allclose(nodes, [-np.sqrt(3 / 5), 0.0, np.sqrt(3 / 5)], atol=1e-15)
    np.testing.assert_allclose(weights, [5 / 9, 8 / 9, 5 / 9], rtol=1e-14)
    # the r = 1 workspace: x = +-sqrt(3/7 -+ 2/7 sqrt(6/5)), w = (18 +- sqrt(30)) / 36
    ws = make_workspace(1)
    inner, outer = np.sqrt(3 / 7 - 2 / 7 * np.sqrt(6 / 5)), np.sqrt(3 / 7 + 2 / 7 * np.sqrt(6 / 5))
    np.testing.assert_allclose(ws.quad_nodes, [-outer, -inner, inner, outer], atol=1e-15)
    w_in, w_out = (18 + np.sqrt(30)) / 36, (18 - np.sqrt(30)) / 36
    np.testing.assert_allclose(ws.quad_weights, [w_out, w_in, w_in, w_out], rtol=1e-14)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 10, 20, 40, 64, 100])
def test_gauss_rule_degree_exactness(m):
    nodes, weights = _workspace_or_leggauss(m)
    assert weights.sum() == pytest.approx(2.0, rel=1e-14)
    rng = np.random.default_rng(7)
    coef = rng.standard_normal(2 * m)  # degree 2m - 1
    exact = sum(c * (1 - (-1) ** (d + 1)) / (d + 1) for d, c in enumerate(coef))
    quad = weights @ np.polynomial.polynomial.polyval(nodes, coef)
    assert quad == pytest.approx(exact, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("m", [1, 5, 16, 33, 64, 100])
def test_gauss_rule_matches_library(m):
    # the library's weights against the closed form 2 / ((1 - x^2) P_m'(x)^2)
    # in 40 digits at the same nodes; the relative error grows like m^2 eps
    import mpmath

    nodes, weights = _workspace_or_leggauss(m)
    with mpmath.workdps(40):
        xs = [mpmath.mpf(float(x)) for x in nodes]
        # (1 - x^2) P_m'(x) = m (P_{m-1}(x) - x P_m(x))
        exact = [2 * (1 - x**2) / (m * (mpmath.legendre(m - 1, x) - x * mpmath.legendre(m, x)))
                 ** 2 for x in xs]
        weight_err = max(abs(float((w - v) / w)) for w, v in zip(exact, weights))
    assert weight_err <= 2 * m**2 * np.finfo(float).eps


def test_gauss_rule_rejects_out_of_range():
    # the workspace checks its degree count; legendre_coeff's rule of size
    # j + 3 reaches leggauss(0), which raises ValueError itself
    with pytest.raises(ValueError):
        make_workspace(0)
    with pytest.raises(ValueError):
        legendre_coeff(lambda t: t, (0.0, 1.0), -3)


def _mp_roots(poly, guesses):
    import mpmath

    return [mpmath.findroot(poly, mpmath.mpf(float(x))) for x in guesses]


@pytest.mark.parametrize("r", range(1, 17))
def test_radau_rule_matches_mpmath(r):
    # 40-digit roots of P_r - P_{r-1}, seeded from the double nodes, and the
    # closed-form right Radau weights (1 + x) / (r^2 P_{r-1}(x)^2), 2 / r^2 at x = 1
    import mpmath

    nodes, weights = radau_rule(r)
    with mpmath.workdps(40):
        roots = _mp_roots(lambda x: mpmath.legendre(r, x) - mpmath.legendre(r - 1, x),
                          nodes[:-1]) + [mpmath.mpf(1)]
        exact = [(1 + x) / (r**2 * mpmath.legendre(r - 1, x) ** 2) for x in roots[:-1]]
        exact.append(mpmath.mpf(2) / r**2)
        node_err = max(abs(float(x - y)) for x, y in zip(roots, nodes))
        weight_err = max(abs(float((w - v) / w)) for w, v in zip(exact, weights))
    assert node_err <= 2e-16
    assert weight_err <= 5e-14


@pytest.mark.parametrize("m", [1, 5, 16, 33, 64, 100])
def test_gauss_rule_nodes_match_mpmath(m):
    import mpmath

    nodes, _ = _workspace_or_leggauss(m)
    with mpmath.workdps(40):
        roots = _mp_roots(lambda x: mpmath.legendre(m, x), nodes)
        node_err = max(abs(float(x - y)) for x, y in zip(roots, nodes))
    assert node_err <= 2e-16


def test_legendre_coeff_constant():
    coeffs = [legendre_coeff(lambda t: np.full_like(t, 3.5), (0.2, 1.7), j) for j in range(4)]
    assert coeffs[0] == pytest.approx(3.5, rel=1e-14)
    assert np.max(np.abs(coeffs[1:])) <= 1e-13


def test_legendre_coeff_picks_out_basis_function():
    a, b = 0.3, 2.1
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    p1 = lambda t: (t - mid) / half
    assert legendre_coeff(p1, (a, b), 1) == pytest.approx(1.0, rel=1e-13)
    assert abs(legendre_coeff(p1, (a, b), 0)) <= 1e-14


def test_legendre_coeff_linear_analytic():
    # t = 1/2 + tau/2 on (0, 1), so a_0 = a_1 = 1/2
    assert legendre_coeff(lambda t: t, (0.0, 1.0), 0) == pytest.approx(0.5, rel=1e-13)
    assert legendre_coeff(lambda t: t, (0.0, 1.0), 1) == pytest.approx(0.5, rel=1e-13)


def test_legendre_coeff_rejects_bad_interval():
    with pytest.raises(ValueError):
        legendre_coeff(lambda t: t, (1.0, 1.0), 0)


def test_local_orthogonality():
    a, b = 0.7, 1.9
    k = b - a
    r = 5
    nodes, weights = legendre.leggauss(r + 2)
    table = legendre_table(r - 1, nodes)
    for i in range(r):
        for j in range(r):
            integrand = table[:, i] * table[:, j]
            val = 0.5 * k * (weights @ integrand)
            expected = k / (2 * j + 1) if i == j else 0.0
            assert abs(val - expected) <= 1e-12 * k


def test_local_endpoint_values():
    ends = legendre_table(6, [1.0, -1.0])
    np.testing.assert_allclose(ends[0], 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(ends[1], (-1.0) ** np.arange(7), rtol=0, atol=1e-15)


def test_coefficient_reproduction_random_polynomial():
    rng = np.random.default_rng(42)
    r = 5
    a, b = 0.25, 0.75
    coef = rng.standard_normal(r)  # monomial coefficients, degree r - 1
    v = lambda t: np.polynomial.polynomial.polyval(t, coef)
    legendre_coeffs = [legendre_coeff(v, (a, b), j) for j in range(r)]
    taus = np.linspace(-1, 1, 50)
    t = 0.5 * ((b - a) * taus + (a + b))
    recon = legendre_table(r - 1, taus) @ np.array(legendre_coeffs)
    np.testing.assert_allclose(recon, v(t), rtol=1e-12, atol=1e-13)


def test_workspace_cached_and_immutable():
    ws1 = make_workspace(4)
    ws2 = make_workspace(4)
    assert ws1 is ws2
    assert not ws1.G.flags.writeable
    assert ws1.quad_nodes.size == 7  # default r + 3
    with pytest.raises(ValueError):
        np.asarray(ws1.H)[0] = 2.0
