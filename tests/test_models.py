import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from dgtime.models import (
    Heat1dConfig,
    Heat2dConfig,
    fhat,
    heat1d_problem,
    heat2d_problem,
    ode_problem,
)


def test_ode_problem_data():
    problem = ode_problem()
    assert problem.A.apply(np.array([1.0]))[0] == pytest.approx(0.5)
    assert problem.f(0.0)[0] == pytest.approx(1.0)
    assert problem.f(1.0)[0] == pytest.approx(-1.0)
    assert problem.u0[0] == 1.0
    assert problem.T == 2.0


def test_heat1d_stencil_pattern():
    cfg = Heat1dConfig(P=10)
    problem = heat1d_problem(cfg)
    c = cfg.kappa / cfg.h**2
    e = np.zeros(9)
    e[4] = 1.0
    row = problem.A.apply(e)
    np.testing.assert_allclose(row[3:6], [-c, 2 * c, -c], rtol=1e-14)
    assert np.max(np.abs(row[:3])) == 0.0 and np.max(np.abs(row[6:])) == 0.0


def min_eigenvalue(cfg):
    """Smallest eigenvalue of the model operator, from its closed-form eigenbasis."""
    problem = heat1d_problem(cfg) if isinstance(cfg, Heat1dConfig) else heat2d_problem(cfg)
    return float(problem.A.eigenbasis.eigenvalues.min())


def test_heat1d_min_eigenvalue_formula_vs_dense():
    cfg = Heat1dConfig(P=40)
    c = cfg.kappa / cfg.h**2
    vals = eigh_tridiagonal(np.full(39, 2 * c), np.full(38, -c), eigvals_only=True)
    assert min_eigenvalue(cfg) == pytest.approx(vals[0], rel=1e-12)


def test_heat1d_time_scale_normalised():
    # the default conductivity makes the slowest mode decay at unit rate
    assert abs(min_eigenvalue(Heat1dConfig(P=500)) - 1.0) <= 1e-3


def test_heat1d_initial_profile():
    cfg = Heat1dConfig()
    assert cfg.u0(1.0) == pytest.approx(1.0)
    assert cfg.u0(0.0) == 0.0 and cfg.u0(cfg.L) == pytest.approx(0.0, abs=1e-14)
    problem = heat1d_problem(cfg)
    assert problem.u0.shape == (499,)
    assert problem.norm_weight == pytest.approx(cfg.h)


def test_heat1d_homogeneous_config():
    # the configs carry no forcing switch: every heat problem has the model
    # forcing, and a homogeneous problem drops it from the problem itself
    assert len(dataclasses.fields(Heat1dConfig)) == 5
    assert len(dataclasses.fields(Heat2dConfig)) == 7
    problems = [heat1d_problem(Heat1dConfig(P=20)), heat2d_problem(Heat2dConfig(Px=4, Py=4))]
    for problem in problems:
        assert problem.forcing.phi_hat is fhat
        assert np.all(problem.forcing.profile == 1.0)
    homogeneous = dataclasses.replace(problems[0], forcing=None)
    assert homogeneous.forcing is None
    assert np.array_equal(homogeneous.f(np.array([0.7])), np.zeros((1, 19)))


def test_heat1d_refined_doubles_p_and_keeps_every_other_field():
    cfg = Heat1dConfig(L=3.0, kappa=0.7, P=12, T=1.5, u0_poly=(1.0, -0.5, 0.25))
    fine = cfg.refined()
    assert fine.P == 24
    assert (fine.L, fine.kappa, fine.T, fine.u0_poly) == (3.0, 0.7, 1.5, (1.0, -0.5, 0.25))


def test_heat1d_forcing_is_spatially_constant():
    cfg = Heat1dConfig(P=20)
    problem = heat1d_problem(cfg)
    vals = problem.f(0.7)
    assert vals.shape == (19,)
    ts = np.array([[0.7, 1.1, 0.0]])
    assert problem.f(ts).shape == (1, 3, 19)
    assert np.array_equal(problem.f(ts)[0, 0], vals)
    assert dataclasses.replace(problem, forcing=None).f(ts).shape == (1, 3, 19)
    assert np.ptp(vals) == 0.0
    assert vals[0] == pytest.approx(1.7 * np.exp(-0.7), rel=1e-14)


def test_heat2d_dimension():
    assert Heat2dConfig(Px=50, Py=50).dim == 2401
    assert heat2d_problem(Heat2dConfig(Px=50, Py=50)).A.dim == 2401


def test_heat2d_stencil_annihilates_constants_in_the_interior():
    cfg = Heat2dConfig(Px=8, Py=8)
    problem = heat2d_problem(cfg)
    out = problem.A.apply(np.ones(cfg.dim))
    grid = out.reshape(cfg.Py - 1, cfg.Px - 1).T  # [p, q]
    np.testing.assert_allclose(grid[1:-1, 1:-1], 0.0, atol=1e-12)
    assert np.min(grid[0, :]) > 0.0  # boundary-adjacent rows feel the Dirichlet wall


def test_heat2d_min_eigenvalue_near_one():
    assert abs(min_eigenvalue(Heat2dConfig()) - 1.0) <= 1e-2


def test_heat2d_equals_kronecker_sum():
    cfg = Heat2dConfig(Px=7, Py=5, Lx=2.0, Ly=1.0)
    problem = heat2d_problem(cfg)
    cx = cfg.kappa / cfg.hx**2
    cy = cfg.kappa / cfg.hy**2
    ax = sp.diags([np.full(5, -cx), np.full(6, 2 * cx), np.full(5, -cx)], [-1, 0, 1])
    ay = sp.diags([np.full(3, -cy), np.full(4, 2 * cy), np.full(3, -cy)], [-1, 0, 1])
    kron_sum = sp.kron(sp.identity(4), ax) + sp.kron(ay, sp.identity(6))
    rng = np.random.default_rng(4)
    for _ in range(5):
        v = rng.standard_normal(cfg.dim)
        np.testing.assert_allclose(problem.A.apply(v), kron_sum @ v, rtol=1e-12, atol=1e-12)


def test_heat2d_operator_symmetric_positive():
    cfg = Heat2dConfig(Px=9, Py=6)
    problem = heat2d_problem(cfg)
    rng = np.random.default_rng(8)
    for _ in range(5):
        u, v = rng.standard_normal(cfg.dim), rng.standard_normal(cfg.dim)
        assert abs(u @ problem.A.apply(v) - v @ problem.A.apply(u)) <= 1e-12
        assert u @ problem.A.apply(u) > 0.0


def test_heat2d_initial_data_ordering():
    cfg = Heat2dConfig(Px=4, Py=3)
    problem = heat2d_problem(cfg)
    # column-major: x index fastest
    expected = [cfg.u0(p * cfg.hx, q * cfg.hy)
                for q in range(1, 3) for p in range(1, 4)]
    np.testing.assert_allclose(problem.u0, expected, rtol=1e-14)


def test_config_validation():
    with pytest.raises(ValueError):
        Heat1dConfig(P=1)
    with pytest.raises(ValueError):
        Heat1dConfig(kappa=0.0)
    with pytest.raises(ValueError, match="at least one coefficient"):
        Heat1dConfig(u0_poly=())
    with pytest.raises(ValueError, match="must be finite"):
        Heat1dConfig(u0_poly=(np.nan, 1.0))
    with pytest.raises(ValueError):
        Heat2dConfig(Px=1)
    # non-finite or non-positive lengths, conductivities and final times
    for field in ("kappa", "L", "T"):
        for value in (np.nan, np.inf, -2.0, 0.0):
            with pytest.raises(ValueError, match=f"^{field} must be finite and positive"):
                Heat1dConfig(**{field: value})
    for field in ("kappa", "Lx", "Ly", "T"):
        for value in (np.nan, np.inf, -2.0, 0.0):
            with pytest.raises(ValueError, match=f"^{field} must be finite and positive"):
                Heat2dConfig(**{field: value})
