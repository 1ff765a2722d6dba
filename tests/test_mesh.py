import re
import warnings

import numpy as np
import pytest

from dgtime.mesh import TimeMesh, time_values, uniform_mesh


def test_uniform_steps():
    mesh = uniform_mesh(2.0, 5)
    np.testing.assert_allclose(mesh.steps, 0.4, rtol=1e-15)
    assert mesh.N == 5
    assert mesh.T == 2.0


def test_uniform_node_value():
    mesh = uniform_mesh(2.0, 8)
    assert mesh.nodes[3] == pytest.approx(0.75, rel=1e-15)


def test_uniform_steps_equal_to_roundoff():
    for T, N in ((2.0, 7), (1.3, 13), (10.0, 6)):
        mesh = uniform_mesh(T, N)
        assert np.max(np.abs(mesh.steps - T / N)) <= 1e-15 * T


def test_single_interval():
    np.testing.assert_array_equal(uniform_mesh(1.0, 1).nodes, [0.0, 1.0])


def test_uniform_rejects_bad_arguments():
    with pytest.raises(ValueError):
        uniform_mesh(0.0, 4)
    with pytest.raises(ValueError):
        uniform_mesh(1.0, 0)


def test_uniform_rejects_non_integer_interval_count():
    # a float N used to give a mesh on the wrong interval: N = 2.5 gave T = 1.2
    for N in (2.5, 4.0, np.float64(4.0), "4"):
        with pytest.raises(ValueError, match=rf"interval count must be an integer, "
                                             rf"got N={re.escape(repr(N))}$"):
            uniform_mesh(1.0, N)
    for N in (4, np.int64(4), np.int32(4), np.uint8(4)):
        mesh = uniform_mesh(1.0, N)
        assert mesh.N == 4 and mesh.T == 1.0


def test_non_finite_nodes_rejected():
    for nodes, bad in (([0.0, 1.0, np.inf], "inf"), ([-np.inf, 0.0, 1.0], "-inf"),
                       ([0.0, np.nan, 1.0], "nan")):
        with pytest.raises(ValueError, match=f"mesh nodes must be finite, got {bad}$"):
            TimeMesh(np.array(nodes))


def test_uniform_rejects_non_finite_final_time():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way to the error
        for T in (np.inf, np.nan, -np.inf):
            with pytest.raises(ValueError, match=f"final time must be positive and finite, "
                                                 f"got T={T}"):
                uniform_mesh(T, 4)


def test_nonuniform_nodes_accepted():
    mesh = TimeMesh(np.array([0.0, 0.1, 0.5, 2.0]))
    assert np.max(mesh.steps) == pytest.approx(1.5)


def test_nodes_must_increase():
    with pytest.raises(ValueError):
        TimeMesh(np.array([0.0, 1.0, 1.0]))


def test_to_physical_endpoints_and_midpoint():
    mesh = uniform_mesh(2.0, 5)
    for n in range(1, 6):
        assert mesh.to_physical(n, -1.0) == pytest.approx(mesh.nodes[n - 1], abs=1e-15)
        assert mesh.to_physical(n, 1.0) == pytest.approx(mesh.nodes[n], abs=1e-15)
        mid = 0.5 * (mesh.nodes[n - 1] + mesh.nodes[n])
        assert mesh.to_physical(n, 0.0) == pytest.approx(mid, rel=1e-15)


def test_to_physical_affine_value():
    # interval 2 of the uniform (T=2, N=5) mesh at tau = -1/3
    mesh = uniform_mesh(2.0, 5)
    expected = 0.4 + (1.0 / 3.0) * 0.4
    assert mesh.to_physical(2, -1.0 / 3.0) == pytest.approx(expected, rel=1e-14)


def test_to_physical_rejects_bad_index():
    mesh = uniform_mesh(1.0, 3)
    with pytest.raises(ValueError):
        mesh.to_physical(0, 0.0)
    with pytest.raises(ValueError):
        mesh.to_physical(4, 0.0)


def test_non_integral_interval_index_raises_naming_it():
    from dgtime.dg import dg_solve
    from dgtime.models import ode_problem
    from dgtime.postprocess import jump_indicator
    from dgtime.reference import ode_exact

    from dg_helpers import error_profile_deviation

    mesh = uniform_mesh(2.0, 4)
    sol = dg_solve(ode_problem(), mesh, 2)
    for read, bad in ((lambda n: jump_indicator(sol, n), 2.5),
                      (lambda n: mesh.to_physical(n, 0.0), 1.5),
                      (lambda n: error_profile_deviation(sol, ode_exact, n), 2.0),
                      (lambda n: mesh.to_physical(n, 0.0), np.array([1.0, 2.0]))):
        with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {bad!r}")):
            read(bad)
    # Python and numpy integers, and integer index arrays, pass
    for n in (2, np.int32(2), np.int64(2)):
        assert mesh.to_physical(n, 1.0) == mesh.nodes[2]
        assert jump_indicator(sol, n) == jump_indicator(sol, 2)
    assert np.array_equal(mesh.to_physical(np.array([1, 2], dtype=np.int32), 1.0),
                          mesh.nodes[1:3])


def test_to_physical_index_array_gives_one_row_per_interval():
    mesh = TimeMesh(np.array([0.0, 0.3, 1.1, 1.15, 2.0]))
    taus = np.linspace(-1.0, 1.0, 7)
    rows = mesh.to_physical(np.arange(1, 5), taus)
    assert rows.shape == (4, 7)
    for n in range(1, 5):
        assert np.array_equal(rows[n - 1], mesh.to_physical(n, taus))
    # tau = 1 is exactly the right node, tau = -1 the left one
    assert np.array_equal(mesh.to_physical(np.arange(1, 5), 1.0), mesh.nodes[1:])
    assert np.array_equal(mesh.to_physical(np.arange(1, 5), -1.0), mesh.nodes[:-1])
    assert mesh.to_physical(np.array([[2], [3]]), taus).shape == (2, 1, 7)
    for bad in (np.array([1, 5]), np.array([0, 2])):
        with pytest.raises(ValueError, match="outside 1..4"):
            mesh.to_physical(bad, taus)


def test_time_values_rule():
    ts = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    assert np.array_equal(time_values(np.sin, ts), np.sin(ts))
    states = time_values(lambda t: np.stack([t, 2 * t], axis=-1), ts)
    assert states.shape == (2, 3, 2)
    for bad in (lambda t: t.T, lambda t: t.ravel(), lambda t: 1.0,
                lambda t: np.zeros((2, 3, 2, 2))):
        with pytest.raises(ValueError, match=r"for times \(2, 3\)"):
            time_values(bad, ts)

