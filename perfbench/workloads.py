"""Workload inputs and table runs, through dgtime's public entry points.

`make_inputs` is the set-up a user pays before the first table (configs,
meshes, seed jitter); `run_tables` produces the tables and is what the
benchmark times.  The dgtime module is passed in so the caller controls when
it is imported.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("paper-tables", "heat2d-scale", "heat2d-graded")

# the four acceptance tables (criterion 3 has two halves), as the CLI runs them
PAPER_TABLES = (
    ("ode", {"experiment": "ode"}),
    ("heat1d-cutoff", {"experiment": "heat1d", "cutoff": True}),
    ("heat1d-weighted-homogeneous", {"experiment": "heat1d", "weighted": 1.25,
                                     "homogeneous": True}),
    ("heat1d-weighted", {"experiment": "heat1d", "weighted": 1.25}),
    ("heat2d-cutoff", {"experiment": "heat2d", "cutoff": True}),
)
# one large step matrix per row (M = 99^2 = 9801, r M = 49005), reused by every step
SCALE_TABLES = (
    ("heat2d-r5-P100", {"experiment": "heat2d", "r": 5, "p": 100, "n_list": (8, 16),
                        "cutoff": True}),
)

# graded mesh t_n = T ((n + d_n) / N)^2 with seeded jitter |d_n| <= JITTER on the
# interior nodes: every step has its own size, hence its own factorization.
# t_{N/2} = T/4 opens the error window and stays put, so the set of measured
# intervals (and with it the table) does not depend on the seed.
GRADED_R = 3
GRADED_N = (32, 64)
GRADED_JITTER = 0.001
GRADED_SAMPLES = 4


def graded_mesh(dt, T: float, N: int, rng: np.random.Generator | None):
    """Graded mesh, jittered by rng; rng=None gives the mesh checks.py pins."""
    s = np.arange(N + 1, dtype=float)
    if rng is not None:
        s[1:-1] += rng.uniform(-GRADED_JITTER, GRADED_JITTER, N - 1)
        s[N // 2] = N // 2
    nodes = T * (s / N) ** 2
    nodes[-1] = T
    return dt.TimeMesh(nodes)


def make_inputs(dt, workload: str, seed: int) -> dict:
    if workload == "paper-tables":
        return {"experiments": PAPER_TABLES}
    if workload == "heat2d-scale":
        return {"experiments": SCALE_TABLES}
    if workload == "heat2d-graded":
        cfg = dt.Heat2dConfig()
        rng = np.random.default_rng(seed)
        return {"config": cfg, "meshes": [graded_mesh(dt, cfg.T, n, rng) for n in GRADED_N]}
    raise ValueError(f"unknown workload {workload!r}")


def run_tables(dt, workload: str, inputs: dict) -> dict[str, str]:
    """Label -> CSV text of every table of the workload."""
    if workload == "heat2d-graded":
        return {"heat2d-graded": _graded_table(dt, inputs["config"], inputs["meshes"]).to_csv()}
    return {label: dt.run_experiment(**kwargs).to_csv() for label, kwargs in inputs["experiments"]}


def _first_left_node(mesh, lo: float) -> float:
    """Left node of the first interval whose right node reaches lo."""
    tol = 1e-12 * mesh.T
    n = int(np.argmax(mesh.nodes[1:] >= lo - tol)) + 1
    return float(mesh.nodes[n - 1])


def _graded_table(dt, cfg, meshes):
    """dg_solve -> reconstruct -> max_error_sampled on each graded mesh."""
    problem = dt.heat2d_problem(cfg)
    window = (cfg.T / 4.0, cfg.T)
    t_lo = min(_first_left_node(mesh, window[0]) for mesh in meshes)
    reference = dt.Heat2dReference(problem, t_lo, cfg.T)
    errors = []
    for mesh in meshes:
        sol = dt.dg_solve(problem, mesh, GRADED_R, moment_quadrature="radau")
        recon = dt.reconstruct(sol)
        errors.append((
            dt.max_error_sampled(sol, reference, GRADED_SAMPLES, window=window),
            dt.max_error_sampled(recon, reference, GRADED_SAMPLES, window=window),
            dt.max_error_sampled(sol, reference, GRADED_SAMPLES, window=window, nodal=True),
        ))
    ns = [mesh.N for mesh in meshes]
    rates = [dt.observed_rates(column, ns) for column in zip(*errors)]
    rows = []
    for i, (n, (eu, es, en)) in enumerate(zip(ns, errors)):
        ru, rs, rn = (None, None, None) if i == 0 else (rates[0][i - 1], rates[1][i - 1],
                                                       rates[2][i - 1])
        rows.append(dt.bench.TableRow(n, cfg.Px, eu, ru, es, rs, en, rn))
    return dt.ConvergenceTable("heat2d-graded", "discrete-L2(hx*hy)", "none",
                               f"[{window[0]}, {window[1]}]", rows)
