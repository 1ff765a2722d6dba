"""Per-layer spans and counters recorded from outside the dgtime package.

Each layer boundary is a public function (or method) of a dgtime module,
or for the sampled points the one helper that fetches reference values,
wrapped at the name the calling code looks it up by, e.g.
`dgtime.bench.dg_solve` is the name `run_experiment` calls.  A wrapper
opens a span, calls the original and closes the span; spans nest, so a
layer's self time is its span time minus the time of the spans it caused.
Bookkeeping that runs after a call (counting, residual checks) runs inside
a `trace.hook` span so it is charged to no layer.

Nothing here changes a result: wrappers pass arguments and return values
through untouched.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.sparse as sp

# metric name -> span name for the self-time metrics whose sum should cover
# the table time; the remainder is glue outside every layer
SELF_TIME_METRICS = {
    "basis.workspace_s": "basis.workspace",
    "models.assemble_s": "models.assemble",
    "system.factor_s": "system.factor",
    "system.solve_s": "system.solve",
    "dg.self_s": "dg.solve",
    "postprocess.reconstruct_s": "postprocess.reconstruct",
    "reference.build_s": "reference.build",
    "reference.invert_s": "reference.invert",
    "bench.measure_self_s": "bench.measure",
}
INCLUSIVE_METRICS = {"dg.solve_s": "dg.solve", "bench.measure_s": "bench.measure"}
COUNT_METRICS = (
    "basis.workspaces",
    "system.factorizations",
    "system.solves",
    "dg.steps",
    "reference.transforms",
    "reference.bands",
    "reference.invert_times",
    "bench.sample_points",
)


class TraceError(RuntimeError):
    """The traced program no longer matches the layer map."""


def _lookup(root, dotted: str):
    """Resolve 'bench.dg_solve' or 'reference.Heat2dReference.eval_many' under root."""
    owner = root
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceError(f"wrap target dgtime.{dotted} is missing")
    if not hasattr(owner, parts[-1]):
        raise TraceError(f"wrap target dgtime.{dotted} is missing")
    return owner, parts[-1]


class Tracer:
    """Installs the wrappers on an imported dgtime and aggregates spans."""

    def __init__(self, dgtime):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.residual_max = 0.0
        self._seen_workspaces: set[int] = set()
        self._step_matrices: dict[int, tuple[object, sp.spmatrix]] = {}
        self._frozen = False
        self._g_matrix = dgtime.basis.g_matrix
        self._h_diag = dgtime.basis.h_diag

        span = self._wrap_span
        # basis: lazily built Legendre/Radau tables
        span(dgtime, "dg.make_workspace", "basis.workspace", self._count_workspace)
        span(dgtime, "dg.radau_rule", "basis.workspace")
        # models: problem assembly
        for name in ("bench.ode_problem", "bench.heat1d_problem", "bench.heat2d_problem",
                     "heat2d_problem"):
            span(dgtime, name, "models.assemble")
        # system: block factorization and solves
        span(dgtime, "dg.factorize_step_matrix", "system.factor", self._record_factorization)
        span(dgtime, "dg.solve_step", "system.solve", self._record_solve)
        # dg: the stepping loop
        for name in ("bench.dg_solve", "dg_solve"):
            span(dgtime, name, "dg.solve", self._finish_dg_solve)
        # postprocess
        for name in ("bench.reconstruct", "reconstruct"):
            span(dgtime, name, "postprocess.reconstruct")
        # reference: transform values (build) and contour inversion
        for name in ("bench.Heat1dReference", "bench.Heat2dReference", "Heat2dReference"):
            span(dgtime, name, "reference.build")
        for name in ("reference.Heat1dReference.eval_many",
                     "reference.Heat2dReference.eval_many"):
            span(dgtime, name, "reference.invert", self._count_invert_times)
        for name in ("reference.uhat_1d", "reference.resolvent_2d"):
            self._wrap_count(dgtime, name, "reference.transforms")
        self._wrap_count(dgtime, "reference.hyperbolic_contour", "reference.bands")
        # bench: error sampling; every time it asks for reference values goes
        # through bench._reference_values, the one private name wrapped here
        for name in ("bench.max_error_sampled", "max_error_sampled"):
            span(dgtime, name, "bench.measure")
        self._wrap_count(dgtime, "bench._reference_values", "bench.sample_points",
                         weight=lambda reference, ts: len(ts))

    # ------------------------------------------------------------ wrapping

    def _wrap_span(self, root, dotted, layer, hook=None):
        owner, attr = _lookup(root, dotted)
        original = getattr(owner, attr)
        signature = inspect.signature(original) if hook is not None else None

        def traced(*args, **kwargs):
            if self._frozen:
                return original(*args, **kwargs)
            index = self._open(layer)
            try:
                out = original(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                hook_index = self._open("trace.hook")
                try:
                    call = signature.bind(*args, **kwargs)
                    call.apply_defaults()
                    hook(call.arguments, out)
                finally:
                    self._close(hook_index)
            return out

        setattr(owner, attr, traced)

    def _wrap_count(self, root, dotted, counter, weight=None):
        """Count calls, or with weight, the sum of weight(*args, **kwargs)."""
        owner, attr = _lookup(root, dotted)
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            if not self._frozen:
                self.counts[counter] += 1 if weight is None else weight(*args, **kwargs)
            return original(*args, **kwargs)

        setattr(owner, attr, counted)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int):
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)
        self._stack.pop()

    # --------------------------------------------------------------- hooks

    def _count_workspace(self, call, ws):
        if id(ws) not in self._seen_workspaces:
            self._seen_workspaces.add(id(ws))
            self.counts["basis.workspaces"] += 1

    def _record_factorization(self, call, fac):
        A, r, k = call["A"], call["ws"].r, call["k"]
        self.counts["system.factorizations"] += 1
        step = (sp.kron(self._g_matrix(r), sp.identity(A.dim), format="csr")
                + k * sp.kron(sp.diags(self._h_diag(r)), A.matrix, format="csr"))
        # keep fac alive so its id is not reused within this dg_solve call
        self._step_matrices[id(fac)] = (fac, step)

    def _record_solve(self, call, out):
        self.counts["system.solves"] += 1
        step = self._step_matrices[id(call["fac"])][1]
        b = np.asarray(call["rhs"], dtype=float).ravel()
        resid = np.linalg.norm(step @ np.ravel(out) - b) / max(np.linalg.norm(b), 1e-300)
        self.residual_max = max(self.residual_max, float(resid))

    def _finish_dg_solve(self, call, sol):
        self.counts["dg.steps"] += sol.mesh.N
        # dg_solve drops its factorizations on return; so do we
        self._step_matrices.clear()

    def _count_invert_times(self, call, out):
        self.counts["reference.invert_times"] += int(np.size(call["ts"]))

    # -------------------------------------------------------------- results

    def freeze(self):
        """Stop recording; later calls (the untimed self-check) pass through."""
        if self._stack:
            raise TraceError("spans still open when the table finished")
        self._frozen = True
        self._step_matrices.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; raises when a layer did no work."""
        inclusive = defaultdict(float)
        child = defaultdict(float)
        calls = Counter()
        for name, start, end, parent in self.spans:
            inclusive[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        # self time of a layer: its spans' total minus the total of the spans
        # they caused
        self_time = {name: inclusive[name] - child[name] for name in inclusive}

        layers = set(SELF_TIME_METRICS.values())
        idle = sorted(layer for layer in layers if calls[layer] == 0)
        idle += sorted(c for c in COUNT_METRICS if self.counts[c] == 0)
        if idle:
            raise TraceError(f"layers recorded no calls: {', '.join(idle)}")

        out = {metric: self_time[span] for metric, span in SELF_TIME_METRICS.items()}
        out.update({metric: inclusive[span] for metric, span in INCLUSIVE_METRICS.items()})
        out.update({c: float(self.counts[c]) for c in COUNT_METRICS})
        out["system.residual_max"] = self.residual_max
        out["trace.self_sum_s"] = sum(out[m] for m in SELF_TIME_METRICS)
        out["trace.hook_s"] = self_time.get("trace.hook", 0.0)
        return out
