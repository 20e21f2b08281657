"""In-memory span tracing around the program's layer boundaries.

:func:`install` wraps the public functions of each layer, and the names a
module resolves at call time (``enhq.hilbert.eigh``,
``enhq.dynamics.solve_ivp``), from outside the program: every module
attribute of the ``enhq`` package that holds one of those functions is
replaced by a wrapper that records a span.  Spans are ``(name, start,
end, parent)`` rows kept in lists and written out when the run ends.
:func:`layer_metrics` folds them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time

# One name per layer boundary; the prefix is the program module.
_MODULE_FUNCTIONS = (
    ("hilbert.eigh", "enhq.hilbert", "eigh"),
    ("hilbert.apply_unitary", "enhq.hilbert", "apply_unitary"),
    ("hilbert.build_rep", "enhq.hilbert", "build_fock_rep"),
    ("hilbert.build_rep", "enhq.hilbert", "build_halfline_rep"),
    ("hilbert.build_rep", "enhq.hilbert", "build_spin_rep"),
    ("coherent.fs_metric_numeric", "enhq.coherent", "fs_metric_numeric"),
    ("coherent.scalar_curvature", "enhq.coherent", "scalar_curvature"),
    ("coherent.fiducial_moments", "enhq.coherent", "fiducial_moments"),
    ("correspondence.parse", "enhq.correspondence", "parse_polynomial"),
    ("correspondence.enhance", "enhq.correspondence", "enhance"),
    ("correspondence.poly_expectation", "enhq.correspondence", "poly_expectation"),
    ("dynamics.solve_ivp", "enhq.dynamics", "solve_ivp"),
    ("dynamics.hamiltonian_flow", "enhq.dynamics", "hamiltonian_flow"),
    ("models.hydrogen_enhanced", "enhq.models", "hydrogen_enhanced"),
    ("cli.validate_config", "enhq.cli", "validate_config"),
    ("cli.main", "enhq.cli", "main"),
)

_METHODS = (
    ("coherent.state", "enhq.coherent", "CoherentFamily", "state"),
    ("correspondence.evaluate", "enhq.correspondence", "EnhancedHamiltonian", "evaluate"),
    ("correspondence.gradient", "enhq.correspondence", "EnhancedHamiltonian", "gradient"),
)

SETUP = "bench.setup"
OP = "bench.op"


class Tracer:
    """Span recorder.  Index order is start order, so a parent precedes its children."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.nfev: dict[int, int] = {}
        self._stack = [-1]

    def begin(self, name: str) -> int:
        i = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        begin, end, nfev = self.begin, self.end, self.nfev

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(i)

        @functools.wraps(fn)
        def traced_solver(*args, **kwargs):
            i = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(i)
            nfev[i] = int(result.nfev)
            return result

        return traced_solver if name == "dynamics.solve_ivp" else traced

    def write(self, path) -> None:
        """One ``index parent name start_s end_s`` row per span, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i, (n, p, s, e) in enumerate(zip(self.names, self.parents, self.starts, self.ends)):
                fh.write(f"{i}\t{p}\t{n}\t{s:.9f}\t{e:.9f}\n")


def install(tracer: Tracer) -> None:
    """Replace every binding of the traced functions in the loaded ``enhq`` modules.

    A module the workload did not import (``enhq.cli`` for library use) is skipped.
    """
    modules = [m for n, m in sys.modules.items() if n == "enhq" or n.startswith("enhq.")]
    for name, module, attr in _MODULE_FUNCTIONS:
        if module not in sys.modules:
            continue
        original = getattr(sys.modules[module], attr)
        wrapped = tracer.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    for name, module, cls_name, attr in _METHODS:
        cls = getattr(sys.modules[module], cls_name)
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))


def layer_metrics(tracer: Tracer, n_ops: int, import_ms: float, counters: dict) -> dict[str, float]:
    """Per-layer counts and times from the spans, the import time and the workload's counters.

    Times are milliseconds and, like counts, per timed operation; names
    starting with ``setup.`` cover set-up (build and warm-up) instead.
    Self time is a span's duration minus that of its child spans.
    """
    names, parents = tracer.names, tracer.parents
    n = len(names)
    dur = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    child = [0.0] * n
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]

    # nearest enclosing span of a kind, the span itself included
    kinds = {
        "metric": ("coherent.fs_metric_numeric",),
        "gradient": ("correspondence.gradient",),
        "solver": ("dynamics.solve_ivp",),
        "flow": ("dynamics.hamiltonian_flow",),
        "label": ("correspondence.evaluate", "correspondence.gradient"),
    }
    near = {k: [-1] * n for k in kinds}
    phase = [""] * n
    for i in range(n):
        p = parents[i]
        phase[i] = phase[p] if p >= 0 else names[i]
        for k, members in kinds.items():
            near[k][i] = i if names[i] in members else (near[k][p] if p >= 0 else -1)

    def above(k, i):
        p = parents[i]
        return near[k][p] if p >= 0 else -1

    count: dict[tuple, int] = {}
    incl: dict[tuple, float] = {}
    own: dict[tuple, float] = {}
    states_in_metric = evals_in_gradient = gradients_in_solver = 0
    gradients_that_evaluate = set()
    flow_label_s = 0.0
    nfev = 0
    for i in range(n):
        key = (phase[i], names[i])
        count[key] = count.get(key, 0) + 1
        incl[key] = incl.get(key, 0.0) + dur[i]
        own[key] = own.get(key, 0.0) + dur[i] - child[i]
        if phase[i] != OP:
            continue
        name = names[i]
        if name == "coherent.state" and above("metric", i) >= 0:
            states_in_metric += 1
        elif name == "correspondence.poly_expectation" and above("gradient", i) >= 0:
            evals_in_gradient += 1
            gradients_that_evaluate.add(above("gradient", i))
        elif name == "dynamics.solve_ivp":
            nfev += tracer.nfev.get(i, 0)
        if name == "correspondence.gradient" and above("solver", i) >= 0:
            gradients_in_solver += 1
        if near["label"][i] == i and above("label", i) < 0 and above("flow", i) >= 0:
            flow_label_s += dur[i]

    def per_op(table, name, scale=1.0):
        return table.get((OP, name), 0) * scale / n_ops

    def setup(table, name, scale=1.0):
        return table.get((SETUP, name), 0) * scale

    def ratio(num, den):
        return num / den if den else 0.0

    ms = 1e3
    metric_points = count.get((OP, "coherent.fs_metric_numeric"), 0)
    return {
        "hilbert.build_rep_ms": per_op(incl, "hilbert.build_rep", ms),
        "hilbert.eigh_calls": per_op(count, "hilbert.eigh"),
        "hilbert.eigh_ms": per_op(incl, "hilbert.eigh", ms),
        "hilbert.apply_unitary_calls": per_op(count, "hilbert.apply_unitary"),
        "hilbert.apply_unitary_self_ms": per_op(own, "hilbert.apply_unitary", ms),
        "coherent.state_calls": per_op(count, "coherent.state"),
        "coherent.state_ms": per_op(incl, "coherent.state", ms),
        "coherent.metric_points": per_op(count, "coherent.fs_metric_numeric"),
        "coherent.states_per_metric_point": ratio(states_in_metric, metric_points),
        "coherent.fs_metric_numeric_self_ms": per_op(own, "coherent.fs_metric_numeric", ms),
        "coherent.scalar_curvature_ms": per_op(incl, "coherent.scalar_curvature", ms),
        "coherent.fiducial_moments_ms": per_op(incl, "coherent.fiducial_moments", ms),
        "models.hydrogen_enhanced_ms": per_op(incl, "models.hydrogen_enhanced", ms),
        "correspondence.parse_ms": per_op(incl, "correspondence.parse", ms),
        "correspondence.enhance_ms": per_op(incl, "correspondence.enhance", ms),
        "correspondence.poly_expectation_calls": per_op(count, "correspondence.poly_expectation"),
        "correspondence.evaluate_calls": per_op(count, "correspondence.evaluate"),
        "correspondence.gradient_calls": per_op(count, "correspondence.gradient"),
        "correspondence.evaluations_per_gradient": ratio(evals_in_gradient, len(gradients_that_evaluate)),
        "correspondence.gradient_self_ms": per_op(own, "correspondence.gradient", ms),
        "dynamics.flows": per_op(count, "dynamics.hamiltonian_flow"),
        "dynamics.flow_ms": per_op(incl, "dynamics.hamiltonian_flow", ms),
        "dynamics.flow_self_ms": (incl.get((OP, "dynamics.hamiltonian_flow"), 0.0) - flow_label_s) * ms / n_ops,
        "dynamics.solver_nfev": nfev / n_ops,
        "dynamics.gradient_calls_per_nfev": ratio(gradients_in_solver, nfev),
        "cli.validate_config_ms": per_op(incl, "cli.validate_config", ms),
        "cli.main_self_ms": per_op(own, "cli.main", ms),
        "setup.total_ms": setup(incl, SETUP, ms),
        "setup.hilbert.build_rep_ms": setup(incl, "hilbert.build_rep", ms),
        "setup.hilbert.eigh_calls": setup(count, "hilbert.eigh"),
        "setup.hilbert.eigh_ms": setup(incl, "hilbert.eigh", ms),
        "setup.coherent.fiducial_moments_ms": setup(incl, "coherent.fiducial_moments", ms),
        "setup.models.hydrogen_enhanced_ms": setup(incl, "models.hydrogen_enhanced", ms),
        "cli.files_written": counters.get("cli.files_written", 0) / n_ops,
        "cli.output_bytes": counters.get("cli.output_bytes", 0) / n_ops,
        "enhq.import_ms": import_ms,
        "trace.spans_per_op": sum(c for (ph, _), c in count.items() if ph == OP) / n_ops,
    }
