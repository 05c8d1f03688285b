"""Span tracing of riskdp's layers from outside the package.

The tracer replaces selected public functions and methods of the ``riskdp``
modules with thin wrappers that record one span per call: name, start, end
and the enclosing span.  A function that other modules bind by
``from ... import`` is replaced in every module namespace that holds it, so
calls through any binding are seen; methods are replaced on their class.
Spans are kept in memory, recorded only while the tracer is armed (around a
timed operation), and written out once when the run ends.

A span's self time is its duration minus the durations of its direct child
spans; children never overlap because the program is single threaded.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# Traced layers: span name -> (module, attribute path).  Span names follow the
# module that defines the function, whatever namespace a caller reaches it by.
TRACED = {
    "lp.solve": ("riskdp.lp", "solve"),
    "cuts.CutPool.view": ("riskdp.cuts", "CutPool.view"),
    "cuts.CutPool.append_optimality": ("riskdp.cuts", "CutPool.append_optimality"),
    "cuts.evaluate_pool": ("riskdp.cuts", "evaluate_pool"),
    "cuts.build_optimality_cut": ("riskdp.cuts", "build_optimality_cut"),
    "engine.run": ("riskdp.engine", "run"),
    "engine.solve_node": ("riskdp.engine", "solve_node"),
    "engine.build_stage_lp": ("riskdp.engine", "build_stage_lp"),
    "model.assemble_subproblem": ("riskdp.model", "assemble_subproblem"),
    "model.validate_problem": ("riskdp.model", "validate_problem"),
    "valuefn.assemble_pi": ("riskdp.valuefn", "assemble_pi"),
    "risk.risk_value_and_density": ("riskdp.risk", "risk_value_and_density"),
    "oracle.true_recourse_value": ("riskdp.oracle", "true_recourse_value"),
    "oracle.exact_nested_decomposition": ("riskdp.oracle", "exact_nested_decomposition"),
    "oracle.extensive_form_value": ("riskdp.oracle", "extensive_form_value"),
    "oracle.conditioned_problem": ("riskdp.oracle", "conditioned_problem"),
    "oracle.conditioned_subtree": ("riskdp.oracle", "conditioned_subtree"),
    "io.load_problem": ("riskdp.io", "load_problem"),
    "io.read_cuts_csv": ("riskdp.io", "read_cuts_csv"),
}


class Tracer:
    """Records spans and per-call counters for the functions in :data:`TRACED`."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []      # [name, start, end, parent index, op]
        self.armed = False
        self.op = ""
        self.counters: dict[str, float] = defaultdict(float)
        self.iterations = 0              # engine iterations run while armed
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._last_view: dict[object, object] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every ``riskdp`` namespace binding it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "riskdp" or name.startswith("riskdp.")]
        for span_name, (module_name, path) in TRACED.items():
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name, original)
            if outer:  # a method: replace it on its class only
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, func):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.armed:
                return func(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, tracer.op]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span[2] = time.perf_counter()
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__name__ = getattr(func, "__name__", name)
        wrapper.__doc__ = getattr(func, "__doc__", None)
        return wrapper

    # -- counters recorded at the layer boundary ---------------------------

    def _observe_lp_solve(self, args, sol) -> None:
        prob = args[0]
        rows = prob.a_ub.shape[0] + prob.a_eq.shape[0]
        c = self.counters
        c["lp.pivots"] += sol.pivots
        c["lp.rows"] += rows
        c["lp.rows_max"] = max(c["lp.rows_max"], rows)
        if sol.status != "optimal":
            c["lp.nonoptimal"] += 1

    def _observe_cuts_CutPool_view(self, args, view) -> None:
        pool = args[0]
        if self._last_view.get(pool) is view:
            self.counters["cuts.view_hits"] += 1
        self._last_view[pool] = view

    def _observe_oracle_exact_nested_decomposition(self, args, result) -> None:
        self.counters["oracle.nd_sweeps"] += result.sweeps

    # -- arming around one operation ---------------------------------------

    def arm(self, op: str) -> None:
        self.op = op
        self.armed = True

    def disarm(self) -> None:
        self.armed = False
        self._last_view.clear()

    # -- results -----------------------------------------------------------

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls`` and summed ``self_s``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0})
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            table[name]["calls"] += 1
            table[name]["self_s"] += end - start - inner
        return table

    def write(self, path) -> None:
        """Write every span as ``[name, start, end, parent, workload, op]``."""
        rows = [[name, start, end, parent, self.workload, op]
                for name, start, end, parent, op in self.spans]
        with open(path, "w") as fh:
            json.dump({"workload": self.workload,
                       "fields": ["name", "start", "end", "parent", "workload", "op"],
                       "spans": rows}, fh)
