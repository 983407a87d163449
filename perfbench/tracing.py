"""Span tracing of tdconsensus from outside the package.

``Tracer.install`` replaces each traced public function with a wrapper in
every tdconsensus module namespace that holds it, so a call is caught where
it is made: wrapping ``graphs.eigendecompose`` also catches the calls from
``EdgeFormCaches.build``, ``performance_report`` and the CLI. Methods are
wrapped on their class. ``uninstall`` puts every original back; an untraced
run never installs anything.

Spans are kept in memory as ``[name, start, end, parent, op]`` lists, where
``parent`` indexes the enclosing span (-1 at the top) and ``op`` is the
operation id the span belongs to.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

MODULES = (
    "tdconsensus",
    "tdconsensus.graphs",
    "tdconsensus.performance",
    "tdconsensus.design",
    "tdconsensus.simulate",
    "tdconsensus.fileio",
    "tdconsensus.cli",
)

# (defining module, function); the span is named "<module>.<function>".
FUNCTIONS = (
    ("graphs", "eigendecompose"),
    ("graphs", "sherman_morrison_update"),
    ("performance", "performance_report"),
    ("performance", "rho_exact"),
    ("performance", "sensitivity"),
    ("design", "grow_simple"),
    ("design", "sparsify"),
    ("design", "grow_by_sensitivity"),
    ("fileio", "load_graph"),
    ("fileio", "load_candidates"),
    ("fileio", "load_matrix"),
    ("fileio", "report_json"),
    ("simulate", "simulate"),
)

# (defining module, class, method); the span is named "<module>.<class>.<method>".
METHODS = (
    ("graphs", "EdgeFormCaches", "build"),
    ("graphs", "WeightedGraph", "with_edge"),
    ("graphs", "WeightedGraph", "without_edge"),
    ("design", "DesignState", "from_graph"),
    ("design", "DesignState", "audit_values"),
    ("design", "CandidateSet", "validate_against"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def install(self) -> None:
        """Wraps every target; raises LookupError, wrapping nothing, when one
        is missing, so a renamed function cannot read as zero calls."""
        modules = [importlib.import_module(name) for name in MODULES]
        functions, methods = [], []
        for module_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(f"tdconsensus.{module_name}"), attr, None)
            if original is None:
                raise LookupError(f"tdconsensus.{module_name}.{attr} is gone; update tracing.py")
            functions.append((f"{module_name}.{attr}", original))
        for module_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"tdconsensus.{module_name}"), cls_name, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                raise LookupError(
                    f"tdconsensus.{module_name}.{cls_name}.{attr} is gone; update tracing.py"
                )
            methods.append((f"{module_name}.{cls_name}.{attr}", cls, attr, raw))
        for name, original in functions:
            traced = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._undo.append((module, key, original))
        for name, cls, attr, raw in methods:
            if isinstance(raw, classmethod):
                traced = classmethod(self.wrap(name, raw.__func__))
            else:
                traced = self.wrap(name, raw)
            setattr(cls, attr, traced)
            self._undo.append((cls, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            fields = ["name", "start", "end", "parent", "op"]
            json.dump({"fields": fields, "spans": self.spans}, handle)


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total duration and total self time.

    Only spans inside an operation count; the checks' own calls carry
    operation id -1. Self time is a span's duration minus the time its
    child spans cover; spans nest on one thread, so children never overlap.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for (name, start, end, _, op), child_time in zip(spans, covered):
        if op < 0:
            continue
        entry = totals.setdefault(name, {"count": 0, "duration": 0.0, "self": 0.0})
        entry["count"] += 1
        entry["duration"] += end - start
        entry["self"] += end - start - child_time
    return totals
