"""Spans around the calls one hopfp module makes into the next.

The tracer replaces selected functions by timing wrappers in exactly the
namespaces that call them, records one span per call (name, start, end,
parent span, case id) in memory, and puts the originals back on exit.
Nothing inside the package changes; a span only sees the boundary.

Results the per-layer counters need (checked formulas, fixpoint traces,
printed text) are kept by reference and measured after the case ends,
so that counting stays outside every span.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

import hopfp

# span name, module that defines the function, namespaces that call it.
# Recursive functions (format_formula, canonical_index) are wrapped only
# where another module calls them, so each outside call is one span.
TARGETS = (
    ("compiler.crossval", "compiler", ("hopfp",)),
    ("compiler.build_machine_formula", "compiler", ("hopfp", "hopfp.compiler")),
    ("compiler.build_stage_fixpoint", "compiler", ("hopfp.compiler",)),
    ("compiler.encode_stage", "compiler", ("hopfp.compiler",)),
    ("machine.run", "machine", ("hopfp", "hopfp.compiler")),
    ("machine.iter_run", "machine", ("hopfp.compiler",)),
    ("orders.build_eq", "orders", ("hopfp.compiler",)),
    ("orders.build_index", "orders", ("hopfp.compiler",)),
    ("orders.build_lt", "orders", ("hopfp", "hopfp.compiler")),
    ("orders.build_succ", "orders", ("hopfp.compiler",)),
    ("orders.build_total_order_axiom", "orders", ("hopfp.compiler",)),
    ("orders.quantify_exists", "orders", ("hopfp.compiler",)),
    ("evaluator.evaluate", "evaluator", ("hopfp", "hopfp.compiler")),
    ("evaluator.compile_formula", "evaluator", ("hopfp", "hopfp.evaluator", "hopfp.compiler")),
    ("evaluator.pfp_iterate", "evaluator", ("hopfp", "hopfp.compiler")),
    ("logic.check_well_formed", "logic", ("hopfp", "hopfp.evaluator")),
    ("domains.canonical_index", "domains", ("hopfp.evaluator",)),
    ("frontend.format_formula", "frontend", ("hopfp",)),
    ("frontend.parse_formula", "frontend", ("hopfp",)),
)
# CompiledFormula.__call__, wrapped on the class
QUERY_SPAN = "evaluator.query"

# spans whose arguments or results feed counters after the case
KEEP = {"logic.check_well_formed", "evaluator.pfp_iterate", "frontend.parse_formula"}


class Tracer:
    """Context manager that records spans while it is entered."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent, case]
        self.kept: list = []  # (name, args, result) of KEEP spans, current case
        self.case = -1
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        spans, stack, kept = self.spans, self._stack, self.kept
        clock = time.perf_counter
        keep = name in KEEP
        materialize = name == "machine.iter_run"

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.case]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
                if materialize:
                    # a generator does its work while consumed
                    out = iter(list(out))
            finally:
                span[2] = clock()
                stack.pop()
            if keep:
                kept.append((name, args, out))
            return out

        return traced

    def __enter__(self) -> "Tracer":
        for name, home, callers in TARGETS:
            attr = name.split(".", 1)[1]
            fn = getattr(importlib.import_module("hopfp." + home), attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(name, fn)
            for caller in callers:
                ns = importlib.import_module(caller)
                # a caller that no longer uses the function gets no span,
                # which shows as a zero in the layer's metrics
                if getattr(ns, attr, None) is fn:
                    self._undo.append((ns, attr, fn))
                    setattr(ns, attr, wrapper)
        cls = hopfp.CompiledFormula
        self._undo.append((cls, "__call__", cls.__call__))
        cls.__call__ = self._wrap(QUERY_SPAN, cls.__call__)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            ns, attr, fn = self._undo.pop()
            setattr(ns, attr, fn)

    def take_kept(self) -> list:
        out = list(self.kept)
        self.kept.clear()
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, case in self.spans:
                handle.write(json.dumps([case, name, start, end, parent]) + "\n")


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one."""

    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop)
    clock = time.perf_counter
    t = clock()
    for _ in range(calls):
        noop()
    bare = clock() - t
    t = clock()
    for _ in range(calls):
        wrapped()
    return (clock() - t - bare) / calls


def self_times(spans: list) -> dict:
    """Per span name: (calls, total duration, self duration)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, start, end, _, _) in enumerate(spans):
        row = out[name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[i]
    return dict(out)


def outermost_duration(spans: list, prefix: str) -> float:
    """Total duration of spans named with prefix whose parent is not one."""
    total = 0.0
    for name, start, end, parent, _ in spans:
        if name.startswith(prefix) and (parent < 0 or not spans[parent][0].startswith(prefix)):
            total += end - start
    return total


def node_counts(f) -> tuple:
    """(tree nodes, distinct node objects) of a formula."""
    sizes: dict = {}
    todo = [f]
    while todo:
        node = todo[-1]
        if id(node) in sizes:
            todo.pop()
            continue
        kids = _children(node)
        pending = [k for k in kids if id(k) not in sizes]
        if pending:
            todo.extend(pending)
            continue
        todo.pop()
        sizes[id(node)] = 1 + sum(sizes[id(k)] for k in kids)
    return sizes[id(f)], len(sizes)


def _children(f) -> tuple:
    if isinstance(f, hopfp.Not):
        return (f.sub,)
    if isinstance(f, hopfp.Or):
        return (f.left, f.right)
    if isinstance(f, (hopfp.Exists, hopfp.Pfp)):
        return (f.body,)
    return ()
