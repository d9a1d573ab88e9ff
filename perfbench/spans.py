"""In-memory span tracer wrapped around omv's public entry points.

The tracer patches, at class level and only while installed:

    OnlineSolver.query                 one "query" span per call
    each link class's __init__ and     one "init" span per solver built
      NaiveSolver.__init__
    BmmpFromEqSolver.list_candidates   one "listing" span per call

A span is (kind, layer, start, end, parent span index, outer query id); the
layer of a span is the omv module its class lives in.  Spans hold only
atomic values, so the garbage collector stops tracking them and a long
trace does not slow the collections that run while solvers are built.  Calls nest on one
thread, so a span's children never overlap and its self time is its
duration minus the summed durations of its direct children.  Solvers built
while the tracer is installed are kept so their CounterLedgers can be read.
Nothing inside ``src/`` is edited.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from omv.bmmp_from_eq import BmmpFromEqSolver
from omv.chains import LINKS
from omv.core import OnlineSolver
from omv.oracle import NaiveSolver

LEDGER_FIELDS = (
    "inner_queries",
    "scan_length_total",
    "multiset_updates",
    "candidates_enumerated",
)


def layer_of(cls: type) -> str:
    return cls.__module__.rsplit(".", 1)[-1]


class Tracer:
    """Collects spans, built solvers and listing outcomes in memory."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._layers: dict[type, str] = {}
        #: Outer query id stamped on spans; None while building.
        self.qid: int | None = None
        self.instances: list[OnlineSolver] = []
        self.ledger: dict[str, dict[str, int]] = defaultdict(lambda: dict.fromkeys(LEDGER_FIELDS, 0))
        self.rows_listed = 0
        self.rows_oversize = 0

    def _wrap(self, kind: str, fn, cls: type | None = None, on_result=None):
        spans, stack, layers = self.spans, self._stack, self._layers

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(obj, *args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                owner = cls or type(obj)
                layer = layers.get(owner) or layers.setdefault(owner, layer_of(owner))
                spans[index] = (kind, layer, start, end, parent, self.qid)
            if on_result is not None:
                on_result(obj, result)
            return result

        return wrapper

    def _count_listing(self, _solver, reports) -> None:
        self.rows_listed += len(reports)
        self.rows_oversize += sum(1 for report in reports if report.candidates is None)

    def _register(self, solver, _result) -> None:
        self.instances.append(solver)

    @contextmanager
    def installed(self):
        """Patch the entry points for the duration of the block."""
        patches = [
            (OnlineSolver, "query", self._wrap("query", OnlineSolver.query)),
            (
                BmmpFromEqSolver,
                "list_candidates",
                self._wrap(
                    "listing",
                    BmmpFromEqSolver.list_candidates,
                    cls=BmmpFromEqSolver,
                    on_result=self._count_listing,
                ),
            ),
        ]
        for cls in {*LINKS.values(), NaiveSolver}:
            patches.append(
                (cls, "__init__", self._wrap("init", cls.__init__, cls=cls, on_result=self._register))
            )
        saved = [(cls, name, cls.__dict__.get(name)) for cls, name, _ in patches]
        try:
            for cls, name, wrapper in patches:
                setattr(cls, name, wrapper)
            yield self
        finally:
            for cls, name, original in saved:
                if original is None:
                    delattr(cls, name)
                else:
                    setattr(cls, name, original)

    def harvest(self) -> None:
        """Add the ledgers of the solvers built so far and release them."""
        for solver in self.instances:
            totals = self.ledger[layer_of(type(solver))]
            for name in LEDGER_FIELDS:
                totals[name] += getattr(solver.counters, name)
        self.instances.clear()

    def layer_totals(self) -> dict:
        """Per-layer query counts, self times and leaf-call counts.

        Returns a dict with, per layer: ``queries`` (query spans),
        ``query_self_s`` and ``init_self_s`` (summed self times),
        ``listing_s`` (listing spans), ``inits`` (solvers built), and
        ``child_queries`` (query spans whose parent is a query span of the
        layer).  ``outer_s`` is the summed duration of root query spans.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for _kind, _cls, start, end, parent, _qid in spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = defaultdict(lambda: defaultdict(float))
        outer_s = 0.0
        for index, (kind, name, start, end, parent, _qid) in enumerate(spans):
            layer = totals[name]
            own = end - start - child[index]
            if kind == "query":
                layer["queries"] += 1
                layer["query_self_s"] += own
                if parent < 0:
                    outer_s += end - start
                elif spans[parent][0] == "query":
                    totals[spans[parent][1]]["child_queries"] += 1
            elif kind == "init":
                layer["inits"] += 1
                layer["init_self_s"] += own
            else:
                layer["listing_s"] += end - start
        return {"outer_s": outer_s, "layers": totals}

    def dump(self) -> dict:
        """Spans as JSON-ready rows: kind, layer, start, end, parent, qid."""
        return {"fields": ["kind", "layer", "start_s", "end_s", "parent", "qid"], "spans": self.spans}
