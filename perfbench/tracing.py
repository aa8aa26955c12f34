"""Span tracing from outside the program, for the traced (``--trace 1``) run.

The program under test carries no tracing of its own inside the algorithms,
so the benchmark wraps the layer functions *where their callers look them
up*: module globals of :mod:`repro.segment.pgseg` and
:mod:`repro.summarize.pgsum` (both reached through ``sys.modules``, because
the packages re-export ``segment`` and ``pgsum`` functions that shadow the
module names), and methods on the operator, snapshot and cluster classes.

Spans stay in memory as ``[name, start, end, parent, op, attrs]`` lists and
are written once, when the run ends. ``op`` is the operation id the
workload sets: positive inside a timed operation, negative during set-up
and checks (see :mod:`perfbench.harness`), so spans of one operation share
it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Any, Callable, Iterable


class Tracer:
    """Records nested spans around patched callables."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, name: str,
              observe: Callable[[tuple, Any], dict] | None = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``observe(args, result)`` may return attributes kept on the span
        (work counters read off the result).
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, tracer.op, None]
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                span[5] = observe(args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        """Put every patched callable back."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the part of it its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent, _op, _attrs in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        result = []
        for index, (_name, start, end, _parent, _op, _attrs) in \
                enumerate(self.spans):
            covered, reach = 0.0, start
            for child_start, child_end in sorted(children.get(index, ())):
                child_start = max(child_start, reach)
                if child_end > child_start:
                    covered += child_end - child_start
                    reach = child_end
            result.append((end - start) - covered)
        return result

    def totals(self, ops: Iterable[int]) -> dict[str, dict[str, Any]]:
        """Per span name over the given operations: count, total seconds,
        self seconds, and summed integer attributes."""
        wanted = set(ops)
        selfs = self.self_times()
        out: dict[str, dict[str, Any]] = {}
        for span, self_s in zip(self.spans, selfs):
            name, start, end, _parent, op, attrs = span
            if op not in wanted:
                continue
            entry = out.setdefault(name, {"count": 0, "total": 0.0,
                                          "self": 0.0, "attrs": {}})
            entry["count"] += 1
            entry["total"] += end - start
            entry["self"] += self_s
            for key, value in (attrs or {}).items():
                entry["attrs"][key] = entry["attrs"].get(key, 0) + value
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line (the only trace I/O)."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op, attrs in self.spans:
                out.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "attrs": attrs,
                }) + "\n")


def _solve_counters(_args: tuple, result: Any) -> dict:
    stats = result.stats
    return {"worklist_pops": stats.worklist_pops,
            "facts": stats.facts_entity + stats.facts_activity,
            "pruned": stats.pruned}


def _summary_counters(args: tuple, result: Any) -> dict:
    operator = args[0]
    return {"rounds": operator.stats.rounds, "psg_nodes": result.node_count}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from repro.segment.pgseg import PgSegOperator
    from repro.serve.cluster import ProvCluster
    from repro.store.snapshot import GraphSnapshot
    from repro.summarize.pgsum import PgSumOperator

    pgseg = sys.modules["repro.segment.pgseg"]
    pgsum = sys.modules["repro.summarize.pgsum"]
    tracer.patch(pgseg, "direct_path_vertices", "segment.direct")
    tracer.patch(pgseg, "similar_path_vertices", "cfl.solve",
                 observe=_solve_counters)
    tracer.patch(pgseg, "sibling_entities", "segment.siblings")
    tracer.patch(pgseg, "involved_agents", "segment.agents")
    tracer.patch(pgseg, "expansion_vertices", "segment.expand")
    tracer.patch(pgsum, "compute_vertex_classes", "summarize.classes")
    tracer.patch(pgsum, "simulation_preorder", "summarize.simulation")
    tracer.patch(pgsum, "mutual_equivalence_classes", "summarize.merge_plan")
    tracer.patch(pgsum, "dominated_pairs", "summarize.merge_plan")
    tracer.patch(pgsum, "build_psg", "summarize.build")
    tracer.patch(PgSegOperator, "evaluate", "segment.evaluate")
    tracer.patch(PgSumOperator, "evaluate", "summarize.evaluate",
                 observe=_summary_counters)
    tracer.patch(GraphSnapshot, "__init__", "store.snapshot_build")
    tracer.patch(GraphSnapshot, "advance", "store.snapshot_advance")
    tracer.patch(ProvCluster, "query_many", "serve.query_many")
