"""Per-layer metrics of the traced run: names, units, and span arithmetic.

Every traced run reports every name in :data:`LAYER_UNITS`; a layer the
workload never enters reads 0. Seconds are means per workload operation
over the timed window (a segment query, a summary, or a read bundle), so
runs of different lengths compare. Work counts are totals over the first
round, whose operations are fixed by the seed, so they repeat exactly.
"""

from __future__ import annotations

from typing import Any, Iterable

from perfbench.tracing import Tracer

LAYER_UNITS: dict[str, str] = {
    "store.snapshot_build_s": "s",
    "store.snapshot_builds": "count",
    "store.write_s": "s",
    "cfl.solve_s": "s",
    "cfl.worklist_pops": "count",
    "cfl.facts": "count",
    "cfl.pruned": "count",
    "segment.evaluate_s": "s",
    "segment.self_s": "s",
    "segment.direct_s": "s",
    "segment.siblings_s": "s",
    "segment.agents_s": "s",
    "segment.expand_s": "s",
    "summarize.evaluate_s": "s",
    "summarize.self_s": "s",
    "summarize.classes_s": "s",
    "summarize.simulation_s": "s",
    "summarize.simulation_calls": "count",
    "summarize.merge_plan_s": "s",
    "summarize.build_s": "s",
    "summarize.rounds": "count",
    "summarize.psg_nodes": "count",
    "serve.query_many_s": "s",
    "serve.worker_compute_s": "s",
    "serve.transport_roundtrip_s": "s",
    "serve.batches_shipped": "count",
    "serve.cache_hits": "count",
    "serve.cache_misses": "count",
    "serve.cache_retained": "count",
    "serve.cache_evicted": "count",
    "serve.cache_hit_ratio": "ratio",
    "serve.ship_apply_s": "s",
    "serve.local_fallbacks": "count",
    "serve.bootstrap_s": "s",
    "serve.bootstrap_bytes": "bytes",
    "serve.checkpoint_hits": "count",
    "serve.worker_peak_rss_mb": "MB",
}

#: Child spans of each operator span; with the operator's self time they
#: must add up to its evaluate time.
OPERATOR_CHILDREN = {
    "segment.evaluate": ("segment.direct", "cfl.solve", "segment.siblings",
                         "segment.agents", "segment.expand"),
    "summarize.evaluate": ("summarize.classes", "summarize.simulation",
                           "summarize.merge_plan", "summarize.build"),
}

_STORE_SPANS = ("store.snapshot_build", "store.snapshot_advance")


def from_spans(tracer: Tracer, window_ops: list[int],
               count_ops: Iterable[int],
               setup_op: int) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced run.

    Args:
        window_ops: ids of the operations timed in the window.
        count_ops: ids of the first round's operations (work counts).
        setup_op: the op id the kept set-up ran under (store metrics).
    """
    window = tracer.totals(window_ops)
    counted = tracer.totals(count_ops)
    n = max(len(window_ops), 1)

    def per_op(name: str, key: str = "total") -> float:
        return window.get(name, {}).get(key, 0.0) / n

    def count(name: str) -> int:
        return counted.get(name, {}).get("count", 0)

    def attr(name: str, key: str) -> int:
        return counted.get(name, {}).get("attrs", {}).get(key, 0)

    store_names = set(_STORE_SPANS)
    build_s, builds = 0.0, 0
    for name, start, end, parent, op, _attrs in tracer.spans:
        if op != setup_op or name not in store_names:
            continue
        if parent >= 0 and tracer.spans[parent][0] in store_names:
            continue              # a rebuild nested inside an advance
        build_s += end - start
        builds += 1

    return {
        "store.snapshot_build_s": build_s,
        "store.snapshot_builds": builds,
        "cfl.solve_s": per_op("cfl.solve"),
        "cfl.worklist_pops": attr("cfl.solve", "worklist_pops"),
        "cfl.facts": attr("cfl.solve", "facts"),
        "cfl.pruned": attr("cfl.solve", "pruned"),
        "segment.evaluate_s": per_op("segment.evaluate"),
        "segment.self_s": per_op("segment.evaluate", "self"),
        "segment.direct_s": per_op("segment.direct"),
        "segment.siblings_s": per_op("segment.siblings"),
        "segment.agents_s": per_op("segment.agents"),
        "segment.expand_s": per_op("segment.expand"),
        "summarize.evaluate_s": per_op("summarize.evaluate"),
        "summarize.self_s": per_op("summarize.evaluate", "self"),
        "summarize.classes_s": per_op("summarize.classes"),
        "summarize.simulation_s": per_op("summarize.simulation"),
        "summarize.simulation_calls": count("summarize.simulation"),
        "summarize.merge_plan_s": per_op("summarize.merge_plan"),
        "summarize.build_s": per_op("summarize.build"),
        "summarize.rounds": attr("summarize.evaluate", "rounds"),
        "summarize.psg_nodes": attr("summarize.evaluate", "psg_nodes"),
        "serve.query_many_s": per_op("serve.query_many"),
    }


def operator_balance(tracer: Tracer, ops: Iterable[int]) -> dict[str, Any]:
    """For each operator: evaluate seconds, children + self seconds.

    The two agree when child spans nest inside the operator span without
    overlapping each other — the traced run checks that they do.
    """
    totals = tracer.totals(ops)
    balance = {}
    for operator, children in OPERATOR_CHILDREN.items():
        if operator not in totals:
            continue
        parts = sum(totals.get(child, {}).get("total", 0.0)
                    for child in children)
        balance[operator] = (totals[operator]["total"],
                             parts + totals[operator]["self"])
    return balance
