"""segment-pd: distinct PgSeg queries over one seeded Pd graph.

The introspection path of the paper's Fig. 5(a)-(d): one Pd graph, one
snapshot-armed :class:`~repro.segment.pgseg.PgSegOperator`, and a stream of
queries no two of which repeat, so the operator's segment cache never
answers. Each round holds :data:`PLAIN_PER_ROUND` unbounded queries and
:data:`BOUNDED_PER_ROUND` queries with the paper's Q1-style boundary
(exclude wasAttributedTo and wasDerivedFrom, expand Vdst by k=2).

Vdst is two entities among the last ``DST_TAIL`` of entities. Vsrc is two
consecutive ancestor entities of Vdst (the question "how was Vdst made
from Vsrc"), taken at a creation percentile of those ancestors. The
percentiles are stratified over ``[0, SRC_SPAN)`` within each round, so
every round sees early, middle and late sources, and the offset inside a
stratum advances by the golden ratio from draw to draw (from a seeded
start), so a run's sources fill their strata evenly. Solve time falls
smoothly with the source percentile; sources outside Vdst's ancestry
would add a second, much faster mode (no accepted path) that the median
would straddle.

The graph is the workload's fixed dataset (generator seed
:data:`GRAPH_SEED`); ``--seed`` draws the queries. Queries on one graph
vary far less between seeds than whole graphs do, so the run-to-run spread
measures the program and the host rather than which graph came up.
"""

from __future__ import annotations

import random

from repro.model.types import EdgeType
from repro.segment.boundary import BoundaryCriteria, exclude_edge_types
from repro.segment.naive import naive_segment
from repro.segment.pgseg import (
    CATEGORY_AGENT,
    CATEGORY_DIRECT,
    CATEGORY_DST,
    CATEGORY_SIBLING,
    CATEGORY_SIMILAR,
    CATEGORY_SRC,
    PgSegOperator,
    PgSegQuery,
)
from repro.store.snapshot import GraphSnapshot
from repro.workloads.pd_generator import generate_pd_sized

from perfbench.harness import Outcome, Window, kept_setup_op, latency_info, \
    median, repeated_setup, self_peak_rss_mb
from perfbench.layers import from_spans
from perfbench.oracles import EdgeIndex, lineage_levels

SIZES = {"full": {"n": 2000, "naive_graphs": 2},
         "smoke": {"n": 150, "naive_graphs": 1}}
GRAPH_SEED = 7
GOLDEN = 0.6180339887498949
PLAIN_PER_ROUND = 3
BOUNDED_PER_ROUND = 3
SRC_SPAN = 0.9
DST_TAIL = 0.1
#: Q1 of the paper: drop attribution and derivation edges.
Q1_DROPPED = frozenset({EdgeType.WAS_ATTRIBUTED_TO,
                        EdgeType.WAS_DERIVED_FROM})
Q1_EXPAND_K = 2
#: Small Pd graphs for the exhaustive comparison with ``naive_segment``;
#: its path bound covers every path of graphs this small.
NAIVE_N = 10
NAIVE_MAX_EDGES = 8


def q1_boundary(dst: tuple[int, ...]) -> BoundaryCriteria:
    """The paper's Q1-style boundary for one query."""
    return (BoundaryCriteria()
            .exclude_edges(exclude_edge_types(*Q1_DROPPED))
            .expand(dst, Q1_EXPAND_K))


class QueryStream:
    """Seeded, never-repeating PgSeg queries over one Pd instance."""

    def __init__(self, store, entities: list[int], seed: int):
        self.store = store
        self.entities = entities
        self.position = {e: i for i, e in enumerate(entities)}
        self.rng = random.Random(f"segment-pd/{seed}")
        self.offset = self.rng.random()
        self.seen: set[tuple] = set()

    def _draw(self, stratum: int, strata: int) -> tuple[tuple, tuple]:
        entities = self.entities
        late = len(entities) - max(2, int(len(entities) * DST_TAIL))
        while True:
            self.offset = (self.offset + GOLDEN) % 1.0
            share = (stratum + self.offset) / strata * SRC_SPAN
            dst = tuple(sorted(self.rng.sample(entities[late:], 2)))
            ancestors = sorted(
                (lineage_levels(self.store, dst[0], True, None)
                 | lineage_levels(self.store, dst[1], True, None))
                & self.position.keys() - set(dst), key=self.position.get)
            if len(ancestors) < 2:
                continue
            cut = min(int(len(ancestors) * share), len(ancestors) - 2)
            src = (ancestors[cut], ancestors[cut + 1])
            if (src, dst) not in self.seen:
                self.seen.add((src, dst))
                return src, dst

    def round(self) -> list[tuple[str, PgSegQuery]]:
        """One round: plain queries then bounded ones, each stratified."""
        queries = []
        for stratum in range(PLAIN_PER_ROUND):
            src, dst = self._draw(stratum, PLAIN_PER_ROUND)
            queries.append(("plain", PgSegQuery(src=src, dst=dst)))
        for stratum in range(BOUNDED_PER_ROUND):
            src, dst = self._draw(stratum, BOUNDED_PER_ROUND)
            queries.append(("q1", PgSegQuery(src=src, dst=dst,
                                             boundaries=q1_boundary(dst))))
        return queries


def _build(n: int):
    instance = generate_pd_sized(n, seed=GRAPH_SEED)
    operator = PgSegOperator(instance.graph,
                             snapshot=GraphSnapshot(instance.graph))
    # Warm-up: one plain and one bounded query with sources past the
    # stream's span (so no window query repeats them); the plain one also
    # builds the snapshot's cached CFL adjacency.
    entities = instance.entities
    cut = len(entities) - max(4, int(len(entities) * DST_TAIL)) - 2
    src, dst = (entities[cut], entities[cut + 1]), tuple(entities[-2:])
    operator.evaluate(PgSegQuery(src=src, dst=dst))
    operator.evaluate(PgSegQuery(src=src, dst=dst,
                                 boundaries=q1_boundary(dst)))
    return instance, operator


def check_segment(index: EdgeIndex, query: PgSegQuery, segment) -> list[str]:
    """Properties every PgSeg answer must have, recomputed from records."""
    problems = []
    vs = segment.vertices
    dropped = Q1_DROPPED if query.boundaries is not None else frozenset()
    if not set(query.src) | set(query.dst) <= vs:
        problems.append("src/dst not in VS")
    direct = index.direct_path(query.src, query.dst,
                               query.direct_edge_types, dropped)
    if segment.vertices_in_category(CATEGORY_DIRECT) != direct:
        problems.append("C1 differs from the two-search direct-path set")
    if set(segment.edge_ids) != index.induced_edges(vs, dropped):
        problems.append("ES differs from the induced, boundary-passing edges")
    members = {v for v, tags in segment.categories.items()
               if tags & {CATEGORY_SRC, CATEGORY_DST, CATEGORY_DIRECT,
                          CATEGORY_SIMILAR, CATEGORY_SIBLING}}
    if segment.vertices_in_category(CATEGORY_AGENT) != \
            index.agents_of(members, dropped):
        problems.append("C4 differs from the members' agents")
    return problems


def naive_agreement(seed: int, graphs: int) -> list[str]:
    """Compare PgSeg with the exhaustive reference on small Pd graphs."""
    problems = []
    for offset in range(graphs):
        instance = generate_pd_sized(NAIVE_N, seed=seed * 100 + offset)
        src, dst = instance.default_query()
        fast = PgSegOperator(instance.graph).evaluate(
            PgSegQuery(src=tuple(src), dst=tuple(dst)))
        slow = naive_segment(instance.graph, src, dst,
                             max_edges=NAIVE_MAX_EDGES)
        if fast.vertices != slow["VS"]:
            problems.append(f"naive_segment disagrees on graph {offset}")
    return problems


def run(seed: int, seconds: float, tracer=None, size: str = "full") -> Outcome:
    sizes = SIZES[size]
    (instance, operator), setup_s = repeated_setup(
        lambda: _build(sizes["n"]), tracer=tracer)
    stream = QueryStream(instance.graph.store, instance.entities, seed)
    window = Window(seconds, tracer)
    outcome = Outcome()
    latencies: dict[str, list[float]] = {"plain": [], "q1": []}
    op = rounds = 0
    while window.open:
        rounds += 1
        answered = []
        for kind, query in stream.round():
            op += 1
            outcome.attempted += 1
            segment, spent, error = window.time(
                lambda: operator.evaluate(query), op)
            if error is not None:
                outcome.error()
                continue
            latencies[kind].append(spent)
            answered.append((kind, query, segment))
        if rounds == 1:
            first_round = list(range(1, op + 1))
            index = EdgeIndex(instance.graph.store)
        for kind, query, segment in answered:
            problems = check_segment(index, query, segment)
            outcome.check(not problems,
                          f"{kind} {query.src}->{query.dst}: {problems}")
        if rounds == 1:
            # A sample of queries re-evaluated with the other solver.
            for kind, query, segment in answered[:1] + answered[-1:]:
                other = PgSegOperator(instance.graph).evaluate(
                    PgSegQuery(src=query.src, dst=query.dst,
                               boundaries=query.boundaries,
                               algorithm="simprov-alg"))
                outcome.check(other.vertices == segment.vertices,
                              f"{kind} VS differs under simprov-alg")

    for problem in naive_agreement(seed, sizes["naive_graphs"]):
        outcome.check(False, problem)

    done = len(latencies["plain"]) + len(latencies["q1"])
    outcome.e2e = {
        "setup_s": setup_s,
        "peak_rss_mb": self_peak_rss_mb(),
        "ops_per_s": done / window.elapsed,
        "p50_s": median(latencies["plain"]),
        "alt_p50_s": median(latencies["q1"]),
    }
    outcome.info = {
        "window_s": window.elapsed,
        "segments_per_s": done / window.elapsed,
        **latency_info("segment", latencies["plain"] + latencies["q1"]),
        **latency_info("plain_segment", latencies["plain"]),
        **latency_info("q1_segment", latencies["q1"]),
        "graph_vertices": instance.graph.vertex_count,
    }
    if tracer is not None:
        outcome.layers = from_spans(tracer, list(range(1, op + 1)),
                                    first_round, kept_setup_op())
    return outcome
