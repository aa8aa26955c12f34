"""serve-ingest: served reads beside continuous writes (read-your-writes).

A :class:`~repro.session.LifecycleSession` over one seeded Pd graph, served
by ``ServeConfig(replicas=2, out_of_process=True)`` with every other setting
at its default. One client issues ``query_many`` bundles; each round
appends one recorded run (an activity using two existing entities and
generating one new artifact) and then sends :data:`BUNDLES_PER_ROUND`
bundles. The first bundle after the write is the *fresh* read: it pays for
shipping the delta, applying it on the workers, advancing their snapshots
and recomputing evicted cache entries. The rest are *steady* reads.

A bundle's first spec is the shallow lineage of the newest written
artifact (a dashboard following the latest output); its other specs are
shallow and full lineage, blame and impacted picks from a hot set (one
entity per creation-order stratum) plus cold uniform picks, small-gap PgSeg tiles, and CypherLite matches.

The Pd graph is the workload's fixed dataset (generator seed
:data:`GRAPH_SEED`); ``--seed`` draws the hot set and the traffic.
"""

from __future__ import annotations

import random

from repro.query.cypherlite import run_query
from repro.segment.pgseg import PgSegOperator, PgSegQuery
from repro.serve.api import QuerySpec, ServeConfig
from repro.session import LifecycleSession
from repro.workloads.pd_generator import generate_pd_sized

from perfbench.harness import Outcome, Window, kept_setup_op, latency_info, \
    median, process_peak_rss_mb, repeated_setup, self_peak_rss_mb
from perfbench.layers import from_spans
from perfbench.oracles import blame_report, lineage_levels

SIZES = {"full": {"n": 5000}, "smoke": {"n": 200}}
GRAPH_SEED = 7
BUNDLES_PER_ROUND = 4
HOT_SET = 24
HOT_SHARE = 0.75
PICKS_PER_FAMILY = 4          # per family: shallow, full, blame, impacted
SHALLOW_DEPTH = 2
TILES = 3
TILE_GAP = (2, 8)
CYPHER = (
    "MATCH (e:E)<-[:U]-(a:A) WHERE id(e) = {e} RETURN id(a)",
    "MATCH (e:E)-[:G]->(a:A)-[:U]->(f:E) WHERE id(e) = {e} RETURN id(f)",
)
#: Whole rounds run during set-up, so caches hold the hot set and the
#: write path has shipped once before the window opens.
WARM_ROUNDS = 1


class Traffic:
    """The seeded client: bundle specs and recorded runs."""

    def __init__(self, session: LifecycleSession, entities: list[int],
                 seed: int):
        self.session = session
        self.entities = list(entities)
        self.rng = random.Random(f"serve-ingest/{seed}")
        # One hot entity per creation-order stratum: every run's hot set
        # spans old and new artifacts alike, whose closures differ in size
        # by orders of magnitude.
        width = len(self.entities) // HOT_SET
        self.hot = [self.rng.choice(self.entities[i * width:(i + 1) * width])
                    for i in range(HOT_SET)]
        self.newest = self.entities[-1]
        self.writes = 0

    def _pick(self) -> int:
        if self.rng.random() < HOT_SHARE:
            return self.rng.choice(self.hot)
        return self.rng.choice(self.entities)

    def bundle(self) -> list[QuerySpec]:
        specs = [QuerySpec.lineage(self.newest, max_depth=SHALLOW_DEPTH)]
        for _ in range(PICKS_PER_FAMILY):
            specs.append(QuerySpec.lineage(self._pick(),
                                           max_depth=SHALLOW_DEPTH))
            specs.append(QuerySpec.lineage(self._pick()))
            specs.append(QuerySpec.blame(self._pick()))
            specs.append(QuerySpec.impacted(self._pick()))
        for _ in range(TILES):
            start = self.rng.randrange(len(self.entities) - TILE_GAP[1])
            end = start + self.rng.randint(*TILE_GAP)
            specs.append(QuerySpec.segment(PgSegQuery(
                src=(self.entities[start],), dst=(self.entities[end],))))
        for text in CYPHER:
            specs.append(QuerySpec.cypher(text.format(e=self._pick())))
        return specs

    def write(self) -> int:
        """Record one run; returns its activity id."""
        self.writes += 1
        name = f"perfbench-run{self.writes}"
        builder = self.session.builder
        with builder.activity("train", agent=f"member{self.writes % 3}") as act:
            act.uses_entity(self.rng.choice(self.hot))
            act.uses_entity(self.newest)
            act.generates(name)
        self.newest = builder.latest(name)
        self.entities.append(self.newest)
        return act.activity_id


def _build(n: int, seed: int):
    instance = generate_pd_sized(n, seed=GRAPH_SEED)
    session = LifecycleSession(project="perfbench", graph=instance.graph)
    session.serve(config=ServeConfig(replicas=2, out_of_process=True))
    traffic = Traffic(session, instance.entities, seed)
    for _ in range(WARM_ROUNDS):
        traffic.write()
        for _ in range(BUNDLES_PER_ROUND):
            session.query_many(traffic.bundle())
    return session, traffic


class Oracle:
    """Leader-side answers at the current epoch, memoized per epoch.

    Lineage, impacted and blame come from the benchmark's own walks over
    the leader store; segment and CypherLite answers are recomputed by the
    program on the leader.
    """

    def __init__(self, session: LifecycleSession):
        self.graph = session.graph
        self.epoch = -1
        self.memo: dict = {}
        # Advances its snapshot to each new epoch before evaluating.
        self.operator = PgSegOperator(self.graph, snapshot=True)

    def _sync(self) -> None:
        if self.graph.store.epoch != self.epoch:
            self.epoch = self.graph.store.epoch
            self.memo.clear()

    def closure(self, entity: int, upstream: bool, depth: int | None):
        key = ("closure", entity, upstream, depth)
        if key not in self.memo:
            self.memo[key] = lineage_levels(self.graph.store, entity,
                                            upstream, depth)
        return self.memo[key]

    def matches(self, spec: QuerySpec, answer) -> bool:
        self._sync()
        params = spec.params
        if spec.method in ("lineage", "impacted"):
            return answer.vertices == self.closure(
                params["entity"], spec.method == "lineage",
                params.get("max_depth"))
        if spec.method == "blame":
            key = ("blame", params["entity"])
            if key not in self.memo:
                self.memo[key] = blame_report(self.graph.store, self.closure(
                    params["entity"], True, None))
            return answer == self.memo[key]
        if spec.method == "segment":
            expected = self.operator.evaluate(params["query"])
            return (answer.vertices, answer.edge_ids) == \
                (expected.vertices, expected.edge_ids)
        key = ("cypher", params["text"])
        if key not in self.memo:
            self.memo[key] = run_query(self.graph, params["text"])
        return answer == self.memo[key]


def _registry(cluster) -> dict:
    """Leader and summed worker counters/histograms, one flat view."""
    snapshot = cluster.metrics()
    flat: dict[str, float] = {}

    def add(metrics: dict) -> None:
        for name, value in metrics["counters"].items():
            flat[name] = flat.get(name, 0) + value
        for name, hist in metrics["histograms"].items():
            flat[f"{name}.count"] = flat.get(f"{name}.count", 0) + hist["count"]
            flat[f"{name}.sum"] = flat.get(f"{name}.sum", 0.0) + hist["sum"]

    add(snapshot["process"])
    for worker in snapshot["workers"]:
        add(worker["metrics"])
    return flat


def _serve_layers(start: dict, first_round: dict, end: dict) -> dict:
    def delta(name: str, upto: dict) -> float:
        return upto.get(name, 0) - start.get(name, 0)

    def mean(hist: str) -> float:
        count = delta(f"{hist}.count", end)
        return delta(f"{hist}.sum", end) / count if count else 0.0

    def workers_total(suffix: str, upto: dict) -> float:
        return sum(value - start.get(name, 0) for name, value in upto.items()
                   if name.startswith("pool.worker") and name.endswith(suffix))

    hits = delta("worker.cache_hits", first_round)
    misses = delta("worker.cache_misses", first_round)
    boots = start.get("pool.bootstrap.duration_s.count", 0)
    return {
        "serve.worker_compute_s": mean("worker.compute_s"),
        "serve.transport_roundtrip_s": mean("pool.transport_roundtrip_s"),
        "serve.ship_apply_s": mean("replication.ship_apply_s"),
        "serve.batches_shipped": workers_total(".batches_shipped",
                                               first_round),
        "serve.cache_hits": hits,
        "serve.cache_misses": misses,
        "serve.cache_retained": delta("worker.cache_retained", first_round),
        "serve.cache_evicted": delta("worker.cache_evicted", first_round),
        "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses
        else 0.0,
        "serve.local_fallbacks": workers_total(".local_fallbacks",
                                               first_round),
        "serve.bootstrap_s": start.get("pool.bootstrap.duration_s.sum", 0.0)
        / boots if boots else 0.0,
        "serve.bootstrap_bytes": start.get("pool.bootstrap.bytes_shipped", 0),
        "serve.checkpoint_hits": start.get("pool.bootstrap.checkpoint_hits",
                                           0),
    }


def run(seed: int, seconds: float, tracer=None, size: str = "full") -> Outcome:
    (session, traffic), setup_s = repeated_setup(
        lambda: _build(SIZES[size]["n"], seed),
        discard=lambda state: state[0].stop_serving(), tracer=tracer)
    try:
        outcome = _window(session, traffic, seconds, tracer)
    finally:
        session.stop_serving()
    outcome.e2e = {"setup_s": setup_s, **outcome.e2e}
    return outcome


def _window(session, traffic, seconds, tracer) -> Outcome:
    cluster = session.cluster
    oracle = Oracle(session)
    window = Window(seconds, tracer)
    outcome = Outcome()
    steady: list[float] = []
    fresh: list[float] = []
    writes: list[float] = []
    answered = 0
    op = 0
    bundle_ops: list[int] = []
    first_round_ops: list[int] = []
    registry_start = _registry(cluster)
    registry_first = None
    while window.open:
        op += 1
        outcome.attempted += 1
        activity, spent, error = window.time(traffic.write, op)
        if error is not None:
            outcome.error()
        else:
            writes.append(spent)
        for position in range(BUNDLES_PER_ROUND):
            specs = traffic.bundle()
            op += 1
            bundle_ops.append(op)
            outcome.attempted += len(specs)
            results, spent, error = window.time(
                lambda: session.query_many(specs), op)
            if error is not None:
                outcome.failed += len(specs)
                continue
            (fresh if position == 0 else steady).append(spent)
            for slot, (spec, answer) in enumerate(zip(specs, results)):
                if isinstance(answer, BaseException):
                    outcome.error()
                    continue
                answered += 1
                if position == 0 and slot == 0 and activity is not None \
                        and activity not in answer.vertices:
                    outcome.check(False, "fresh read misses the write")
                elif position == 0:
                    # Every answer of the fresh bundle is checked against
                    # the leader: a wrongly retained cache entry or a
                    # missed delta shows there. Checking every bundle
                    # would make the checks outlast the window.
                    outcome.check(oracle.matches(spec, answer),
                                  f"{spec.method} {dict(spec.params)} "
                                  f"differs from the leader at epoch "
                                  f"{oracle.epoch}")
        if registry_first is None:
            registry_first = _registry(cluster)
            first_round_ops = list(range(1, op + 1))
    registry_end = _registry(cluster)

    worker_peaks = [process_peak_rss_mb(client.proc.pid)
                    for client in cluster.pool.clients]
    outcome.e2e = {
        "peak_rss_mb": self_peak_rss_mb() + sum(worker_peaks),
        "ops_per_s": answered / window.elapsed,
        "p50_s": median(steady),
        "alt_p50_s": median(fresh),
    }
    outcome.info = {
        "window_s": window.elapsed,
        "reads_per_s": answered / window.elapsed,
        "writes": len(writes),
        "write_p50_s": median(writes),
        **latency_info("read", steady),
        **latency_info("fresh_read", fresh),
        "worker_peak_rss_mb": max(worker_peaks),
        "graph_vertices": session.graph.vertex_count,
    }
    if tracer is not None:
        layers = from_spans(tracer, bundle_ops, first_round_ops,
                            kept_setup_op())
        layers.update(_serve_layers(registry_start, registry_first,
                                    registry_end))
        layers["store.write_s"] = sum(writes) / max(len(writes), 1)
        layers["serve.worker_peak_rss_mb"] = max(worker_peaks)
        outcome.layers = layers
    return outcome
