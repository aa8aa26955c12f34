"""summarize-sd: PgSum over seeded Sd segment sets at the paper's default size.

The merge path of the paper's Fig. 5(e)-(h): no CFL solve and no store
snapshot, only :class:`~repro.summarize.pgsum.PgSumOperator` over sets of
|S|=10 segments of n=20 activities drawn from a k=5 Markov chain, with
``SD_AGGREGATION``. Each round summarizes one set per cell of
:data:`CELLS` — α ∈ {0.1, 1.0} crossed with Rk k ∈ {0, 1} — so half the
sets use k=0 (simulation-bound) and half k=1 (class-bound). Each cell draws
its Sd generator seeds from a fixed pool, the inputs the ``psg_nodes``
reference covers (``reference.py``).

Summary cost varies several-fold across the pool (a concentrated chain
yields near-identical segments and a long merge), and a run summarizes
only a few sets per cell. So each cell's pool is ranked by its reference
Psg size — the fewer the nodes, the more merging — and split into
:data:`STRATA` strata; round ``r`` draws from stratum ``r mod STRATA``,
the member chosen by ``--seed``. Every run thus sees the same mix of easy
and hard sets, and seeds differ in which ones.
"""

from __future__ import annotations

import json
import math
import os
import random

from repro.summarize.pgsum import PgSumOperator, PgSumQuery
from repro.workloads.sd_generator import SD_AGGREGATION, SdParams, generate_sd

from perfbench.harness import Outcome, Window, kept_setup_op, latency_info, \
    median, repeated_setup, self_peak_rss_mb
from perfbench.layers import from_spans
from perfbench.oracles import aggregated_label, path_words

#: (α, Rk k) per set of a round.
CELLS = ((0.1, 1), (1.0, 1), (0.1, 0), (1.0, 0))
SIZES = {
    "full": {"pool": 48, "params": {}},
    "smoke": {"pool": 4,
              "params": {"k": 3, "n_activities": 5, "num_segments": 3}},
}
STRATA = 4
#: Path words are compared up to this many edges.
WORD_EDGES = 6
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "psg_nodes.json")


def reference_key(sd_seed: int, alpha: float, k: int) -> str:
    return f"{sd_seed}/{alpha}/{k}"


def make_set(size: str, sd_seed: int, alpha: float):
    """One Sd segment set."""
    return generate_sd(SdParams(alpha=alpha, seed=sd_seed,
                                **SIZES[size]["params"]))


def summarize(segments, k: int):
    """The operation: PgSum with the Sd aggregation at radius ``k``."""
    return PgSumOperator(segments).evaluate(
        PgSumQuery(aggregation=SD_AGGREGATION, k=k))


class SetStream:
    """Seeded Sd inputs, one set per cell per round."""

    def __init__(self, size: str, seed: int, reference: dict[str, int]):
        self.size = size
        pool = SIZES[size]["pool"]
        rng = random.Random(f"summarize-sd/{seed}")
        # strata[cell][s]: stratum s of the cell's pool, in seeded order.
        self.strata = []
        for alpha, k in CELLS:
            ranked = sorted(range(pool), key=lambda sd_seed: (
                reference[reference_key(sd_seed, alpha, k)], sd_seed))
            width = pool // STRATA
            blocks = [ranked[s * width:(s + 1) * width]
                      for s in range(STRATA)]
            self.strata.append([rng.sample(block, len(block))
                                for block in blocks])
        self.rounds = 0

    def round(self) -> list[tuple[str, float, int, list]]:
        """``(reference key, α, k, segments)`` per cell of the next round."""
        out = []
        stratum, turn = self.rounds % STRATA, self.rounds // STRATA
        for cell, (alpha, k) in enumerate(CELLS):
            block = self.strata[cell][stratum]
            sd_seed = block[turn % len(block)]
            instance = make_set(self.size, sd_seed, alpha)
            out.append((reference_key(sd_seed, alpha, k), alpha, k,
                        instance.segments))
        self.rounds += 1
        return out


def check_psg(psg, segments) -> list[str]:
    """Properties every Psg must have, recomputed from the segments."""
    problems = []
    union = {(si, v) for si, segment in enumerate(segments)
             for v in segment.vertices}
    group: dict[tuple[int, int], int] = {}
    for index, node in enumerate(psg.nodes):
        for member in node.members:
            if member in group:
                problems.append(f"{member} in two Psg nodes")
            group[member] = index
        labels = {aggregated_label(segments[si].graph.vertex(v), ("type",))
                  for si, v in node.members}
        if len(labels) != 1:
            problems.append(f"node {index} mixes labels {sorted(labels)}")
    if set(group) != union:
        problems.append("Psg nodes do not cover the segment vertices")
        return problems

    carried: dict[tuple, set[int]] = {}
    for si, segment in enumerate(segments):
        for record in segment.edges():
            key = (group[(si, record.src)], group[(si, record.dst)],
                   record.edge_type.label)
            carried.setdefault(key, set()).add(si)
    if set(carried) != set(psg.edges):
        problems.append("Psg edges differ from the mapped segment edges")
    else:
        for key, holders in carried.items():
            if not math.isclose(psg.edges[key], len(holders) / len(segments)):
                problems.append(f"γ of {key} is not the carrying share")
                break

    node_label = {index: node.label for index, node in enumerate(psg.nodes)}
    psg_adjacency: dict = {}
    for src, dst, label in psg.edges:
        psg_adjacency.setdefault(src, []).append((label, dst))
    seg_adjacency: dict = {}
    seg_label = {}
    for si, segment in enumerate(segments):
        for v in segment.vertices:
            seg_label[(si, v)] = node_label[group[(si, v)]]
        for record in segment.edges():
            seg_adjacency.setdefault((si, record.src), []).append(
                (record.edge_type.label, (si, record.dst)))
    if path_words(psg_adjacency, node_label, WORD_EDGES) != \
            path_words(seg_adjacency, seg_label, WORD_EDGES):
        problems.append(f"path words up to {WORD_EDGES} edges differ")
    return problems


def load_reference(size: str) -> dict[str, int]:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)[size]


def _build(size: str, seed: int, reference: dict[str, int]):
    stream = SetStream(size, seed, reference)
    first = stream.round()
    # Warm-up at both radii on a small set whose generator seed lies
    # outside every pool.
    warm = make_set("smoke", 10**6, 1.0).segments
    summarize(warm, 0)
    summarize(warm, 1)
    return stream, first


def run(seed: int, seconds: float, tracer=None, size: str = "full") -> Outcome:
    reference = load_reference(size)
    (stream, pending), setup_s = repeated_setup(
        lambda: _build(size, seed, reference), tracer=tracer)
    window = Window(seconds, tracer)
    outcome = Outcome()
    latencies: dict[int, list[float]] = {0: [], 1: []}
    op = 0
    first_round: list[int] = []
    while window.open:
        for key, alpha, k, segments in pending:
            op += 1
            outcome.attempted += 1
            psg, spent, error = window.time(lambda: summarize(segments, k), op)
            if error is not None:
                outcome.error()
                continue
            latencies[k].append(spent)
            problems = check_psg(psg, segments)
            expected = reference.get(key)
            if psg.node_count != expected:
                problems.append(f"psg_nodes {psg.node_count} != reference "
                                f"{expected}")
            outcome.check(not problems, f"{key}: {problems}")
        if not first_round:
            first_round = list(range(1, op + 1))
        pending = stream.round() if window.open else []

    done = len(latencies[0]) + len(latencies[1])
    outcome.e2e = {
        "setup_s": setup_s,
        "peak_rss_mb": self_peak_rss_mb(),
        "ops_per_s": done / window.elapsed,
        "p50_s": median(latencies[1]),
        "alt_p50_s": median(latencies[0]),
    }
    outcome.info = {
        "window_s": window.elapsed,
        "summaries_per_s": done / window.elapsed,
        "summary_p50_s": median(latencies[0] + latencies[1]),
        **latency_info("k1_summary", latencies[1]),
        **latency_info("k0_summary", latencies[0]),
    }
    if tracer is not None:
        outcome.layers = from_spans(tracer, list(range(1, op + 1)),
                                    first_round, kept_setup_op())
    return outcome
