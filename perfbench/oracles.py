"""Answers computed apart from the program, for the workloads' checks.

Everything here reads raw vertex and edge records and walks them with its
own loops; none of it calls the program's query, segmentation or
summarization code.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.model.types import EdgeType, VertexType

G, U = EdgeType.WAS_GENERATED_BY, EdgeType.USED
S, A = EdgeType.WAS_ASSOCIATED_WITH, EdgeType.WAS_ATTRIBUTED_TO


class EdgeIndex:
    """Adjacency of one graph state, built from its edge records."""

    def __init__(self, store):
        self.vertex_type = {record.vertex_id: record.vertex_type
                            for record in store.vertices()}
        self.out: dict[int, list] = {v: [] for v in self.vertex_type}
        self.into: dict[int, list] = {v: [] for v in self.vertex_type}
        for record in store.edges():
            self.out[record.src].append(record)
            self.into[record.dst].append(record)

    def reach(self, starts: Iterable[int], forward: bool,
              edge_types: frozenset, dropped: frozenset) -> set[int]:
        """Vertices reachable from ``starts`` along allowed edge types."""
        seen = set(starts)
        stack = list(seen)
        while stack:
            here = stack.pop()
            for record in (self.out if forward else self.into)[here]:
                if record.edge_type not in edge_types \
                        or record.edge_type in dropped:
                    continue
                nxt = record.dst if forward else record.src
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def direct_path(self, src: Iterable[int], dst: Iterable[int],
                    edge_types: frozenset, dropped: frozenset) -> set[int]:
        """VC1 by two searches: forward from Vdst ∩ backward from Vsrc."""
        return (self.reach(dst, True, edge_types, dropped)
                & self.reach(src, False, edge_types, dropped))

    def induced_edges(self, vertices: set[int],
                      dropped: frozenset) -> set[int]:
        """Ids of edges with both ends in ``vertices`` and a kept type."""
        return {record.edge_id for v in vertices for record in self.out[v]
                if record.dst in vertices and record.edge_type not in dropped}

    def agents_of(self, members: Iterable[int],
                  dropped: frozenset) -> set[int]:
        """Agents associated with member activities or attributed by
        member entities, over kept edge types."""
        agents = set()
        for v in members:
            wanted = {VertexType.ACTIVITY: S, VertexType.ENTITY: A}.get(
                self.vertex_type[v])
            if wanted is None or wanted in dropped:
                continue
            agents.update(record.dst for record in self.out[v]
                          if record.edge_type is wanted)
        return agents


def lineage_levels(store, entity: int, upstream: bool,
                   max_depth: int | None) -> set[int]:
    """Ancestry (or impact) closure of an entity, BFS over the live store's
    adjacency: entity -G-> activity -U-> entity upstream, the inverse
    downstream; ``max_depth`` bounds the activity levels."""
    step = store.out_neighbors if upstream else store.in_neighbors
    to_activity, to_entity = (G, U) if upstream else (U, G)
    seen = {entity}
    frontier = [entity]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        activities = []
        for e in frontier:
            for a in step(e, to_activity):
                if a not in seen:
                    seen.add(a)
                    activities.append(a)
        if not activities:
            break
        frontier = []
        for a in activities:
            for e in step(a, to_entity):
                if e not in seen:
                    seen.add(e)
                    frontier.append(e)
    return seen


def blame_report(store, ancestry: set[int]) -> dict[int, set[int]]:
    """Agent -> the ancestry vertices it is responsible for (associated
    activities, attributed entities)."""
    report: dict[int, set[int]] = {}
    for v in ancestry:
        for edge_type in (S, A):
            for agent in store.out_neighbors(v, edge_type):
                report.setdefault(agent, set()).add(v)
    return report


def aggregated_label(record, activity_keys: tuple[str, ...]) -> tuple:
    """A vertex's label under an aggregation keeping ``activity_keys`` on
    activities and nothing on entities or agents."""
    if record.vertex_type is VertexType.ACTIVITY:
        return (record.vertex_type.label,
                tuple(record.properties.get(key) for key in activity_keys))
    return (record.vertex_type.label, ())


def path_words(adjacency: dict[Hashable, list[tuple[str, Hashable]]],
               label: dict[Hashable, Hashable],
               max_edges: int) -> set[tuple]:
    """All label words of paths with 1..``max_edges`` edges.

    A word alternates node and edge labels, ``(ρ0, e1, ρ1, ..., ρn)``.
    Words are built per start node from the words of its successors, so
    the cost follows the number of distinct words, not of paths.
    """
    words: set[tuple] = set()
    # suffixes[node] = words of exactly `length` edges starting at node.
    suffixes = {node: {(label[node],)} for node in label}
    for _length in range(max_edges):
        grown = {}
        for node in label:
            mine = set()
            for edge_label, nxt in adjacency.get(node, ()):
                head = (label[node], edge_label)
                mine.update(head + word for word in suffixes[nxt])
            grown[node] = mine
            words.update(mine)
        suffixes = grown
    return words
