"""The explicit MVSG, built with ``networkx``: the tests' reference oracle.

:func:`build_mvsg` is the textbook construction (Bernstein, Hadzilacos &
Goodman, ch. 5), one edge per (read, other version) pair, Θ(reads ×
versions) on a hot item.  The library runs on
:class:`~repro.serializability.graph.ChainedMVSG` instead; these tests check
its verdicts, serial orders, strongly connected components and labelled
edges against this graph.  :func:`reference_classify_anomalies` is the
anomaly classifier written over it (SCCs, subgraphs and cycles from
``networkx``), the reference the library's classifier is compared with.

``networkx`` is a test dependency only (the ``test`` extra).
"""

from __future__ import annotations

import networkx as nx

from repro.errors import HistoryError
from repro.serializability.checker import Anomaly, AnomalyReport, classify_anomalies
from repro.serializability.graph import (
    ChainedMVSG,
    EdgeKind,
    EdgeLabels,
    labelled_edges,
)
from repro.serializability.history import INITIAL, MVHistory

#: Graph node standing for the imaginary writer of all initial versions.
INITIAL_NODE = "⊥"


def _node(tid: str | None) -> str:
    return INITIAL_NODE if tid is INITIAL else tid


def build_mvsg(history: MVHistory, labels: EdgeLabels | None = None) -> nx.DiGraph:
    """Build the explicit MVSG(H, <<) for the history's own version order.

    Pass a *labels* dict to record why each edge exists (kind and item, see
    :data:`~repro.serializability.graph.EdgeLabels`).
    """
    graph = nx.DiGraph()
    graph.add_node(INITIAL_NODE)
    for tid in history.transactions:
        graph.add_node(tid)

    def label(u: str, v: str, kind: EdgeKind, item) -> None:
        if labels is not None and u != v:
            labels.setdefault((u, v), set()).add((kind, item))

    # {item: {writer: version index}}, the initial version at index 0.
    index_of: dict[object, dict[str | None, int]] = {}

    def item_table(item) -> dict[str | None, int]:
        table = index_of.get(item)
        if table is None:
            table = {INITIAL: 0}
            for index, tid in enumerate(history.version_order.get(item, []), start=1):
                table[tid] = index
            index_of[item] = table
        return table

    for reader in history.transactions.values():
        reader_tid = reader.tid
        for item, writer in reader.reads:
            table = item_table(item)
            read_version = table.get(writer)
            if read_version is None:
                raise HistoryError(f"{writer} is not a writer of {item}")
            # Reads-from edge: the writer precedes the reader.
            writer_node = _node(writer)
            if writer_node != reader_tid:
                graph.add_edge(writer_node, reader_tid)
                label(writer_node, reader_tid, "wr", item)
            # Order edges against every other version of the item.
            for other, other_version in table.items():
                if other == writer or other == reader_tid:
                    # A reader that also writes the item reads its own or an
                    # earlier version; self-edges are meaningless.
                    continue
                if other_version < read_version:
                    graph.add_edge(_node(other), writer_node)
                    label(_node(other), writer_node, "ww", item)
                elif other_version > read_version:
                    graph.add_edge(reader_tid, _node(other))
                    label(reader_tid, _node(other), "rw", item)
    graph.remove_edges_from(nx.selfloop_edges(graph))
    return graph


def find_cycle(graph: nx.DiGraph) -> list[str] | None:
    """A cycle in the explicit *graph* as a node list, or ``None`` if acyclic."""
    try:
        edges = nx.find_cycle(graph, orientation="original")
    except nx.NetworkXNoCycle:
        return None
    return [edge[0] for edge in edges]


def components(graph: nx.DiGraph) -> set[frozenset[str]]:
    """The strongly connected components of *graph* that hold a cycle."""
    return {
        frozenset(component)
        for component in nx.strongly_connected_components(graph)
        if len(component) > 1
    }


def _shortest_cycle_through(graph: nx.DiGraph, node: str) -> tuple[str, ...]:
    """A shortest cycle through *node*: per successor, one shortest path
    back as ``networkx`` finds it, the least ``(length, tuple)`` kept."""
    best: tuple[tuple[int, tuple[str, ...]], tuple[str, ...]] | None = None
    for successor in sorted(graph.successors(node)):
        try:
            path = nx.shortest_path(graph, successor, node)
        except nx.NetworkXNoPath:
            continue
        candidate = (node, *path[:-1])
        key = (len(candidate), candidate)
        if best is None or key < best[0]:
            best = (key, candidate)
    assert best is not None, f"{node} is not on any cycle"
    return best[1]


def reference_classify_anomalies(
    history: MVHistory, graph: nx.DiGraph, labels: EdgeLabels
) -> AnomalyReport:
    """The anomaly classifier over the explicit *graph* of *history* and
    its *labels*, as :func:`build_mvsg` returns them.

    Same taxonomy, order and write-skew descriptions as
    :func:`~repro.serializability.checker.classify_anomalies`; its cycles
    are whichever ``networkx`` finds, so a read-only or *other* cycle may be
    a different cycle of the same component (of the same length, for a
    read-only one).
    """
    anomalies: list[Anomaly] = []
    for component in sorted(components(graph), key=min):
        subgraph = graph.subgraph(component)
        explained = False
        mutual_pairs = sorted({
            tuple(sorted((u, v)))
            for u, v in subgraph.edges
            if subgraph.has_edge(v, u)
        })
        for a, b in mutual_pairs:
            forward = sorted(
                item for kind, item in labels.get((a, b), ()) if kind == "rw"
            )
            backward = sorted(
                item for kind, item in labels.get((b, a), ()) if kind == "rw"
            )
            if forward and backward:
                explained = True
                anomalies.append(Anomaly(
                    kind="write_skew",
                    cycle=(a, b),
                    description=(
                        f"write skew: {a} and {b} overwrote each other's "
                        f"snapshot reads ({b} overwrote {a}'s read of "
                        f"{forward}, {a} overwrote {b}'s read of {backward})"
                    ),
                ))
        for tid in sorted(component):
            if history.transactions[tid].writes:
                continue
            cycle = _shortest_cycle_through(subgraph, tid)
            explained = True
            anomalies.append(Anomaly(
                kind="read_only_anomaly",
                cycle=cycle,
                description=(
                    f"read-only anomaly: {tid} wrote nothing yet observed a "
                    f"snapshot no serial order explains "
                    f"(cycle {' -> '.join((*cycle, cycle[0]))})"
                ),
            ))
        if not explained:
            cycle = tuple(find_cycle(subgraph))
            anomalies.append(Anomaly(
                kind="other",
                cycle=cycle,
                description=(
                    f"non-serializable cycle with no named pattern: "
                    f"{' -> '.join((*cycle, cycle[0]))}"
                ),
            ))
    return AnomalyReport(anomalies=tuple(anomalies))


def least_shortest_cycle(graph: nx.DiGraph, node: str) -> tuple[str, ...]:
    """The lexicographically least of all shortest cycles through *node*."""
    cycles = [
        (node, *path[:-1])
        for successor in graph.successors(node)
        if nx.has_path(graph, successor, node)
        for path in nx.all_shortest_paths(graph, successor, node)
    ]
    return min(cycles, key=lambda cycle: (len(cycle), cycle))


def assert_classifier_matches_reference(
    history: MVHistory, graph: nx.DiGraph, labels: EdgeLabels
) -> None:
    """:func:`~repro.serializability.checker.classify_anomalies` against
    :func:`reference_classify_anomalies`, given the explicit *graph* of
    *history* and its *labels*.

    Same components and labelled edges inside them, same kinds in the same
    order, identical write-skew anomalies, read-only cycles of the same
    length through the same reader.  Every reported cycle is a cycle of the
    explicit graph and, for a read-only or *other* anomaly, the least of the
    shortest cycles through its first member (an *other* one's is the
    component's least member).
    """
    found = ChainedMVSG(history).strongly_connected_components()
    assert {frozenset(component) for component in found} == components(graph)
    component_of = {tid: c for c, members in enumerate(found) for tid in members}
    inside: list[EdgeLabels] = [{} for _ in found]
    for (u, v), why in labels.items():
        if u in component_of and component_of[u] == component_of.get(v):
            inside[component_of[u]][(u, v)] = why
    assert labelled_edges(history, found) == inside

    report = classify_anomalies(history)
    expected = reference_classify_anomalies(history, graph, labels)
    assert report.counts() == expected.counts()
    assert [a.kind for a in report.anomalies] == [a.kind for a in expected.anomalies]
    for anomaly, reference in zip(report.anomalies, expected.anomalies):
        cycle = anomaly.cycle
        if anomaly.kind == "write_skew":
            assert anomaly == reference
            continue
        if anomaly.kind == "read_only_anomaly":
            assert cycle[0] == reference.cycle[0]
            assert len(cycle) == len(reference.cycle)
        else:
            assert cycle[0] == min(found[component_of[cycle[0]]])
        for hop in zip(cycle, cycle[1:] + cycle[:1]):
            assert graph.has_edge(*hop), f"{hop} of {cycle} is no MVSG edge"
        subgraph = graph.subgraph(found[component_of[cycle[0]]])
        assert cycle == least_shortest_cycle(subgraph, cycle[0])
