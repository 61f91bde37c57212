"""Deciding one-copy serializability.

The procedures:

* :func:`is_one_copy_serializable` — the polynomial MVSG acyclicity test for
  the history's given version order.  Sound (acyclic ⇒ 1SR).  For version
  orders induced by our write-ahead log it is the test Theorems 2 and 3
  appeal to.  Runs on the linear-size chained graph
  (:class:`~repro.serializability.graph.ChainedMVSG`), as does
  :func:`equivalent_serial_order`.
* :func:`merge_group_histories` — fuses per-entity-group histories into one
  *global* history: items are namespaced by group and the per-group branches
  of each cross-group (2PC) transaction collapse into a single node.  The
  MVSG test over the merged history decides **global** one-copy
  serializability — the guarantee the 2PC layer owes on top of each group's
  own log-order serializability.
* :func:`brute_force_one_copy_serializable` — the exact decision procedure
  straight from Definition 1: search for *any* serial order of the committed
  transactions whose single-copy execution produces the same reads-from
  relation.  Exponential; used in tests to cross-validate the MVSG test on
  small randomized histories.
* :func:`check_queue_delivery` — the asynchronous-queue layer's delivery
  obligation: every committed send is applied at its receiver **exactly
  once** and **in sender order** per stream, with redelivered duplicates
  (pump crashes) reduced to byte-identical shadows.  This is the eventual
  half of the paper's trade-off: queue transactions give up the atomic
  visibility of 2PC, never the integrity of the deferred writes.
* :func:`classify_anomalies` — the classifier behind the snapshot-isolation
  axis: instead of pass/fail, name each non-serializable phenomenon in the
  history using the taxonomy of "A Critique of Snapshot Isolation"
  (arXiv:2405.18393) — *write skew* (a mutual anti-dependency pair),
  *read-only anomaly* (a cycle through a read-only transaction), *other*
  (any remaining cycle).  It runs on the same chained graph as the
  pass/fail test.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from operator import itemgetter
from typing import Iterable, Mapping

from repro.core.queues import StreamSend, enumerate_sends
from repro.serializability.graph import ChainedMVSG, EdgeLabels, labelled_edges
from repro.serializability.history import INITIAL, HistoryTxn, MVHistory, serial_reads_from
from repro.wal.entry import LogEntry


def is_one_copy_serializable(history: MVHistory) -> tuple[bool, list[str] | None]:
    """MVSG test for the history's version order.

    Returns ``(True, None)`` when the MVSG is acyclic, otherwise ``(False,
    cycle)`` with one offending cycle (transaction ids, every consecutive
    pair — and last → first — an MVSG edge; the initial transaction has no
    in-edges, so it is never a member).
    """
    history.validate()
    cycle, _order = ChainedMVSG(history).cycle_or_order()
    return cycle is None, cycle


@dataclass(frozen=True)
class Anomaly:
    """One classified non-serializable phenomenon in an observed history.

    ``kind`` is one of ``"write_skew"``, ``"read_only_anomaly"``,
    ``"other"``.  ``cycle`` lists the member transactions in cycle order
    (without repeating the first).  ``description`` is a deterministic,
    byte-stable sentence — the tests pin it, so reports never drift.
    """

    kind: str
    cycle: tuple[str, ...]
    description: str


@dataclass(frozen=True)
class AnomalyReport:
    """Every classified anomaly of one history, deterministically ordered."""

    anomalies: tuple[Anomaly, ...]

    @property
    def serializable(self) -> bool:
        """True iff the history admitted no anomaly (MVSG acyclic)."""
        return not self.anomalies

    def counts(self) -> dict[str, int]:
        """``{kind: count}``, sorted by kind — the metrics/report shape."""
        tally = Counter(anomaly.kind for anomaly in self.anomalies)
        return dict(sorted(tally.items()))


def _shortest_cycle_through(edges: EdgeLabels, node: str) -> tuple[str, ...]:
    """The shortest cycle through *node*, as a node tuple starting at it.

    Ties go to the lexicographically least tuple: with every node's distance
    back to *node* (a breadth-first search over reversed *edges*), the walk
    from *node* takes at each hop the least successor still on a shortest
    way back.  Every node of *edges* must reach *node*.
    """
    distance = {node: 0}
    frontier = {node}
    hops = 0
    while frontier:
        hops += 1
        frontier = {u for u, v in edges if v in frontier and u not in distance}
        distance.update(dict.fromkeys(frontier, hops))
    cycle = [node]
    remaining = min(distance[v] for u, v in edges if u == node)
    while remaining:
        cycle.append(min(
            v for u, v in edges if u == cycle[-1] and distance[v] == remaining
        ))
        remaining -= 1
    return tuple(cycle)


def classify_anomalies(history: MVHistory) -> AnomalyReport:
    """Name every non-serializable phenomenon in *history*.

    Every cycle lies in one strongly connected component of the MVSG: the
    chained graph finds the components (none *is* the pass verdict of
    :func:`is_one_copy_serializable`), and the labelled edges are built only
    among each one's members.  The initial transaction ``⊥`` is never a
    member — it has no in-edges.  Per component, in deterministic order:

    * every mutual anti-dependency pair — both edges justified by ``rw``
      labels — is a **write skew**: each transaction overwrote an item the
      other had read from its snapshot, the canonical SI anomaly;
    * every read-only member is a **read-only anomaly**: the component's
      writers could be serialized, but this reader observed a snapshot no
      serial order of them explains (Fekete et al.'s surprise, via
      arXiv:2405.18393), shown by the shortest cycle through it;
    * a component explained by neither yields one **other** anomaly, shown
      by the shortest cycle through its least member.
    """
    history.validate()
    anomalies: list[Anomaly] = []
    components = sorted(ChainedMVSG(history).strongly_connected_components(), key=min)
    for component, labels in zip(components, labelled_edges(history, components)):
        explained = False
        mutual_pairs = sorted({
            tuple(sorted((u, v))) for u, v in labels if (v, u) in labels
        })
        for a, b in mutual_pairs:
            forward = sorted(item for kind, item in labels[(a, b)] if kind == "rw")
            backward = sorted(item for kind, item in labels[(b, a)] if kind == "rw")
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
            cycle = _shortest_cycle_through(labels, tid)
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
            cycle = _shortest_cycle_through(labels, min(component))
            anomalies.append(Anomaly(
                kind="other",
                cycle=cycle,
                description=(
                    f"non-serializable cycle with no named pattern: "
                    f"{' -> '.join((*cycle, cycle[0]))}"
                ),
            ))
    return AnomalyReport(anomalies=tuple(anomalies))


def equivalent_serial_order(history: MVHistory) -> list[str]:
    """An equivalent serial order (Definition 1's witness), via the MVSG.

    Raises ``ValueError`` if the history fails the MVSG test.
    """
    history.validate()
    cycle, order = ChainedMVSG(history).cycle_or_order()
    if cycle is not None:
        raise ValueError(f"history is not one-copy serializable; MVSG cycle: {cycle}")
    return order


def merge_group_histories(
    histories: Iterable[tuple[str, MVHistory]],
    rename: Mapping[str, str] | None = None,
) -> MVHistory:
    """One global history from per-group histories.

    *histories* yields ``(group, history)`` pairs in group order; each is
    folded in as it arrives, so a caller that builds them lazily holds one
    group history beside the merged one, never all of them.

    Every item ``(row, attr)`` of group *g* becomes ``(f"{g}/{row}", attr)``
    — groups are disjoint keyspaces, but row *names* may repeat across them.
    ``rename`` maps per-group transaction ids to global ones (the 2PC branch
    → gtid map); transactions renamed to the same id merge into one node
    with the union of their reads and writes, which is exactly what makes a
    cross-group transaction a single point in the global serial order.
    Each group's item is named once and shared by every read, write and
    version order that mentions it.
    """
    rename = dict(rename or {})
    merged = MVHistory()
    transactions = merged.transactions
    # An id that may recur in a later group (a renamed branch, or one seen
    # twice) gathers its reads and writes here and becomes a node once every
    # group is in.  Its slot in ``transactions`` is taken on first sight, so
    # the node order is the order of first appearance either way.
    pending: dict[str, tuple[list, dict]] = {}
    for group, history in histories:
        named: dict[tuple[str, str], tuple[str, str]] = {}

        def global_item(item):
            name = named.get(item)
            if name is None:
                row, attribute = item
                name = named[item] = (f"{group}/{row}", attribute)
            return name

        for txn in history.transactions.values():
            tid = rename.get(txn.tid, txn.tid)
            reads = [
                (global_item(item), writer if writer is INITIAL else rename.get(writer, writer))
                for item, writer in txn.reads
            ]
            writes = dict.fromkeys(global_item(item) for item in txn.writes)
            if tid in transactions:
                gathered = pending.get(tid)
                if gathered is None:
                    # Seen before under an id of its own: reopen its node.
                    done = transactions[tid]
                    gathered = pending[tid] = (
                        list(done.reads), dict.fromkeys(done.writes)
                    )
                    transactions[tid] = None
                gathered[0].extend(reads)
                gathered[1].update(writes)
            elif tid != txn.tid:
                pending[tid] = (reads, writes)
                transactions[tid] = None
            else:
                transactions[tid] = HistoryTxn(
                    tid, tuple(sorted(reads, key=itemgetter(0))), tuple(writes)
                )
        for item, order in history.version_order.items():
            merged.version_order[global_item(item)] = [
                rename.get(tid, tid) for tid in order
            ]
        # Let this group's history go before the next one is built.
        del history
    for tid, (reads, writes) in pending.items():
        transactions[tid] = HistoryTxn(
            tid, tuple(sorted(reads, key=itemgetter(0))), tuple(writes)
        )
    return merged


def check_queue_delivery(
    logs: Mapping[str, Mapping[int, LogEntry]],
    decisions: Mapping[str, bool] | None = None,
    require_delivery: bool = True,
) -> list[str]:
    """The queue layer's correctness obligations, over finalized logs.

    * every committed send is applied at its receiver (eventual delivery;
      skipped when ``require_delivery`` is False, for mid-run snapshots);
    * no message takes effect twice — occurrences beyond the first are
      shadows, and every occurrence of a stream key carries the identical
      payload (a divergent twin would mean two pumps invented different
      messages for one stream slot);
    * first occurrences of one stream appear in seqno (= sender) order;
    * no phantom applies: every queue_apply matches an enumerated send,
      with the exact writes the sender enqueued.

    Returns the violations (empty = the invariant holds); callers that want
    an exception wrap it, like the other §3 checkers.
    """
    violations: list[str] = []
    # Streams are keyed by the full (sender, receiver, seqno) triple: the
    # in-entry queue_key is (sender, seqno) because the receiver is implied
    # by whose log the entry sits in.
    expected: dict[tuple[str, str, int], StreamSend] = {}
    for sender, log in sorted(logs.items()):
        for receiver, sends in enumerate_sends(sender, log, decisions).items():
            for send in sends:
                expected[(sender, receiver, send.seqno)] = send

    applied: set[tuple[str, str, int]] = set()
    for receiver, log in sorted(logs.items()):
        occurrences: dict[tuple[str, int], LogEntry] = {}
        last_first: dict[str, tuple[int, int]] = {}  # sender -> (seqno, pos)
        for position in sorted(log):
            entry = log[position]
            key = entry.queue_key
            if key is None:
                continue
            sender, seqno = key
            known = occurrences.get(key)
            if known is not None:
                # Shadows must carry the first occurrence's *payload*; the
                # bookkeeping fields (origin of the appending pump
                # incarnation) are allowed to differ.
                if known.transactions[0].writes != entry.transactions[0].writes:
                    violations.append(
                        f"(queue) redelivery of {key} in {receiver} at "
                        f"position {position} differs from its first occurrence"
                    )
                continue
            occurrences[key] = entry
            send = expected.get((sender, receiver, seqno))
            if send is None:
                violations.append(
                    f"(queue) phantom apply in {receiver} at position "
                    f"{position}: no committed send of {sender} has seqno "
                    f"{seqno} for this group"
                )
                continue
            if tuple(entry.transactions[0].writes) != send.writes:
                violations.append(
                    f"(queue) apply of {key} in {receiver} at position "
                    f"{position} carries writes "
                    f"{entry.transactions[0].writes!r}, sender enqueued "
                    f"{send.writes!r}"
                )
            previous = last_first.get(sender)
            if previous is not None and seqno < previous[0]:
                violations.append(
                    f"(queue) stream {sender}->{receiver} out of order: "
                    f"seqno {seqno} first lands at position {position}, "
                    f"after seqno {previous[0]} at {previous[1]}"
                )
            if previous is None or seqno > previous[0]:
                last_first[sender] = (seqno, position)
            applied.add((sender, receiver, seqno))

    if require_delivery:
        for key, send in sorted(expected.items()):
            if key not in applied:
                violations.append(
                    f"(queue) dropped send: {send.sender_tid} (position "
                    f"{send.sender_position} of {send.sender_group}) enqueued "
                    f"seqno {send.seqno} for {send.receiver_group}, never applied"
                )
    return violations


def brute_force_one_copy_serializable(
    history: MVHistory, max_transactions: int = 8
) -> bool:
    """Exact Definition-1 check by exhaustive search over serial orders.

    A history is 1SR iff some permutation of its transactions, executed
    serially against a single-copy store, yields the same reads-from
    relation for every transaction.  Guarded by *max_transactions* because
    the search is factorial.
    """
    history.validate()
    txns = list(history.transactions.values())
    if len(txns) > max_transactions:
        raise ValueError(
            f"history has {len(txns)} transactions; brute force capped at "
            f"{max_transactions} (raise max_transactions deliberately if you must)"
        )
    target = {txn.tid: txn.reads_map() for txn in txns}
    for order in permutations(txns):
        candidate = serial_reads_from(order)
        if candidate == target:
            return True
    return False
