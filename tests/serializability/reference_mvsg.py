"""The chained MVSG as it was before its memory rewrite: the reference
:mod:`tests.serializability.test_chained_reference` runs the oracle against.

Kept verbatim apart from the class names: every node, auxiliary ones
included, owns a ``list[int]`` of successors, so the graph is one Python
list per chain node.  Plain adjacency, obviously right.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import HistoryError
from repro.serializability.history import INITIAL, MVHistory


#: Sentinels of :attr:`_ReferenceItemChains.sole_reader` (real entries are
#: node ids).
_NO_READER, _SEVERAL_READERS = -1, -2


class _ReferenceItemChains(NamedTuple):
    """One read item's slice of a :class:`ReferenceChainedMVSG`."""

    #: writer → version; the initial version is 0.
    version_of: dict[str | None, int]
    #: version → its writer's node (index 0, the initial version, unused).
    writers: list[int]
    #: ``A_j`` is node ``after + j`` (j = 1 … n).
    after: int
    #: ``B_j`` is node ``before + j`` (j = 2 … n; ``B_1`` would only hold ⊥).
    before: int
    #: version → the node of its only reader so far, or one of the sentinels.
    sole_reader: list[int]


class ReferenceChainedMVSG:
    """MVSG(H, <<) up to reachability, in O(reads + versions) edges.

    Nodes ``0 … len(tids) - 1`` are the history's transactions in insertion
    order; higher ids are auxiliary.  For an item with versions
    ``w_1 … w_n`` (writers, oldest first; the initial version has no node):

    * a *before* chain — ``B_j`` stands for "every writer of a version
      < j": ``w_{j-1} → B_j``, ``B_{j-1} → B_j``, and ``B_a → w_a`` iff
      version *a* is read;
    * an *after* chain — ``A_j`` stands for "every writer of a version
      ≥ j": ``A_j → w_j``, ``A_j → A_{j+1}``, and ``r → A_{a+1}`` for each
      reader *r* of version *a*;
    * the reads-from edge ``w_a → r``.

    Auxiliary nodes have no other edges and both chains only run forward,
    so a stretch of auxiliary nodes between two transactions on a path is
    exactly one MVSG edge.  Two cases need explicit edges to honour the
    definition's "distinct" rule (a transaction never orders itself):

    1. a reader that itself wrote a *later* version *k* of the item (every
       read-modify-write) must not reach itself through the after chain:
       it gets edges to the writers of versions a+1 … k-1 and enters the
       chain at ``A_{k+1}``;
    2. a version whose *only* reader wrote an earlier version of the same
       item gets ``ww`` edges from the other earlier writers instead of
       ``B_a → w_a``.

    The verdict is therefore identical to the explicit graph's for every
    history, not only log-ordered ones.
    """

    def __init__(self, history: MVHistory) -> None:
        self.tids: list[str] = list(history.transactions)
        node_of = {tid: node for node, tid in enumerate(self.tids)}
        successors: list[list[int]] = [[] for _ in self.tids]
        self.successors = successors

        # Chains are laid only for items that are read: every MVSG edge
        # stems from a read.
        items: dict[object, _ReferenceItemChains] = {}

        def chains(item) -> _ReferenceItemChains:
            order = history.version_order.get(item, ())
            n = len(order)
            version_of: dict[str | None, int] = {INITIAL: 0}
            writers = [-1]
            for version, tid in enumerate(order, start=1):
                version_of[tid] = version
                writers.append(node_of[tid])
            # After chain: A_j → w_j and A_j → A_{j+1}.
            after = len(successors) - 1
            for version in range(1, n):
                successors.append([writers[version], after + version + 1])
            if n:
                successors.append([writers[n]])
            # Before chain: w_{j-1} → B_j and B_j → B_{j+1}; B_j → w_j waits
            # until the readers of version j are known.
            before = len(successors) - 2
            for version in range(2, n + 1):
                successors[writers[version - 1]].append(before + version)
                successors.append([before + version + 1] if version < n else [])
            items[item] = state = _ReferenceItemChains(
                version_of, writers, after, before, [_NO_READER] * (n + 1)
            )
            return state

        for reader_tid, reader in history.transactions.items():
            reader_node = node_of[reader_tid]
            out = successors[reader_node]
            for item, writer in reader.reads:
                version_of, writers, after, _before, sole_reader = (
                    items.get(item) or chains(item)
                )
                read_version = version_of.get(writer)
                if read_version is None:
                    raise HistoryError(f"{writer} is not a writer of {item}")
                if read_version and writers[read_version] != reader_node:
                    # Reads-from: the writer precedes the reader.
                    successors[writers[read_version]].append(reader_node)
                enter = read_version + 1
                own_version = version_of.get(reader_tid)
                if own_version is not None and own_version > read_version:
                    # Case 1: skip over the reader's own later version.
                    out.extend(writers[enter:own_version])
                    enter = own_version + 1
                if enter < len(writers):
                    out.append(after + enter)
                seen = sole_reader[read_version]
                if seen == _NO_READER:
                    sole_reader[read_version] = reader_node
                elif seen != reader_node:
                    sole_reader[read_version] = _SEVERAL_READERS

        for version_of, writers, _after, before, sole_reader in items.values():
            for version in range(2, len(writers)):
                seen = sole_reader[version]
                if seen == _NO_READER:
                    continue
                target = writers[version]
                if seen != _SEVERAL_READERS:
                    own_version = version_of.get(self.tids[seen])
                    if own_version is not None and own_version < version:
                        # Case 2: every earlier writer but the reader itself.
                        for earlier in range(1, version):
                            if earlier != own_version:
                                successors[writers[earlier]].append(target)
                        continue
                successors[before + version].append(target)

    @property
    def edge_count(self) -> int:
        """Edges of the chained graph, auxiliary ones included."""
        return sum(len(out) for out in self.successors)

    def cycle_or_order(self) -> tuple[list[str] | None, list[str]]:
        """``(cycle, [])`` if the MVSG has a cycle, else ``(None, order)``.

        One iterative three-colour depth-first search.  A back edge closes
        a cycle on the grey stack; with the auxiliary nodes dropped every
        remaining hop (last → first included) is an MVSG edge.  Without a
        back edge, reverse post-order restricted to the transactions is a
        topological order of the MVSG — an equivalent serial order.
        Transactions are tried as roots in insertion order and successors
        in the order the history lists them, so both outputs are
        deterministic for a given history.
        """
        tids, successors = self.tids, self.successors
        n_txns = len(tids)
        WHITE, GREY, BLACK = 0, 1, 2
        colour = bytearray(len(successors))
        finished: list[int] = []
        for root in range(n_txns):
            if colour[root] != WHITE:
                continue
            colour[root] = GREY
            path = [root]
            pending = [iter(successors[root])]
            while path:
                for child in pending[-1]:
                    state = colour[child]
                    if state == WHITE:
                        colour[child] = GREY
                        path.append(child)
                        pending.append(iter(successors[child]))
                        break
                    if state == GREY:
                        cycle = path[path.index(child):]
                        return [tids[n] for n in cycle if n < n_txns], []
                else:
                    pending.pop()
                    node = path.pop()
                    colour[node] = BLACK
                    if node < n_txns:
                        finished.append(node)
        finished.reverse()
        return None, [tids[node] for node in finished]
