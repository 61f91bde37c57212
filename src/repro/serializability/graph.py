"""The multi-version serialization graph (MVSG).

Classical theory (Bernstein, Hadzilacos & Goodman, ch. 5): given a
multi-version history *H* and a version order ``<<``, MVSG(H, <<) has a node
per committed transaction and, for each read of version ``x_a`` (written by
``t_a``) by transaction ``t_r``, and each other version ``x_b`` of the same
item (written by ``t_b``, with ``t_a``, ``t_b``, ``t_r`` distinct):

* an edge ``t_a → t_r`` (the reads-from edge), and
* if ``x_b << x_a``: an edge ``t_b → t_a``;
* if ``x_a << x_b``: an edge ``t_r → t_b``.

*H* is one-copy serializable if MVSG(H, <<) is acyclic for **some** version
order; acyclicity for a *given* order is sufficient.  Our system's log
positions supply the version order, so the polynomial test applies.

Taken literally the definition costs one edge per (read, other version)
pair — Θ(reads × versions) on a hot item — yet whether a cycle exists, and
which transactions share one, only depends on reachability.
:class:`ChainedMVSG` keeps the transaction nodes and replaces each item's
order edges by two forward chains of auxiliary nodes, O(reads + versions)
edges in all, such that a path between two transactions exists iff the
MVSG has one.  No object per node: a transaction's successors are one
``array`` of node ids, an auxiliary node is one integer in a flat ``array``
from which a search derives its at most two successors.  The pass/fail
oracle, the serial-order extractor and the anomaly classifier's strongly
connected components all run on it.  Only inside a component does the
classifier need the edges themselves, and *why* each exists:
:func:`labelled_edges` spells them out from the definition.

The imaginary initial transaction (writer ``None``) participates as the
oldest version of every item.  It only ever has *out*-edges, so it lies on
no cycle: the chained graph leaves it out, and no component holds it.
"""

from __future__ import annotations

from array import array
from typing import Collection, NamedTuple, Sequence

from repro.errors import HistoryError
from repro.serializability.history import INITIAL, MVHistory

#: Why an MVSG edge exists: ``"wr"`` reads-from (writer → reader), ``"ww"``
#: version order (earlier writer → later writer), ``"rw"`` anti-dependency
#: (reader → the writer that overwrote its read).
EdgeKind = str

#: Per-edge provenance: ``{(u, v): {(kind, item), ...}}``.  One edge may
#: carry several justifications (different items, different kinds); the
#: anomaly classifier needs them all — a cycle is *write skew* exactly when
#: every hop can be explained by an anti-dependency.
EdgeLabels = dict[tuple[str, str], set[tuple[EdgeKind, object]]]


#: Sentinels of :attr:`_ItemChains.sole_reader` (real entries are node ids).
_NO_READER, _SEVERAL_READERS = -1, -2

#: Bits of an auxiliary node's code: an edge to the next node id (its chain
#: link); a *before*-chain node (whose chain link comes first); an edge to
#: the writer whose node is ``code >> _WRITER_SHIFT``.
_LINKED, _BEFORE, _TO_WRITER, _WRITER_SHIFT = 1, 2, 4, 3


class _ItemChains(NamedTuple):
    """One read item's slice of a :class:`ChainedMVSG` while it is built."""

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


class ChainedMVSG:
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

    The verdict is therefore identical to the MVSG's for every
    history, not only log-ordered ones.

    Storage: only transaction nodes hold successors, one ``array`` each
    (:attr:`successors`).  An item's chains take consecutive ids, ``A_1 …
    A_n`` then ``B_2 … B_n``, so a chain link is always "the next id", and
    an auxiliary node has at most one other edge, to a writer.  Each node is
    therefore one integer of :attr:`codes` (0 for a transaction), and the
    search derives an auxiliary node's successors — ``w_j`` then
    ``A_{j+1}``, or ``B_{j+1}`` then ``w_j`` — on entering it.
    """

    def __init__(self, history: MVHistory) -> None:
        self.tids: list[str] = list(history.transactions)
        node_of = {tid: node for node, tid in enumerate(self.tids)}
        successors: list[array[int]] = [array("q") for _ in self.tids]
        self.successors = successors
        #: Node → code (see ``_LINKED``); 0 for every transaction node.
        self.codes = codes = array("q", [0]) * len(self.tids)

        # Chains are laid only for items that are read: every MVSG edge
        # stems from a read.
        items: dict[object, _ItemChains] = {}

        def chains(item) -> _ItemChains:
            order = history.version_order.get(item, ())
            n = len(order)
            version_of: dict[str | None, int] = {INITIAL: 0}
            writers = [-1]
            for version, tid in enumerate(order, start=1):
                version_of[tid] = version
                writers.append(node_of[tid])
            # After chain: A_j → w_j and A_j → A_{j+1}.
            after = len(codes) - 1
            codes.extend([
                writer << _WRITER_SHIFT | _TO_WRITER | _LINKED
                for writer in writers[1:n]
            ])
            if n:
                codes.append(writers[n] << _WRITER_SHIFT | _TO_WRITER)
            # Before chain: w_{j-1} → B_j and B_j → B_{j+1}; B_j → w_j waits
            # until the readers of version j are known.
            before = len(codes) - 2
            for version in range(2, n + 1):
                successors[writers[version - 1]].append(before + version)
                codes.append(_BEFORE | _LINKED if version < n else _BEFORE)
            items[item] = state = _ItemChains(
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
                codes[before + version] |= target << _WRITER_SHIFT | _TO_WRITER

    @property
    def edge_count(self) -> int:
        """Edges of the chained graph, auxiliary ones included."""
        return sum(len(out) for out in self.successors) + sum(
            (code & _LINKED) + (code & _TO_WRITER > 0) for code in self.codes
        )

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
        tids, successors, codes = self.tids, self.successors, self.codes
        n_txns = len(tids)
        WHITE, GREY, BLACK = 0, 1, 2
        colour = bytearray(len(codes))
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
                        if child < n_txns:
                            pending.append(iter(successors[child]))
                            break
                        code = codes[child]
                        if code & _TO_WRITER:
                            if not code & _LINKED:
                                chained = (code >> _WRITER_SHIFT,)
                            elif code & _BEFORE:
                                chained = (child + 1, code >> _WRITER_SHIFT)
                            else:
                                chained = (code >> _WRITER_SHIFT, child + 1)
                        else:
                            chained = (child + 1,) if code & _LINKED else ()
                        pending.append(iter(chained))
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

    def strongly_connected_components(self) -> list[list[str]]:
        """The transactions of each strongly connected component that holds
        two or more; none iff the MVSG is acyclic.

        One iterative Tarjan search, auxiliary nodes decoded as in
        :meth:`cycle_or_order` and dropped from the output.  Paths between
        transactions are exactly the MVSG's, so these are the MVSG's
        components with a cycle.  Roots are tried in insertion order.
        """
        tids, successors, codes = self.tids, self.successors, self.codes
        n_txns = len(tids)
        # A node's visit number, -1 before its visit and ``done`` once its
        # component is out (so it lowers no one's ``low``).
        done = len(codes)
        index = [-1] * done
        low = [0] * done
        stack: list[int] = []
        components: list[list[str]] = []
        visited = 0
        for root in range(n_txns):
            if index[root] >= 0:
                continue
            index[root] = low[root] = visited
            visited += 1
            stack.append(root)
            path = [root]
            pending = [iter(successors[root])]
            while path:
                node = path[-1]
                for child in pending[-1]:
                    if index[child] < 0:
                        index[child] = low[child] = visited
                        visited += 1
                        stack.append(child)
                        path.append(child)
                        if child < n_txns:
                            pending.append(iter(successors[child]))
                            break
                        code = codes[child]
                        if code & _TO_WRITER:
                            if not code & _LINKED:
                                chained = (code >> _WRITER_SHIFT,)
                            elif code & _BEFORE:
                                chained = (child + 1, code >> _WRITER_SHIFT)
                            else:
                                chained = (code >> _WRITER_SHIFT, child + 1)
                        else:
                            chained = (child + 1,) if code & _LINKED else ()
                        pending.append(iter(chained))
                        break
                    if index[child] < low[node]:
                        low[node] = index[child]
                else:
                    pending.pop()
                    path.pop()
                    if path and low[node] < low[path[-1]]:
                        low[path[-1]] = low[node]
                    if low[node] < index[node]:
                        continue
                    members = []
                    while True:
                        member = stack.pop()
                        index[member] = done
                        if member < n_txns:
                            members.append(tids[member])
                        if member == node:
                            break
                    if len(members) > 1:
                        components.append(members)
        return components


def labelled_edges(
    history: MVHistory, components: Sequence[Collection[str]]
) -> list[EdgeLabels]:
    """The MVSG edges inside each of *components*, each with why it exists.

    The definition's ``wr``, ``ww`` and ``rw`` edges (module docstring),
    kept where both ends lie in the same component; one pass over the
    valid *history*'s version orders and reads, plus one step per edge
    found.
    """
    component_of = {tid: c for c, members in enumerate(components) for tid in members}
    labels: list[EdgeLabels] = [{} for _ in components]
    version_of: dict[object, dict[str | None, int]] = {}
    # {item: {component: [(version, member writer), ...]}}
    member_versions: dict[object, dict[int, list[tuple[int, str]]]] = {}
    for item, order in history.version_order.items():
        version_of[item] = table = {INITIAL: 0}
        for version, tid in enumerate(order, start=1):
            table[tid] = version
            if tid in component_of:
                member_versions.setdefault(item, {}).setdefault(
                    component_of[tid], []
                ).append((version, tid))
    for reader, txn in history.transactions.items():
        ours = component_of.get(reader)
        for item, writer in txn.reads:
            versions = member_versions.get(item)
            if versions is None:
                continue
            read_version = version_of[item][writer]
            theirs = component_of.get(writer)
            if theirs is not None:
                edges = labels[theirs]
                if theirs == ours and writer != reader:
                    edges.setdefault((writer, reader), set()).add(("wr", item))
                for version, other in versions.get(theirs, ()):
                    if version < read_version and other != reader:
                        edges.setdefault((other, writer), set()).add(("ww", item))
            if ours is not None:
                edges = labels[ours]
                for version, other in versions.get(ours, ()):
                    if version > read_version and other != reader:
                        edges.setdefault((reader, other), set()).add(("rw", item))
    return labels
