"""Tests for MVSG construction details: the explicit reference graph and
the chained graph every check runs on."""

from repro.serializability.checker import (
    equivalent_serial_order,
    is_one_copy_serializable,
)
from repro.serializability.graph import ChainedMVSG
from repro.serializability.history import HistoryTxn, MVHistory
from tests.serializability.explicit_mvsg import INITIAL_NODE, build_mvsg, find_cycle

A = ("row0", "a")
B = ("row0", "b")


def history_of(*txns):
    history = MVHistory()
    for t in txns:
        history.add(t)
        for item in t.writes:
            history.version_order.setdefault(item, []).append(t.tid)
    return history


class TestEdges:
    def test_reads_from_edge(self):
        history = history_of(
            HistoryTxn("w", writes=(A,)),
            HistoryTxn("r", reads=((A, "w"),)),
        )
        graph = build_mvsg(history)
        assert graph.has_edge("w", "r")

    def test_initial_read_edge_from_sentinel(self):
        history = history_of(HistoryTxn("r", reads=((A, None),)))
        graph = build_mvsg(history)
        assert graph.has_edge(INITIAL_NODE, "r")

    def test_later_version_forces_reader_first(self):
        # r reads the initial version; w writes a later version: r → w.
        history = history_of(
            HistoryTxn("r", reads=((A, None),)),
            HistoryTxn("w", writes=(A,)),
        )
        graph = build_mvsg(history)
        assert graph.has_edge("r", "w")

    def test_earlier_version_orders_writers(self):
        # r reads w2's version; w1 wrote an earlier version: w1 → w2.
        history = history_of(
            HistoryTxn("w1", writes=(A,)),
            HistoryTxn("w2", writes=(A,)),
            HistoryTxn("r", reads=((A, "w2"),)),
        )
        graph = build_mvsg(history)
        assert graph.has_edge("w1", "w2")

    def test_no_self_loops(self):
        history = history_of(
            HistoryTxn("t", reads=((A, None),), writes=(A,)),
        )
        graph = build_mvsg(history)
        assert not graph.has_edge("t", "t")


class TestCycleDetection:
    def test_acyclic_reports_none(self):
        history = history_of(
            HistoryTxn("t1", writes=(A,)),
            HistoryTxn("t2", reads=((A, "t1"),)),
        )
        assert find_cycle(build_mvsg(history)) is None

    def test_cycle_reported_with_members(self):
        history = history_of(
            HistoryTxn("t1", reads=((A, None),), writes=(B,)),
            HistoryTxn("t2", reads=((B, None),), writes=(A,)),
        )
        cycle = find_cycle(build_mvsg(history))
        assert cycle is not None
        assert {"t1", "t2"} <= set(cycle)


class TestChainedGraph:
    def test_single_read_modify_write_is_serializable(self):
        # The reader wrote the next version of what it read: it must not
        # reach itself through the after chain.
        history = history_of(
            HistoryTxn("t", reads=((A, None),), writes=(A,)),
        )
        assert is_one_copy_serializable(history) == (True, None)
        assert ChainedMVSG(history).cycle_or_order() == (None, ["t"])

    def test_reader_skips_its_own_later_version(self):
        # t3 read t1's version and wrote the version after t2's.  It owes
        # t3 → t2 (t2 overwrote its read) but no edge to itself, and t2's
        # version is unread, so nothing orders t2 before t3: acyclic.
        history = history_of(
            HistoryTxn("t1", writes=(A,)),
            HistoryTxn("t2", writes=(A,)),
            HistoryTxn("t3", reads=((A, "t1"),), writes=(A,)),
        )
        explicit = build_mvsg(history)
        assert set(explicit.edges) == {(INITIAL_NODE, "t1"), ("t1", "t3"), ("t3", "t2")}
        assert equivalent_serial_order(history) == ["t1", "t3", "t2"]

    def test_sole_reader_wrote_an_earlier_version(self):
        # t1 wrote version 1 and read version 3: only t2 → t3 is owed, not
        # t1 → t3 (which with the reads-from edge t3 → t1 would be a cycle).
        history = history_of(
            HistoryTxn("t1", reads=((A, "t3"),), writes=(A,)),
            HistoryTxn("t2", writes=(A,)),
            HistoryTxn("t3", writes=(A,)),
        )
        assert find_cycle(build_mvsg(history)) is None
        assert equivalent_serial_order(history) == ["t2", "t3", "t1"]

    def test_cycle_drops_auxiliary_nodes(self):
        history = history_of(
            HistoryTxn("t1", reads=((A, None),), writes=(B,)),
            HistoryTxn("t2", reads=((B, None),), writes=(A,)),
        )
        ok, cycle = is_one_copy_serializable(history)
        assert not ok
        assert cycle == ["t1", "t2"]

    def test_edge_count_is_linear_on_a_hot_item(self):
        # 40 serial read-modify-writes of one item: the explicit graph has
        # Θ(n²) edges, the chained one at most seven per transaction.
        txns = [HistoryTxn("t0", writes=(A,))]
        for i in range(1, 40):
            txns.append(HistoryTxn(
                f"t{i}", reads=((A, f"t{i - 1}"),), writes=(A,)
            ))
        history = history_of(*txns)
        assert build_mvsg(history).number_of_edges() > 700
        assert ChainedMVSG(history).edge_count <= 7 * 40


class TestSerialOrder:
    def test_sentinel_removed(self):
        history = history_of(HistoryTxn("r", reads=((A, None),)))
        assert equivalent_serial_order(history) == ["r"]

    def test_topological(self):
        history = history_of(
            HistoryTxn("t1", writes=(A,)),
            HistoryTxn("t2", reads=((A, "t1"),), writes=(B,)),
            HistoryTxn("t3", reads=((B, "t2"),)),
        )
        order = equivalent_serial_order(history)
        assert order.index("t1") < order.index("t2") < order.index("t3")
