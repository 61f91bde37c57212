"""Tests for the one-copy serializability checkers on known histories."""

import pytest

from repro.serializability.checker import (
    brute_force_one_copy_serializable,
    equivalent_serial_order,
    is_one_copy_serializable,
)
from repro.serializability.history import HistoryTxn, MVHistory

A = ("row0", "a")
B = ("row0", "b")


def history_of(*txns, version_order=None):
    history = MVHistory()
    for t in txns:
        history.add(t)
    if version_order:
        history.version_order.update(version_order)
    else:
        # Default: list order defines version order.
        for t in txns:
            for item in t.writes:
                history.version_order.setdefault(item, []).append(t.tid)
    return history


class TestKnownSerializable:
    def test_empty_history(self):
        ok, cycle = is_one_copy_serializable(MVHistory())
        assert ok and cycle is None

    def test_serial_chain(self):
        history = history_of(
            HistoryTxn("t1", writes=(A,)),
            HistoryTxn("t2", reads=((A, "t1"),), writes=(A,)),
            HistoryTxn("t3", reads=((A, "t2"),)),
        )
        ok, _ = is_one_copy_serializable(history)
        assert ok
        assert brute_force_one_copy_serializable(history)

    def test_disjoint_transactions(self):
        history = history_of(
            HistoryTxn("t1", writes=(A,)),
            HistoryTxn("t2", writes=(B,)),
        )
        ok, _ = is_one_copy_serializable(history)
        assert ok

    def test_snapshot_readers(self):
        history = history_of(
            HistoryTxn("t1", writes=(A, B)),
            HistoryTxn("ro1", reads=((A, "t1"), (B, "t1"))),
            HistoryTxn("ro2", reads=((A, None), (B, None))),
        )
        ok, _ = is_one_copy_serializable(history)
        assert ok
        assert brute_force_one_copy_serializable(history)


class TestKnownNonSerializable:
    def test_classic_lost_update_cycle(self):
        # Both read the initial version of the other's item, then write:
        # t1 reads a0 writes b, t2 reads b0 writes a — write versions ordered
        # after the reads → cycle.
        history = history_of(
            HistoryTxn("t1", reads=((A, None),), writes=(B,)),
            HistoryTxn("t2", reads=((B, None),), writes=(A,)),
        )
        ok, cycle = is_one_copy_serializable(history)
        assert not ok
        assert cycle
        assert not brute_force_one_copy_serializable(history)

    def test_torn_snapshot(self):
        # t3 reads a from t1 but b from the initial version although t2
        # (which wrote b) is ordered before t1's write it also read... the
        # inconsistency: t3 sees t2's effect missing but t1's present while
        # t1 read t2's write — no serial order satisfies all three.
        history = history_of(
            HistoryTxn("t2", writes=(B,)),
            HistoryTxn("t1", reads=((B, "t2"),), writes=(A,)),
            HistoryTxn("t3", reads=((A, "t1"), (B, None))),
        )
        ok, _ = is_one_copy_serializable(history)
        assert not ok
        assert not brute_force_one_copy_serializable(history)

    def test_stale_read_after_overwrite(self):
        history = history_of(
            HistoryTxn("t1", writes=(A,)),
            HistoryTxn("t2", reads=((A, "t1"),), writes=(A,)),
            # t3 reads t1's version but writes a later version of A than t2:
            HistoryTxn("t3", reads=((A, "t1"),), writes=(A,)),
            # t4 pins the order by reading t3 and t2... creates the tangle.
            HistoryTxn("t4", reads=((A, "t3"),)),
        )
        # version order A: t1 < t2 < t3; t3 read t1 skipping t2 while being
        # ordered after it → t3 must precede t2 (read) and follow it
        # (version order) → cycle.
        ok, _ = is_one_copy_serializable(history)
        assert not ok


class TestEquivalentSerialOrder:
    def test_order_respects_reads_from(self):
        history = history_of(
            HistoryTxn("t1", writes=(A,)),
            HistoryTxn("t2", reads=((A, "t1"),)),
        )
        order = equivalent_serial_order(history)
        assert order.index("t1") < order.index("t2")

    def test_raises_on_cycle(self):
        history = history_of(
            HistoryTxn("t1", reads=((A, None),), writes=(B,)),
            HistoryTxn("t2", reads=((B, None),), writes=(A,)),
        )
        with pytest.raises(ValueError):
            equivalent_serial_order(history)

    def test_witness_order_replays_identically(self):
        history = history_of(
            HistoryTxn("t1", writes=(A,)),
            HistoryTxn("t2", reads=((A, "t1"),), writes=(B,)),
            HistoryTxn("t3", reads=((B, "t2"), (A, "t1"))),
        )
        from repro.serializability.history import serial_reads_from

        order = equivalent_serial_order(history)
        txns = [history.transactions[tid] for tid in order]
        replayed = serial_reads_from(txns)
        for tid, txn in history.transactions.items():
            assert replayed[tid] == txn.reads_map()


class TestBruteForce:
    def test_cap_enforced(self):
        history = history_of(
            *[HistoryTxn(f"t{i}", writes=(A,)) for i in range(9)]
        )
        with pytest.raises(ValueError):
            brute_force_one_copy_serializable(history)
