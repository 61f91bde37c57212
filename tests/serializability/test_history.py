"""Tests for history construction and validation."""

from dataclasses import replace

import pytest

from repro.errors import HistoryError
from repro.serializability.history import (
    INITIAL,
    HistoryTxn,
    MVHistory,
    serial_reads_from,
)
from tests.helpers import entry, txn

A = ("row0", "a")
B = ("row0", "b")


class TestValidation:
    def test_duplicate_tid_rejected(self):
        history = MVHistory()
        history.add(HistoryTxn("t1"))
        with pytest.raises(HistoryError):
            history.add(HistoryTxn("t1"))

    def test_read_from_unknown_writer_rejected(self):
        history = MVHistory()
        history.add(HistoryTxn("t1", reads=((A, "ghost"),)))
        with pytest.raises(HistoryError):
            history.validate()

    def test_read_from_non_writer_rejected(self):
        history = MVHistory()
        history.add(HistoryTxn("t1", writes=frozenset({B})))
        history.add(HistoryTxn("t2", reads=((A, "t1"),)))
        history.version_order[B] = ["t1"]
        with pytest.raises(HistoryError):
            history.validate()

    def test_version_order_must_cover_all_writers(self):
        history = MVHistory()
        history.add(HistoryTxn("t1", writes=frozenset({A})))
        with pytest.raises(HistoryError):
            history.validate()

    def test_valid_history_passes(self):
        history = MVHistory()
        history.add(HistoryTxn("t1", writes=frozenset({A})))
        history.add(HistoryTxn("t2", reads=((A, "t1"),)))
        history.version_order[A] = ["t1"]
        history.validate()

    def test_version_index(self):
        history = MVHistory()
        history.add(HistoryTxn("t1", writes=frozenset({A})))
        history.add(HistoryTxn("t2", writes=frozenset({A})))
        history.version_order[A] = ["t1", "t2"]
        assert history.version_index(A, INITIAL) == 0
        assert history.version_index(A, "t1") == 1
        assert history.version_index(A, "t2") == 2


class TestSerialReadsFrom:
    def test_serial_execution_tracks_last_writer(self):
        t1 = HistoryTxn("t1", writes=frozenset({A}))
        t2 = HistoryTxn("t2", reads=((A, None),), writes=frozenset({A}))
        t3 = HistoryTxn("t3", reads=((A, None),))
        result = serial_reads_from([t1, t2, t3])
        assert result["t1"] == {}
        assert result["t2"] == {A: "t1"}
        assert result["t3"] == {A: "t2"}

    def test_initial_reads(self):
        t1 = HistoryTxn("t1", reads=((A, None),))
        assert serial_reads_from([t1])["t1"] == {A: INITIAL}


class TestFromLog:
    def test_reads_attributed_to_writers_by_value(self):
        t1 = txn("t1", reads={"a": "init"}, writes={"a": "v1"}, read_position=0)
        t2 = txn("t2", reads={"a": "v1"}, writes={"a": "v2"}, read_position=1)
        history = MVHistory.from_log(
            {1: entry(t1), 2: entry(t2)},
            initial_image={A: "init"},
        )
        assert history.transactions["t1"].reads == ((A, INITIAL),)
        assert history.transactions["t2"].reads == ((A, "t1"),)
        assert history.version_order[A] == ["t1", "t2"]

    def test_unattributable_read_rejected(self):
        t1 = txn("t1", reads={"a": "phantom"}, writes={"b": 1})
        with pytest.raises(HistoryError):
            MVHistory.from_log({1: entry(t1)}, initial_image={A: "init"})

    def test_combined_entries_expand_in_order(self):
        t1 = txn("t1", writes={"a": "v1"}, read_position=0)
        t2 = txn("t2", reads={"b": "init"}, writes={"b": "v2"}, read_position=0)
        history = MVHistory.from_log(
            {1: entry(t1, t2)},
            initial_image={A: "init", B: "init"},
        )
        assert set(history.tids()) == {"t1", "t2"}
        assert history.version_order[A] == ["t1"]
        assert history.version_order[B] == ["t2"]

    def test_future_read_attributed_for_bug_detection(self):
        """A read of a later position's value must still build (the MVSG
        test then reports the cycle, rather than from_log masking the bug)."""
        t1 = txn("t1", reads={"a": "v2"}, writes={"b": 1}, read_position=0)
        t2 = txn("t2", writes={"a": "v2"}, read_position=1)
        history = MVHistory.from_log(
            {1: entry(t1), 2: entry(t2)},
            initial_image={A: "init"},
        )
        assert history.transactions["t1"].reads == ((A, "t2"),)

    def test_item_written_twice_in_one_transaction_is_one_version(self):
        t1 = replace(
            txn("t1", writes={"b": 1}),
            writes=((A, "v1"), (B, 1), (A, "v2")),
        )
        t2 = txn("t2", reads={"a": "v2"}, writes={"a": "v3"}, read_position=1)
        history = MVHistory.from_log(
            {1: entry(t1), 2: entry(t2)},
            initial_image={A: "init"},
        )
        assert history.version_order == {A: ["t1", "t2"], B: ["t1"]}
        history.validate()
