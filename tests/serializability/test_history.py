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
        history.add(HistoryTxn("t1", writes=(B,)))
        history.add(HistoryTxn("t2", reads=((A, "t1"),)))
        history.version_order[B] = ["t1"]
        with pytest.raises(HistoryError):
            history.validate()

    def test_version_order_must_cover_all_writers(self):
        history = MVHistory()
        history.add(HistoryTxn("t1", writes=(A,)))
        with pytest.raises(HistoryError):
            history.validate()

    def test_valid_history_passes(self):
        history = MVHistory()
        history.add(HistoryTxn("t1", writes=(A,)))
        history.add(HistoryTxn("t2", reads=((A, "t1"),)))
        history.version_order[A] = ["t1"]
        history.validate()

    def test_version_index(self):
        history = MVHistory()
        history.add(HistoryTxn("t1", writes=(A,)))
        history.add(HistoryTxn("t2", writes=(A,)))
        history.version_order[A] = ["t1", "t2"]
        assert history.version_index(A, INITIAL) == 0
        assert history.version_index(A, "t1") == 1
        assert history.version_index(A, "t2") == 2


class TestSerialReadsFrom:
    def test_serial_execution_tracks_last_writer(self):
        t1 = HistoryTxn("t1", writes=(A,))
        t2 = HistoryTxn("t2", reads=((A, None),), writes=(A,))
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


class TestFromLogFallback:
    """A read the pin does not explain goes to the *latest* writer of its
    value anywhere in the log, so the MVSG test sees the anomaly."""

    def test_future_read_goes_to_the_latest_of_two_later_writers(self):
        reader = txn("r", reads={"a": "v"}, writes={"b": 1}, read_position=0)
        history = MVHistory.from_log(
            {
                1: entry(reader),
                2: entry(txn("t2", writes={"a": "v"}, read_position=1)),
                3: entry(txn("t3", writes={"a": "v"}, read_position=2)),
            },
            initial_image={A: "init"},
        )
        assert history.transactions["r"].reads == ((A, "t3"),)

    def test_stale_read_goes_to_the_latest_writer_of_its_value(self):
        reader = txn("r", reads={"a": "x"}, writes={"b": 1}, read_position=3)
        history = MVHistory.from_log(
            {
                1: entry(txn("t1", writes={"a": "x"}, read_position=0)),
                2: entry(txn("t2", writes={"a": "x"}, read_position=1)),
                3: entry(txn("t3", writes={"a": "y"}, read_position=2)),
                4: entry(reader),
            },
            initial_image={A: "init"},
        )
        assert history.transactions["r"].reads == ((A, "t2"),)

    def test_overwritten_value_goes_to_the_transaction_that_wrote_it(self):
        """Only a transaction's last write of an item is its version, yet a
        read of an earlier one still names it rather than failing."""
        twice = replace(
            txn("t1", writes={"b": 1}),
            writes=((A, "first"), (A, "second")),
        )
        reader = txn("r", reads={"a": "first"}, read_position=1)
        history = MVHistory.from_log(
            {1: entry(twice), 2: entry(txn("t2", writes={"a": "x"})), 3: entry(reader)},
            initial_image={A: "init"},
        )
        assert history.transactions["r"].reads == ((A, "t1"),)
        assert history.transactions["t1"].writes == (A,)

    def test_unattributable_read_keeps_its_message(self):
        reader = txn("r", reads={"a": "phantom"}, writes={"b": 1}, read_position=1)
        with pytest.raises(HistoryError) as raised:
            MVHistory.from_log(
                {1: entry(txn("t1", writes={"a": "v1"})), 2: entry(reader)},
                initial_image={A: "init"},
            )
        assert str(raised.value) == (
            "r read ('row0', 'a')='phantom', which no committed transaction "
            "wrote and is not initial"
        )
