"""Tests for the anomaly classifier on hand-doctored histories.

The classifier (:func:`repro.serializability.checker.classify_anomalies`)
names each non-serializable phenomenon instead of failing the run — the
snapshot-isolation axis depends on it.  Real SI runs only ever manufacture
write skew (read-only transactions are never logged, §3.2), so the
read-only anomaly and the unnamed-cycle fallback are exercised here on
hand-built histories.
"""

from repro.serializability.checker import (
    classify_anomalies,
    is_one_copy_serializable,
)
from repro.serializability.history import HistoryTxn, MVHistory

X = ("row0", "x")
Y = ("row0", "y")
Z = ("row0", "z")
P = ("row1", "p")
Q = ("row1", "q")
S = ("row1", "s")
T = ("row1", "t")


def history_of(*txns):
    history = MVHistory()
    for t in txns:
        history.add(t)
    # List order defines version order.
    for t in txns:
        for item in t.writes:
            history.version_order.setdefault(item, []).append(t.tid)
    return history


class TestWriteSkew:
    def history(self):
        # The canonical pair: each reads the initial version of the item
        # the other writes.  No write-write conflict, so first-committer-
        # wins admits both — and the MVSG closes a pure rw/rw 2-cycle.
        return history_of(
            HistoryTxn("t1", reads=((X, None),), writes=(Y,)),
            HistoryTxn("t2", reads=((Y, None),), writes=(X,)),
        )

    def test_classified_as_write_skew(self):
        report = classify_anomalies(self.history())
        assert not report.serializable
        assert report.counts() == {"write_skew": 1}
        (anomaly,) = report.anomalies
        assert anomaly.kind == "write_skew"
        assert anomaly.cycle == ("t1", "t2")

    def test_description_is_byte_stable(self):
        # The description is an artifact operators diff across runs; pin it.
        (anomaly,) = classify_anomalies(self.history()).anomalies
        assert anomaly.description == (
            "write skew: t1 and t2 overwrote each other's snapshot reads "
            "(t2 overwrote t1's read of [('row0', 'x')], "
            "t1 overwrote t2's read of [('row0', 'y')])"
        )

    def test_deterministic_across_calls(self):
        first = classify_anomalies(self.history())
        second = classify_anomalies(self.history())
        assert first == second


class TestReadOnlyAnomaly:
    def history(self):
        # Fekete et al.'s surprise: the two writers serialize fine
        # (t2 before t1), but the read-only t3 saw t1's write while missing
        # t2's — a snapshot no serial order of the three explains.
        return history_of(
            HistoryTxn("t1", reads=((Y, None),), writes=(Y,)),
            HistoryTxn("t2", reads=((X, None), (Y, None)),
                       writes=(X,)),
            HistoryTxn("t3", reads=((X, None), (Y, "t1"))),
        )

    def test_writers_alone_are_serializable(self):
        writers_only = history_of(
            HistoryTxn("t1", reads=((Y, None),), writes=(Y,)),
            HistoryTxn("t2", reads=((X, None), (Y, None)),
                       writes=(X,)),
        )
        ok, _ = is_one_copy_serializable(writers_only)
        assert ok

    def test_classified_as_read_only_anomaly(self):
        report = classify_anomalies(self.history())
        assert report.counts() == {"read_only_anomaly": 1}
        (anomaly,) = report.anomalies
        assert anomaly.cycle[0] == "t3"
        assert "t3 wrote nothing" in anomaly.description
        assert "t3 -> t2 -> t1 -> t3" in anomaly.description

    def test_equal_length_cycles_pick_the_least(self):
        # t0 misses t1's write of x but sees t3's and t2's writes, each
        # made after reading one of t1's: two 3-cycles through the reader,
        # t0 -> t1 -> t3 -> t0 and t0 -> t1 -> t2 -> t0.  The least one is
        # reported, whatever order the transactions were added in.
        history = history_of(
            HistoryTxn("t0", reads=((X, None), (S, "t3"), (T, "t2"))),
            HistoryTxn("t1", writes=(X, P, Q)),
            HistoryTxn("t3", reads=((P, "t1"),), writes=(S,)),
            HistoryTxn("t2", reads=((Q, "t1"),), writes=(T,)),
        )
        (anomaly,) = classify_anomalies(history).anomalies
        assert anomaly.kind == "read_only_anomaly"
        assert anomaly.cycle == ("t0", "t1", "t2")
        assert anomaly.description == (
            "read-only anomaly: t0 wrote nothing yet observed a snapshot no "
            "serial order explains (cycle t0 -> t1 -> t2 -> t0)"
        )


class TestOtherCycles:
    def test_three_way_skew_falls_back_to_other(self):
        # A 3-cycle of anti-dependencies with no mutual pair and no
        # read-only member: real, non-serializable, but unnamed.
        history = history_of(
            HistoryTxn("t1", reads=((X, None),), writes=(Y,)),
            HistoryTxn("t2", reads=((Y, None),), writes=(Z,)),
            HistoryTxn("t3", reads=((Z, None),), writes=(X,)),
        )
        report = classify_anomalies(history)
        assert report.counts() == {"other": 1}
        (anomaly,) = report.anomalies
        # The shortest cycle through the component's least member.
        assert anomaly.cycle == ("t1", "t3", "t2")
        assert anomaly.description == (
            "non-serializable cycle with no named pattern: "
            "t1 -> t3 -> t2 -> t1"
        )


class TestAgreementWithPassFailChecker:
    def cases(self):
        clean_chain = history_of(
            HistoryTxn("t1", writes=(X,)),
            HistoryTxn("t2", reads=((X, "t1"),), writes=(X,)),
            HistoryTxn("t3", reads=((X, "t2"),)),
        )
        disjoint = history_of(
            HistoryTxn("t1", writes=(X,)),
            HistoryTxn("t2", writes=(Y,)),
        )
        skew = history_of(
            HistoryTxn("t1", reads=((X, None),), writes=(Y,)),
            HistoryTxn("t2", reads=((Y, None),), writes=(X,)),
        )
        torn = history_of(
            HistoryTxn("t2", writes=(Y,)),
            HistoryTxn("t1", reads=((Y, "t2"),), writes=(X,)),
            HistoryTxn("t3", reads=((X, "t1"), (Y, None))),
        )
        return [MVHistory(), clean_chain, disjoint, skew, torn]

    def test_empty_report_iff_one_copy_serializable(self):
        for history in self.cases():
            ok, _ = is_one_copy_serializable(history)
            report = classify_anomalies(history)
            assert report.serializable == ok
            assert bool(report.counts()) != ok

    def test_clean_histories_report_nothing(self):
        report = classify_anomalies(MVHistory())
        assert report.serializable
        assert report.anomalies == ()
        assert report.counts() == {}
