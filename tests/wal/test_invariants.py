"""Tests for the (L1)–(L3)/(R1) checkers: they must catch planted bugs."""

import pytest

from repro.kvstore.store import MultiVersionStore
from repro.model import AbortReason
from repro.wal.invariants import (
    InvariantViolation,
    check_l1_only_committed,
    check_l2_single_position,
    check_l3_prefix_serializable,
    check_r1_replica_agreement,
    check_read_only_consistency,
    global_log,
    run_all_checks,
)
from repro.wal.log import LogReplica
from tests.helpers import aborted, committed, entry, txn


#: None of these logs holds a queue_apply entry, so none has a shadow.
NO_SHADOWS: set[int] = set()


def make_replicas(n=3):
    return [LogReplica(MultiVersionStore(f"s{i}"), "g") for i in range(n)]


class TestR1:
    def test_agreeing_replicas_pass(self):
        replicas = make_replicas()
        e = entry(txn("t1", writes={"a": 1}))
        for replica in replicas:
            replica.record_chosen(1, e)
        assert check_r1_replica_agreement(replicas) == []

    def test_partial_knowledge_is_fine(self):
        replicas = make_replicas()
        e = entry(txn("t1", writes={"a": 1}))
        replicas[0].record_chosen(1, e)  # others missed the APPLY
        assert check_r1_replica_agreement(replicas) == []

    def test_divergent_values_flagged(self):
        replicas = make_replicas()
        replicas[0].record_chosen(1, entry(txn("t1", writes={"a": 1})))
        replicas[1].record_chosen(1, entry(txn("t2", writes={"a": 2})))
        violations = check_r1_replica_agreement(replicas)
        assert len(violations) == 1
        assert "(R1)" in violations[0]


class TestL1:
    def test_committed_and_logged_passes(self):
        replicas = make_replicas()
        t = txn("t1", writes={"a": 1})
        replicas[0].record_chosen(1, entry(t))
        assert check_l1_only_committed(global_log(replicas), [committed(t, 1)]) == []

    def test_committed_but_missing_flagged(self):
        replicas = make_replicas()
        t = txn("t1", writes={"a": 1})
        violations = check_l1_only_committed(global_log(replicas), [committed(t, 1)])
        assert any("absent from the log" in v for v in violations)

    def test_read_only_commit_never_logged_is_fine(self):
        replicas = make_replicas()
        t = txn("t1", reads={"a": 0})
        assert check_l1_only_committed(global_log(replicas), [committed(t)]) == []

    def test_aborted_but_logged_flagged(self):
        replicas = make_replicas()
        t = txn("t1", writes={"a": 1})
        replicas[0].record_chosen(1, entry(t))
        violations = check_l1_only_committed(
            global_log(replicas), [aborted(t, AbortReason.LOST_POSITION)]
        )
        assert any("present in the log" in v for v in violations)


class TestL2:
    def test_each_transaction_once_passes(self):
        replicas = make_replicas()
        replicas[0].record_chosen(1, entry(txn("t1", writes={"a": 1})))
        replicas[0].record_chosen(2, entry(txn("t2", writes={"a": 2})))
        assert check_l2_single_position(global_log(replicas), NO_SHADOWS) == []

    def test_same_transaction_twice_flagged(self):
        replicas = make_replicas()
        t = txn("t1", writes={"a": 1})
        replicas[0].record_chosen(1, entry(t))
        replicas[1].record_chosen(2, entry(t))
        violations = check_l2_single_position(global_log(replicas), NO_SHADOWS)
        assert any("(L2)" in v for v in violations)


class TestL3:
    def test_consistent_replay_passes(self):
        replicas = make_replicas()
        t1 = txn("t1", reads={"a": "init"}, writes={"a": "v1"}, read_position=0)
        t2 = txn("t2", reads={"a": "v1"}, writes={"a": "v2"}, read_position=1)
        replicas[0].record_chosen(1, entry(t1))
        replicas[0].record_chosen(2, entry(t2))
        violations = check_l3_prefix_serializable(
            global_log(replicas), NO_SHADOWS, {("row0", "a"): "init"}
        )
        assert violations == []

    def test_stale_read_flagged(self):
        replicas = make_replicas()
        t1 = txn("t1", writes={"a": "v1"}, read_position=0)
        # t2 claims to have read the initial value although t1 overwrote it.
        t2 = txn("t2", reads={"a": "init"}, writes={"b": 1}, read_position=1)
        replicas[0].record_chosen(1, entry(t1))
        replicas[0].record_chosen(2, entry(t2))
        violations = check_l3_prefix_serializable(
            global_log(replicas), NO_SHADOWS, {("row0", "a"): "init"}
        )
        assert any("one-copy state" in v for v in violations)

    def test_gap_flagged(self):
        replicas = make_replicas()
        replicas[0].record_chosen(2, entry(txn("t2", writes={"a": 1})))
        violations = check_l3_prefix_serializable(global_log(replicas), NO_SHADOWS, {})
        assert any("gap" in v for v in violations)

    def test_read_position_at_or_after_commit_flagged(self):
        replicas = make_replicas()
        t = txn("t1", writes={"a": 1}, read_position=1)
        replicas[0].record_chosen(1, entry(t))
        violations = check_l3_prefix_serializable(global_log(replicas), NO_SHADOWS, {})
        assert any("read_position" in v for v in violations)

    def test_combined_entry_members_replay_in_order(self):
        replicas = make_replicas()
        t1 = txn("t1", writes={"a": "v1"}, read_position=0)
        t2 = txn("t2", reads={"b": "init"}, writes={"b": "v2"}, read_position=0)
        replicas[0].record_chosen(1, entry(t1, t2))
        violations = check_l3_prefix_serializable(
            global_log(replicas), NO_SHADOWS,
            {("row0", "a"): "init", ("row0", "b"): "init"},
        )
        assert violations == []


class TestReadOnly:
    def test_consistent_snapshot_passes(self):
        replicas = make_replicas()
        t1 = txn("t1", writes={"a": "v1"}, read_position=0)
        replicas[0].record_chosen(1, entry(t1))
        ro = txn("ro", reads={"a": "v1"}, read_position=1)
        violations = check_read_only_consistency(
            global_log(replicas), NO_SHADOWS, [committed(ro)], {("row0", "a"): "init"}
        )
        assert violations == []

    def test_initial_snapshot_at_position_zero(self):
        replicas = make_replicas()
        ro = txn("ro", reads={"a": "init"}, read_position=0)
        violations = check_read_only_consistency(
            global_log(replicas), NO_SHADOWS, [committed(ro)], {("row0", "a"): "init"}
        )
        assert violations == []

    def test_torn_snapshot_flagged(self):
        replicas = make_replicas()
        t1 = txn("t1", writes={"a": "v1", "b": "v1"}, read_position=0)
        replicas[0].record_chosen(1, entry(t1))
        # Claims read position 1 but saw a mix of old and new values.
        ro = txn("ro", reads={"a": "v1", "b": "init"}, read_position=1)
        violations = check_read_only_consistency(
            global_log(replicas), NO_SHADOWS, [committed(ro)],
            {("row0", "a"): "init", ("row0", "b"): "init"},
        )
        assert any("(RO)" in v for v in violations)

    def test_future_read_position_flagged(self):
        replicas = make_replicas()
        ro = txn("ro", reads={"a": "init"}, read_position=5)
        violations = check_read_only_consistency(
            global_log(replicas), NO_SHADOWS, [committed(ro)], {("row0", "a"): "init"}
        )
        assert any("beyond" in v for v in violations)


class TestRunAll:
    def test_clean_state_passes(self):
        replicas = make_replicas()
        t = txn("t1", reads={"a": "init"}, writes={"a": "v1"})
        for replica in replicas:
            replica.record_chosen(1, entry(t))
        run_all_checks(
            global_log(replicas), replicas, [committed(t, 1)],
            {("row0", "a"): "init"}, {},
        )

    def test_violation_raises_with_details(self):
        replicas = make_replicas()
        t = txn("t1", writes={"a": 1})
        with pytest.raises(InvariantViolation) as info:
            run_all_checks(global_log(replicas), replicas, [committed(t, 1)], {}, {})
        assert "absent" in str(info.value)

    def test_global_log_merges_replicas(self):
        replicas = make_replicas()
        first = entry(txn("t1", writes={"a": 1}))
        second = entry(txn("t2", writes={"a": 2}))
        replicas[0].record_chosen(1, first)
        replicas[2].record_chosen(2, second)
        assert global_log(replicas) == {1: first, 2: second}
