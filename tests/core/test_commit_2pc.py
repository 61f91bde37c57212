"""The cross-group 2PC coordinator: prepare/decide/complete over group logs."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.config import ClusterConfig, PlacementConfig, StoreConfig
from repro.core.client import MultiGroupHandle
from repro.core.commit_2pc import TwoPhaseCommit, branch_tid
from repro.errors import TransactionStateError
from repro.kvstore.txnstatus import TxnStatusTable, decision_group
from repro.model import CROSS_GROUP, AbortReason, TransactionStatus


def sharded_cluster(n_groups: int = 4, seed: int = 0) -> Cluster:
    cluster = Cluster(ClusterConfig(
        cluster_code="VVV", seed=seed,
        store=StoreConfig.instant(), jitter=0.0,
        placement=PlacementConfig(
            n_groups=n_groups, assignment="range", key_universe=n_groups,
        ),
    ))
    cluster.preload_placed({
        f"row{index}": {"a0": f"init{index}"} for index in range(n_groups)
    })
    return cluster


def run(cluster: Cluster, generator):
    process = cluster.env.process(generator)
    cluster.run()
    return process.value


def read_row(cluster: Cluster, row: str, protocol: str = "paxos"):
    client = cluster.add_client("V2", protocol=protocol)

    def app():
        handle = yield from client.begin(key=row)
        value = yield from client.read(handle, row, "a0")
        return value

    return run(cluster, app())


class TestCrossGroupCommit:
    def test_two_group_transfer_commits_atomically(self):
        cluster = sharded_cluster()
        client = cluster.add_client("V1", protocol="paxos-cp")

        def app():
            handle = yield from client.begin()
            yield from client.read(handle, "row0", "a0")
            yield from client.read(handle, "row3", "a0")
            client.write(handle, "row0", "a0", "x0")
            client.write(handle, "row3", "a0", "x3")
            outcome = yield from client.commit(handle)
            return outcome

        outcome = run(cluster, app())
        assert outcome.status is TransactionStatus.COMMITTED
        assert outcome.transaction.group == CROSS_GROUP
        assert outcome.transaction.groups == ("group-0", "group-3")
        assert set(outcome.extra["prepare_positions"]) == {"group-0", "group-3"}
        cluster.check_invariants_all([outcome], cluster.settle())
        assert read_row(cluster, "row0") == "x0"
        assert read_row(cluster, "row3") == "x3"

    def test_prepare_entries_and_markers_reach_every_participant_log(self):
        cluster = sharded_cluster()
        client = cluster.add_client("V1", protocol="paxos")

        def app():
            handle = yield from client.begin()
            client.write(handle, "row1", "a0", "w1")
            client.write(handle, "row2", "a0", "w2")
            outcome = yield from client.commit(handle)
            return outcome

        outcome = run(cluster, app())
        assert outcome.committed
        gtid = outcome.transaction.tid
        logs = cluster.finalize_all()
        for group in ("group-1", "group-2"):
            kinds = {entry.kind for entry in logs[group].values()}
            assert kinds == {"prepare", "commit"}
            prepare = logs[group][1]
            assert prepare.gtid == gtid
            assert prepare.participants == ("group-1", "group-2")
            assert prepare.transactions[0].tid == branch_tid(gtid, group)
        # The decision is durable in every datacenter's status table.
        for store in cluster.stores.values():
            record = TxnStatusTable(store).get(gtid)
            assert record is not None and record.committed

    def test_lost_prepare_aborts_all_groups(self):
        cluster = sharded_cluster(seed=5)
        cross = cluster.add_client("V1", protocol="paxos-cp")
        rival = cluster.add_client("V2", protocol="paxos-cp")

        def app():
            handle = yield from cross.begin()
            yield from cross.read(handle, "row0", "a0")  # pins group-0
            # A rival slips into group-0 between our pin and our prepare.
            rh = yield from rival.begin(key="row0")
            yield from rival.read(rh, "row0", "a0")
            rival.write(rh, "row0", "a0", "sneak")
            rival_outcome = yield from rival.commit(rh)
            assert rival_outcome.committed
            cross.write(handle, "row0", "a0", "mine0")
            cross.write(handle, "row2", "a0", "mine2")
            outcome = yield from cross.commit(handle)
            return outcome

        outcome = run(cluster, app())
        assert outcome.status is TransactionStatus.ABORTED
        assert outcome.abort_reason is AbortReason.PREPARE_FAILED
        decisions = cluster.cross_group_decisions()
        assert decisions == {outcome.transaction.tid: False}
        cluster.check_invariants_all([outcome], cluster.settle())
        # Nothing leaked into group-2 even though its prepare was chosen.
        assert read_row(cluster, "row2") == "init2"
        assert read_row(cluster, "row0") == "sneak"

    def test_single_group_handle_takes_the_existing_commit_path(self):
        cluster = sharded_cluster()
        client = cluster.add_client("V1", protocol="paxos-cp")

        def app():
            handle = yield from client.begin()
            assert isinstance(handle, MultiGroupHandle)
            yield from client.read(handle, "row1", "a0")
            client.write(handle, "row1", "a0", "solo")
            outcome = yield from client.commit(handle)
            return outcome

        outcome = run(cluster, app())
        assert outcome.committed
        # An ordinary single-group transaction record and log entry — no
        # gtid, no prepare, no decision instance anywhere.
        assert outcome.transaction.group == "group-1"
        assert outcome.transaction.groups == ()
        log = cluster.finalize("group-1")
        assert [entry.kind for entry in log.values()] == ["data"]
        assert cluster.cross_group_decisions() == {}
        for store in cluster.stores.values():
            assert not any(key.startswith("_txn") for key in store.keys())

    def test_untouched_handle_commits_read_only(self):
        cluster = sharded_cluster()
        client = cluster.add_client("V1")

        def app():
            handle = yield from client.begin()
            outcome = yield from client.commit(handle)
            return outcome

        outcome = run(cluster, app())
        assert outcome.committed
        assert outcome.transaction.is_read_only

    def test_read_only_cross_group_still_prepares(self):
        # Cross-group reads need prepare-based validation for *global* 1SR;
        # they are not free the way single-group read-only commits are.
        cluster = sharded_cluster()
        client = cluster.add_client("V1")

        def app():
            handle = yield from client.begin()
            yield from client.read(handle, "row0", "a0")
            yield from client.read(handle, "row1", "a0")
            outcome = yield from client.commit(handle)
            return outcome

        outcome = run(cluster, app())
        assert outcome.committed
        logs = cluster.finalize_all()
        assert logs["group-0"][1].kind == "prepare"
        assert logs["group-1"][1].kind == "prepare"
        cluster.check_invariants_all([outcome], cluster.settle())

    def test_write_only_groups_pin_at_commit_time(self):
        cluster = sharded_cluster()
        client = cluster.add_client("V1")

        def app():
            handle = yield from client.begin()
            client.write(handle, "row0", "a0", "blind0")
            client.write(handle, "row2", "a0", "blind2")
            assert not handle.handles["group-0"].pinned
            assert not handle.handles["group-2"].pinned
            outcome = yield from client.commit(handle)
            return outcome, handle

        outcome, handle = run(cluster, app())
        assert outcome.committed
        assert handle.handles["group-0"].pinned
        assert handle.handles["group-2"].pinned
        assert read_row(cluster, "row0") == "blind0"

    def test_read_own_write_needs_no_pin(self):
        cluster = sharded_cluster()
        client = cluster.add_client("V1")

        def app():
            handle = yield from client.begin()
            client.write(handle, "row0", "a0", "buffered")
            value = yield from client.read(handle, "row0", "a0")
            # A1 served from the buffer: the group must still be unpinned.
            assert not handle.handles["group-0"].pinned
            return value

        assert run(cluster, app()) == "buffered"

    def test_cross_group_needs_paxos_protocol(self):
        cluster = sharded_cluster()
        client = cluster.add_client("V1", protocol="leased-leader")

        def app():
            handle = yield from client.begin()
            client.write(handle, "row0", "a0", "x")
            client.write(handle, "row1", "a0", "y")
            try:
                yield from client.commit(handle)
            except TransactionStateError as error:
                return error
            return None

        error = run(cluster, app())
        assert isinstance(error, TransactionStateError)


class TestRecovery:
    def _crash_between_prepare_and_decide(self, cluster, monkeypatch):
        """A coordinator whose decide phase never happens."""
        def hang(self, gtid, participants, commit):
            yield self.client.env.event()  # pragma: no cover - never fires

        monkeypatch.setattr(TwoPhaseCommit, "decide", hang)
        client = cluster.add_client("V1")

        def app():
            handle = yield from client.begin()
            yield from client.read(handle, "row1", "a0")
            client.write(handle, "row1", "a0", "w1")
            client.write(handle, "row3", "a0", "w3")
            yield from client.commit(handle)

        return cluster.env.process(app())

    def test_crash_between_prepare_and_decide_aborts_all_or_nothing(
        self, monkeypatch
    ):
        cluster = sharded_cluster(seed=7)
        process = self._crash_between_prepare_and_decide(cluster, monkeypatch)
        cluster.run()
        assert process.is_alive  # stuck exactly between prepare and decide
        logs = cluster.finalize_all()
        prepares = [
            entry for log in logs.values() for entry in log.values()
            if entry.kind == "prepare"
        ]
        assert len(prepares) == 2
        assert cluster.cross_group_decisions() == {}
        decisions = cluster.recover_cross_group(logs)
        gtid = prepares[0].gtid
        assert decisions == {gtid: False}
        cluster.check_cross_group_invariants([], logs, decisions)
        # No participant applied the branch: presumed abort, everywhere.
        assert read_row(cluster, "row1") == "init1"
        assert read_row(cluster, "row3") == "init3"

    def test_recovery_is_idempotent_and_marks_status_rows(self, monkeypatch):
        cluster = sharded_cluster(seed=8)
        self._crash_between_prepare_and_decide(cluster, monkeypatch)
        cluster.run()
        first = cluster.recover_cross_group(cluster.finalize_all())
        second = cluster.recover_cross_group(cluster.finalize_all())
        assert first == second
        (gtid,) = first
        for store in cluster.stores.values():
            record = TxnStatusTable(store).get(gtid)
            assert record is not None and not record.committed

    def test_in_doubt_positions_block_pinned_reads_until_resolved(
        self, monkeypatch
    ):
        """A read pinned at (or past) an unresolved prepare cannot be served
        — 2PC's blocking window — and resolves once recovery decides."""
        cluster = sharded_cluster(seed=10)
        self._crash_between_prepare_and_decide(cluster, monkeypatch)
        cluster.run()

        from repro.errors import ServiceUnavailable

        reader = cluster.add_client("V2")

        def blocked():
            handle = yield from reader.begin(key="row1")
            assert handle.read_position == 1  # pinned at the in-doubt prepare
            try:
                yield from reader.read(handle, "row1", "a0")
            except ServiceUnavailable as error:
                return error
            return None

        process = cluster.env.process(blocked())
        cluster.run()
        assert isinstance(process.value, ServiceUnavailable)

        cluster.recover_cross_group(cluster.finalize_all())
        assert read_row(cluster, "row1") == "init1"

    def test_recovery_adopts_split_ballot_commit_votes(self):
        """A COMMIT accepted at *different* ballots on different replicas is
        not a single-ballot majority, but it may still be chosen (the first
        accept round's replies were simply lost).  Recovery must complete
        the instance with that surviving vote — never presume-abort over
        it, which could flip a decision a reader already observed."""
        from repro.paxos.ballot import Ballot
        from repro.wal.entry import LogEntry
        from repro.wal.log import ATTR_BALLOT, ATTR_NEXT_BAL, ATTR_VALUE, paxos_row_key

        from repro.core.client import TransactionHandle
        from repro.core.commit_2pc import build_branch

        cluster = sharded_cluster(seed=12)
        gtid = "cli:V1:1#1"
        participants = ("group-0", "group-1")
        # Both prepares chosen in their group logs...
        for group in participants:
            handle = TransactionHandle(
                group=group, read_position=0, leader_dc="V1", begin_time=0.0,
            )
            entry = LogEntry.prepare(
                build_branch(gtid, group, handle, participants, "cli", "V1"),
                gtid, participants,
            )
            for dc in cluster.topology.names:
                cluster.services[dc].replica(group).record_chosen(1, entry)
        # ...and the COMMIT decision accepted at split ballots: V1 voted at
        # round 1, V2 at round 2, V3 never voted — no single-ballot
        # majority, yet (round 1 on a lost-reply quorum) possibly chosen.
        commit_marker = LogEntry.marker(True, gtid, participants)
        row_key = paxos_row_key(decision_group(gtid), 1)
        for dc, round_number in (("V1", 1), ("V2", 2)):
            ballot = Ballot(round_number, f"2pc:{gtid}:cli")
            cluster.stores[dc].write(row_key, {
                ATTR_NEXT_BAL: ballot, ATTR_BALLOT: ballot,
                ATTR_VALUE: commit_marker, "seq": 1,
            })

        assert cluster.cross_group_decisions() == {}
        logs = cluster.finalize_all()
        decisions = cluster.recover_cross_group(logs)
        assert decisions == {gtid: True}, "recovery flipped a surviving COMMIT"
        cluster.check_cross_group_invariants([], logs, decisions)

    def test_recovery_cannot_override_a_durable_commit(self):
        cluster = sharded_cluster(seed=9)
        client = cluster.add_client("V1")

        def app():
            handle = yield from client.begin()
            client.write(handle, "row0", "a0", "x0")
            client.write(handle, "row1", "a0", "x1")
            outcome = yield from client.commit(handle)
            return outcome

        outcome = run(cluster, app())
        assert outcome.committed
        decisions = cluster.recover_cross_group(cluster.finalize_all())
        assert decisions == {outcome.transaction.tid: True}


class TestDecisionInstance:
    def test_decision_is_a_paxos_value_in_every_store(self):
        cluster = sharded_cluster()
        client = cluster.add_client("V1")

        def app():
            handle = yield from client.begin()
            client.write(handle, "row0", "a0", "x")
            client.write(handle, "row1", "a0", "y")
            outcome = yield from client.commit(handle)
            return outcome

        outcome = run(cluster, app())
        gtid = outcome.transaction.tid
        instance = decision_group(gtid)
        for dc in cluster.topology.names:
            entry = cluster.services[dc].replica(instance).chosen_entry(1)
            assert entry is not None and entry.kind == "commit"
            assert entry.gtid == gtid


@pytest.mark.parametrize("protocol", ["paxos", "paxos-cp"])
def test_concurrent_single_group_traffic_stays_serializable(protocol):
    """2PC prepares interleave with ordinary commits in the same groups."""
    cluster = sharded_cluster(seed=11)
    cross = cluster.add_client("V1", protocol=protocol)
    solo = cluster.add_client("V3", protocol=protocol)
    outcomes = []

    def cross_app():
        for _round in range(3):
            handle = yield from cross.begin()
            yield from cross.read(handle, "row0", "a0")
            cross.write(handle, "row0", "a0", f"x@{cross.env.now:.1f}")
            cross.write(handle, "row2", "a0", f"y@{cross.env.now:.1f}")
            outcome = yield from cross.commit(handle)
            outcomes.append(outcome)

    def solo_app():
        for _round in range(3):
            handle = yield from solo.begin("group-0")
            yield from solo.read(handle, "row0", "a0")
            solo.write(handle, "row0", "a0", f"s@{solo.env.now:.1f}")
            outcome = yield from solo.commit(handle)
            outcomes.append(outcome)
            yield solo.env.timeout(3.0)

    cluster.env.process(cross_app())
    cluster.env.process(solo_app())
    cluster.run()
    assert len(outcomes) == 6
    # The MVSG test runs over the merged history once a cross-group
    # transaction commits: its branches link the two groups.
    cluster.check_invariants_all(outcomes, cluster.settle())
