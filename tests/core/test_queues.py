"""The asynchronous queue subsystem: entries, enqueue API, pump, dedup."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, SettledRun
from repro.config import ClusterConfig, PlacementConfig, StoreConfig
from repro.core.queues import (
    DeliveryTable,
    QueueDeliveryPump,
    build_queue_apply,
    enumerate_sends,
    first_applies,
    queue_apply_tid,
)
from repro.errors import TransactionStateError
from repro.model import QueueSend, Transaction
from repro.serializability.checker import check_queue_delivery
from repro.wal.entry import LogEntry
from repro.wal.invariants import (
    InvariantViolation,
    effective_log,
    queue_shadow_positions,
)
from repro.wal.log import LogReplica, paxos_row_key


def sharded_cluster(n_groups: int = 2, seed: int = 0) -> Cluster:
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


def send_txn(tid: str, group: str, target: str, value: str) -> Transaction:
    return Transaction(
        tid=tid, group=group, read_set=frozenset(),
        writes=((("local", "a"), value),), read_position=0,
        sends=(QueueSend(target, ((("remote", "a"), value),)),),
    )


class TestEntryKind:
    def test_queue_apply_requires_stream_identity(self):
        message = Transaction(
            tid=queue_apply_tid("g0", "g1", 1), group="g1",
            read_set=frozenset(), writes=((("r", "a"), "v"),),
            read_position=-1,
        )
        entry = LogEntry.queue_apply(message, "g0", 1)
        assert entry.kind == "queue_apply"
        assert entry.queue_key == ("g0", 1)
        with pytest.raises(ValueError):
            LogEntry(transactions=(message,), kind="queue_apply")

    def test_queue_key_is_none_for_other_kinds(self):
        txn = send_txn("t1", "g0", "g1", "v")
        assert LogEntry.single(txn).queue_key is None
        assert LogEntry.single(txn).queue_sends == txn.sends

    def test_send_only_transaction_is_not_read_only(self):
        txn = Transaction(
            tid="t", group="g0", read_set=frozenset(), writes=(),
            read_position=0,
            sends=(QueueSend("g1", ((("r", "a"), "v"),)),),
        )
        assert not txn.is_read_only


class TestEnumeration:
    def test_seqnos_follow_log_then_member_then_send_order(self):
        log = {
            2: LogEntry.single(send_txn("t2", "g0", "g1", "b")),
            1: LogEntry(transactions=(
                send_txn("t0", "g0", "g1", "a"),
                Transaction(
                    tid="t1", group="g0", read_set=frozenset(),
                    writes=((("x", "a"), "w"),), read_position=0,
                    sends=(
                        QueueSend("g1", ((("r", "a"), "m1"),)),
                        QueueSend("g2", ((("r", "a"), "m2"),)),
                    ),
                ),
            )),
        }
        streams = enumerate_sends("g0", log)
        assert [(s.seqno, s.sender_tid) for s in streams["g1"]] == [
            (1, "t0"), (2, "t1"), (3, "t2"),
        ]
        assert [(s.seqno, s.sender_tid) for s in streams["g2"]] == [(1, "t1")]

    def test_shadows_and_effective_log_dedup_redelivery(self):
        send = QueueSend("g1", ((("r", "a"), "v"),))
        apply_entry = build_queue_apply("g0", "g1", 1, send)
        log = {1: apply_entry, 2: apply_entry, 3: apply_entry}
        assert queue_shadow_positions(log) == {2, 3}
        assert list(effective_log(log)) == [1]
        assert first_applies(log) == {("g0", 1): 1}


class TestDeliveryInvariant:
    def test_clean_stream_passes(self):
        send = QueueSend("g1", ((("remote", "a"), "v"),))
        logs = {
            "g0": {1: LogEntry.single(send_txn("t0", "g0", "g1", "v"))},
            "g1": {1: build_queue_apply("g0", "g1", 1, send)},
        }
        assert check_queue_delivery(logs) == []

    def test_dropped_send_is_reported(self):
        logs = {
            "g0": {1: LogEntry.single(send_txn("t0", "g0", "g1", "v"))},
            "g1": {},
        }
        violations = check_queue_delivery(logs)
        assert any("dropped send" in v for v in violations)
        assert check_queue_delivery(logs, require_delivery=False) == []

    def test_phantom_apply_is_reported(self):
        send = QueueSend("g1", ((("r", "a"), "v"),))
        logs = {
            "g0": {},
            "g1": {1: build_queue_apply("g0", "g1", 7, send)},
        }
        violations = check_queue_delivery(logs, require_delivery=False)
        assert any("phantom" in v for v in violations)

    def test_out_of_order_first_occurrences_are_reported(self):
        sends = [QueueSend("g1", ((("remote", "a"), f"v{k}"),)) for k in (1, 2)]
        logs = {
            "g0": {
                1: LogEntry.single(send_txn("t1", "g0", "g1", "v1")),
                2: LogEntry.single(send_txn("t2", "g0", "g1", "v2")),
            },
            "g1": {
                1: build_queue_apply("g0", "g1", 2, sends[1]),
                2: build_queue_apply("g0", "g1", 1, sends[0]),
            },
        }
        violations = check_queue_delivery(logs)
        assert any("out of order" in v for v in violations)

    def test_divergent_redelivery_twin_is_reported(self):
        good = QueueSend("g1", ((("remote", "a"), "v"),))
        evil = QueueSend("g1", ((("remote", "a"), "EVIL"),))
        logs = {
            "g0": {1: LogEntry.single(send_txn("t0", "g0", "g1", "v"))},
            "g1": {
                1: build_queue_apply("g0", "g1", 1, good),
                2: build_queue_apply("g0", "g1", 1, evil),
            },
        }
        violations = check_queue_delivery(logs)
        assert any("differs from its first occurrence" in v for v in violations)


class TestEnqueueApi:
    def test_enqueue_rides_the_single_group_commit(self):
        cluster = sharded_cluster(2, seed=3)
        client = cluster.add_client("V1", protocol="paxos-cp")

        def app():
            handle = yield from client.begin(key="row0")
            client.write(handle, "row0", "a0", "w")
            client.enqueue(handle, "row1", "a0", "deferred")
            outcome = yield from client.commit(handle)
            return outcome

        outcome = run(cluster, app())
        assert outcome.committed
        assert outcome.transaction.sends == (
            QueueSend("group-1", ((("row1", "a0"), "deferred"),)),
        )
        # The send is durable in the sender's own commit entry.
        log = cluster.finalize("group-0")
        assert any(entry.queue_sends for entry in log.values())

    def test_enqueue_rejects_local_rows_and_cross_group_handles(self):
        cluster = sharded_cluster(2)
        client = cluster.add_client("V1")

        def local(handle_key):
            handle = yield from client.begin(key=handle_key)
            client.enqueue(handle, handle_key, "a0", "x")

        with pytest.raises(TransactionStateError, match="own group"):
            run(cluster, local("row0"))

        def cross():
            handle = yield from client.begin()
            client.enqueue(handle, "row1", "a0", "x")
            yield  # pragma: no cover - enqueue raises first

        with pytest.raises(TransactionStateError, match="2PC"):
            run(cluster, cross())

    def test_send_only_transaction_commits_through_the_log(self):
        cluster = sharded_cluster(2, seed=5)
        client = cluster.add_client("V1")

        def app():
            handle = yield from client.begin(key="row0")
            client.enqueue(handle, "row1", "a0", "only-a-send")
            outcome = yield from client.commit(handle)
            return outcome

        outcome = run(cluster, app())
        assert outcome.committed
        # Not the read-only shortcut: the send occupies a log position.
        log = cluster.finalize("group-0")
        assert len(log) == 1
        cluster.check_invariants_all([outcome], cluster.settle())


class TestPump:
    def test_pump_delivers_and_applies_exactly_once(self):
        cluster = sharded_cluster(2, seed=11)
        cluster.start_queue_pumps(poll_ms=10, idle_stop_after=60)
        client = cluster.add_client("V1", protocol="paxos-cp")

        def app():
            for k in range(3):
                handle = yield from client.begin(key="row0")
                client.write(handle, "row0", "a0", f"w{k}")
                client.enqueue(handle, "row1", "a0", f"d{k}")
                yield from client.commit(handle)

        run(cluster, app())
        settled = cluster.settle()
        log = settled.logs["group-1"]
        applies = [e for e in log.values() if e.kind == "queue_apply"]
        assert len(applies) >= 3  # redelivery may add shadows, never drop
        assert len(first_applies(log)) == 3
        cluster.check_invariants_all([], settled)
        stats = cluster.queue_stats(settled)
        assert stats.applied_online == 3
        assert stats.drained_offline == 0
        # Delivered in sender order: the last apply wins the final state.
        value = read_remote(cluster, "row1", "a0")
        assert value == "d2"

    def test_pump_crash_and_restart_never_drops_or_double_applies(self):
        cluster = sharded_cluster(2, seed=13)
        processes = cluster.start_queue_pumps(poll_ms=10, idle_stop_after=60)
        client = cluster.add_client("V1", protocol="paxos-cp")

        def app():
            for k in range(4):
                handle = yield from client.begin(key="row0")
                client.write(handle, "row0", "a0", f"w{k}")
                client.enqueue(handle, "row1", "a0", f"d{k}")
                yield from client.commit(handle)

        # Kill the sender pump mid-run, then restart it a beat later: the
        # fresh pump rescans the sender log from position 1 and redelivers,
        # and receiver dedup absorbs every twin.
        kill_at = cluster.env.timeout(160.0)
        kill_at.add_callback(
            lambda _e: processes["group-0"].kill("injected pump crash")
        )
        restart_at = cluster.env.timeout(260.0)
        restart_at.add_callback(
            lambda _e: cluster.start_queue_pump(
                "group-0", poll_ms=10, idle_stop_after=60
            )
        )
        run(cluster, app())

        settled = cluster.settle()
        # Exactly-once + order + no drops, and the §3 suite over both logs.
        cluster.check_invariants_all([], settled)
        assert len(first_applies(settled.logs["group-1"])) == 4
        assert read_remote(cluster, "row1", "a0") == "d3"

    def test_drain_is_idempotent_and_completes_without_pumps(self):
        cluster = sharded_cluster(2, seed=17)
        client = cluster.add_client("V1")

        def app():
            handle = yield from client.begin(key="row0")
            client.enqueue(handle, "row1", "a0", "lonely")
            yield from client.commit(handle)

        run(cluster, app())  # no pumps at all
        logs = cluster.finalize_all()
        decisions = cluster.cross_group_decisions()
        # Before any drain: the send is committed but undelivered, which
        # must surface as a stall, not vanish from the accounting.
        before = cluster.queue_stats(SettledRun(logs, decisions))
        assert (before.sends, before.applied_online, before.drained_offline,
                before.undelivered, before.stalled) == (1, 0, 0, 1, 1)
        assert cluster.drain_queues(logs, decisions) == 1
        assert cluster.drain_queues(logs, decisions) == 0  # nothing left
        assert check_queue_delivery(logs) == []
        after = cluster.queue_stats(SettledRun(logs, decisions))
        assert (after.applied_online, after.drained_offline) == (0, 1)
        assert after.stalled == 1  # drain completions are stalls by definition
        # The drained apply is readable through the ordinary service path.
        assert read_remote(cluster, "row1", "a0") == "lonely"


def plain_entry(group: str, position: int) -> LogEntry:
    """A committed single-group write with no sends."""
    return LogEntry.single(Transaction(
        tid=f"{group}:t{position}", group=group, read_set=frozenset(),
        writes=((("local", "a"), position),), read_position=position - 1,
    ))


def home_pump(cluster: Cluster) -> QueueDeliveryPump:
    """A ``group-0`` pump in V1, driven by hand (no poll loop)."""
    return QueueDeliveryPump(
        cluster.env, cluster.network, "V1", "pump:test", "group-0",
        cluster.stores["V1"], cluster.config.protocol, cluster.shard_map,
        list(cluster.topology.names),
    )


def pump_over_logs(lengths: dict[str, int]) -> tuple[Cluster, QueueDeliveryPump]:
    """A ``group-0`` pump in V1 over pre-chosen logs of the given lengths
    (the same entries recorded at every replica, as APPLY would)."""
    cluster = sharded_cluster(2)
    for group, length in lengths.items():
        for store in cluster.stores.values():
            log = LogReplica(store, group)
            for position in range(1, length + 1):
                log.record_chosen(position, plain_entry(group, position))
    return cluster, home_pump(cluster)


def reads_during(cluster: Cluster, generator) -> int:
    """Home-store reads performed while *generator* runs to completion."""
    counts = cluster.stores["V1"].op_counts
    before = counts["read"]
    run(cluster, generator)
    return counts["read"] - before


class TestPumpLogHeads:
    """A poll costs O(entries chosen since the last one), never O(log)."""

    def test_idle_scan_reads_are_constant_in_sender_log_length(self):
        reads = {}
        for length in (50, 500):
            cluster, pump = pump_over_logs({"group-0": length})
            run(cluster, pump.deliver_pending())  # first scan walks the log
            reads[length] = reads_during(cluster, pump.deliver_pending())
        assert reads[50] == reads[500] <= 8

    def test_scan_after_new_entries_reads_only_the_new_ones(self):
        cluster, pump = pump_over_logs({"group-0": 500})
        run(cluster, pump.deliver_pending())
        idle = reads_during(cluster, pump.deliver_pending())
        log = LogReplica(cluster.stores["V1"], "group-0")
        for position in (501, 502, 503):
            log.record_chosen(position, plain_entry("group-0", position))
        # On top of the idle scan's reads: one probe per new entry.
        assert reads_during(cluster, pump.deliver_pending()) == idle + 3 <= 10
        assert pump.progress == (503, {})

    def test_receiver_head_lookup_is_constant_after_the_first_append(self):
        send = QueueSend("group-1", ((("remote", "a"), "v"),))
        reads = {}
        for length in (50, 500):
            cluster, pump = pump_over_logs({"group-1": length})
            assert run(cluster, pump._append_apply("group-1", 1, send))
            reads[length] = reads_during(
                cluster, pump._append_apply("group-1", 2, send)
            )
            log = cluster.finalize("group-1")
            assert [log[length + k].queue_key for k in (1, 2)] == [
                ("group-0", 1), ("group-0", 2),
            ]
        # The head probe plus the V1 acceptor's own reads for one Synod walk.
        assert reads[50] == reads[500] <= 8

    def test_missing_entry_below_the_head_is_an_invariant_error(self):
        cluster, pump = pump_over_logs({"group-0": 3})
        del cluster.stores["V1"]._rows[paxos_row_key("group-0", 2)]
        replica = LogReplica(cluster.stores["V1"], "group-0")
        with pytest.raises(InvariantViolation, match="position 2"):
            pump._acknowledged_entry(replica, 2)


class TestPumpIdleMark:
    """A poll that finds the acknowledged head where the pump's progress
    stands has nothing to deliver.  Progress is pump memory: a crash of its
    home replica kills the pump, and the fresh pump the restart starts
    scans the sender log from position 1 again."""

    def pump_after_one_send(self) -> tuple[Cluster, QueueDeliveryPump]:
        cluster = sharded_cluster(2, seed=19)
        client = cluster.add_client("V1")

        def app():
            handle = yield from client.begin(key="row0")
            client.enqueue(handle, "row1", "a0", "once")
            yield from client.commit(handle)

        run(cluster, app())
        pump = home_pump(cluster)
        assert run(cluster, pump.deliver_pending()) == 1
        return cluster, pump

    def test_idle_poll_reads_only_the_head_probe(self):
        cluster, pump = self.pump_after_one_send()
        # Progress stands at the acknowledged head, so an idle poll still
        # probes the next log position — and reads nothing else.
        assert reads_during(cluster, pump.deliver_pending()) == 1
        assert run(cluster, pump.deliver_pending()) == 0
        position, counters = pump.progress
        assert counters == {"group-1": 1}
        # Progress behind the head (a stall, a fresh pump): the poll scans.
        pump.progress = (position - 1, {})
        assert run(cluster, pump.deliver_pending()) == 1
        assert pump.progress == (position, counters)

    def test_a_fresh_pump_after_a_home_crash_rescans_and_redelivers(self):
        cluster = sharded_cluster(2, seed=19)
        client = cluster.add_client("V1")

        def app():
            handle = yield from client.begin(key="row0")
            client.enqueue(handle, "row1", "a0", "once")
            yield from client.commit(handle)

        cluster.env.process(app())
        first = cluster.start_queue_pump("group-0", poll_ms=10, idle_stop_after=100)
        cluster.env.run(until=500.0)
        [before] = cluster._pumps
        assert first.is_alive and len(before.pump.delivered) == 1
        acknowledged = before.pump.progress[0]
        # The crash kills the pump and its progress with it; the restart
        # starts a fresh pump, which must scan from position 1, redeliver,
        # and record progress again.
        record = cluster.crash_service("V1")
        assert record.killed_pumps == (before,) and not first.is_alive
        cluster.restart_service("V1")
        cluster.run()
        [_, fresh] = cluster._pumps
        assert (fresh.poll_ms, fresh.idle_stop_after) == (10, 100)
        assert len(fresh.pump.delivered) == 1
        assert fresh.pump.progress == (acknowledged, {"group-1": 1})
        # Receiver dedup absorbs the redelivery: the apply is in the log
        # twice, and only its first occurrence takes effect.
        logs = cluster.finalize_all()
        twins = [entry for entry in logs["group-1"].values()
                 if entry.queue_key == ("group-0", 1)]
        assert len(twins) == 2
        assert list(first_applies(logs["group-1"])) == [("group-0", 1)]
        assert check_queue_delivery(logs) == []
        assert read_remote(cluster, "row1", "a0") == "once"


def read_remote(cluster: Cluster, row: str, attribute: str):
    reader = cluster.add_client("V2")

    def app():
        handle = yield from reader.begin(key=row)
        value = yield from reader.read(handle, row, attribute)
        return value

    return run(cluster, app())


class TestDeliveryTable:
    def test_marks_round_trip(self):
        from repro.kvstore.store import MultiVersionStore

        table = DeliveryTable(MultiVersionStore())
        assert not table.is_applied("g1", "g0", 1)
        table.mark_applied("g1", "g0", 1)
        table.mark_applied("g1", "g0", 3)
        table.mark_applied("g1", "g0", 3)  # idempotent
        assert table.is_applied("g1", "g0", 1)
        assert not table.is_applied("g1", "g0", 2)
        assert table.applied_seqnos("g1", "g0") == {1, 3}
        assert table.streams_into("g1") == {"g0": {1, 3}}
