"""Crash-restart recovery: the durable/volatile split, held to account.

A service-replica crash is *amnesia* — everything not explicitly durable
(`_paxos/` acceptor rows, `_meta/` intents, the preloaded base image) is
gone, in-flight handler processes die mid-yield, and the restarted node
must rebuild its volatile projections purely from WAL replay plus Paxos
catch-up (Spinnaker-style recovery, arXiv:1103.2408).  These tests pin
each layer of that contract: the store-level erase, the crash fence on
in-flight operations, the declarative :class:`CrashWindow` config, the
amnesia detector (both directions — clean runs pass, forged regressions
are caught), and the headline property: recovery is *idempotent* — a
replica crashed twice in one run ends byte-identical to one that never
crashed at all.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.config import (
    ClusterConfig,
    CrashWindow,
    FaultProfile,
    FaultScheduleConfig,
    PlacementConfig,
    WorkloadConfig,
)
from repro.core.queues import QueueDeliveryPump
from repro.errors import FaultScheduleError, StateHistoryError
from repro.failures import FailureInjector
from repro.failures.schedule import fault_span, install_fault_schedule, materialize
from repro.harness.experiment import finish_run, prepare_run
from repro.harness.parallel import metrics_digest
from repro.kvstore.service import StoreAccessor
from repro.kvstore.store import MultiVersionStore
from repro.paxos.ballot import Ballot
from repro.paxos.proposer import SynodProposer
from repro.sim.env import Environment
from repro.wal.invariants import InvariantViolation
from repro.wal.log import LogReplica, paxos_row_key
from repro.workload.driver import WorkloadDriver
from tests.conftest import make_cluster, run_txn
from tests.helpers import xgroup_mix_spec

GROUP = "g"


#: One forged crash-time snapshot per end-of-run amnesia message, built
#: from the final state of a chosen row and of a promised-only row.
AMNESIA_FORGERIES = {
    "vanished": lambda chosen, promised: {
        paxos_row_key(GROUP, 3): chosen,
    },
    "promise regressed": lambda chosen, promised: {
        paxos_row_key(GROUP, 1): (
            Ballot(chosen[0].round + 1, chosen[0].proposer), *chosen[1:],
        ),
    },
    "seq regressed": lambda chosen, promised: {
        paxos_row_key(GROUP, 1): (*chosen[:4], (chosen[4] or 0) + 1),
    },
    "chosen value forgotten": lambda chosen, promised: {
        paxos_row_key(GROUP, 2): (*promised[:2], True, chosen[3], promised[4]),
    },
    "chosen value changed": lambda chosen, promised: {
        paxos_row_key(GROUP, 1): (*chosen[:3], ("data", None, ("other",)),
                                  chosen[4]),
    },
}


def preloaded(**kwargs):
    cluster = make_cluster(**kwargs)
    cluster.preload(GROUP, {"row0": {f"a{i}": "init" for i in range(4)}})
    return cluster


class TestCrashWindowConfig:
    def test_rejects_negative_start(self):
        with pytest.raises(ValueError, match="start_ms"):
            CrashWindow("V2", -1.0, 100.0)

    def test_rejects_nonpositive_restart_delay(self):
        with pytest.raises(ValueError, match="restart_after_ms"):
            CrashWindow("V2", 0.0, 0.0)

    def test_cell_suffix_counts_crashes(self):
        config = FaultScheduleConfig(crashes=(CrashWindow("V2", 10.0, 50.0),))
        assert config.cell_suffix() == "/faults-1c"

    def test_crash_windows_count_toward_fault_span(self):
        # A dead replica costs quorum latency, so the availability report
        # aligns its timeline against the crash window too.
        config = FaultScheduleConfig(crashes=(CrashWindow("V2", 10.0, 50.0),))
        assert fault_span(config) == [(10.0, 60.0)]

    def test_unknown_datacenter_rejected_at_install(self):
        cluster = preloaded()
        config = FaultScheduleConfig(crashes=(CrashWindow("X9", 10.0, 50.0),))
        with pytest.raises(FaultScheduleError, match="unknown datacenter"):
            install_fault_schedule(cluster, config)

    def test_profile_kind_crash_materializes_crash_windows(self):
        cluster = preloaded()
        profile = FaultProfile(
            mttf_ms=200.0, mttr_ms=100.0, horizon_ms=3_000.0, kind="crash"
        )
        schedule = materialize(FaultScheduleConfig(profile=profile), cluster)
        assert schedule.profile is None
        assert schedule.crashes
        # spare_home: the home datacenter is never the victim, so the
        # derived schedule is majority-preserving on a 3-DC deployment.
        assert all(c.datacenter != cluster.home_dc for c in schedule.crashes)
        assert all(c.restart_after_ms > 0 for c in schedule.crashes)


class TestDurableVolatileSplit:
    def test_erase_volatile_keeps_durable_prefixes_and_preload(self):
        store = MultiVersionStore(name="s")
        store.write("_paxos/g/00000001", {"promise": 7}, timestamp=5.0)
        store.write("_meta/lease_epoch/n", {"incarnation": 3}, timestamp=6.0)
        store.write("data/row0", {"a": "base"}, timestamp=0.0)  # preload
        store.write("data/row0", {"a": "dirty"}, timestamp=7.0)
        store.write("scratch", {"x": 1}, timestamp=8.0)
        erased = store.erase_volatile()
        # The dirty data version and the scratch row die; the durable
        # prefixes and the ts<=0 base image survive.
        assert erased == 2
        assert store.read_attribute("_paxos/g/00000001", "promise") == 7
        assert store.read_attribute("_meta/lease_epoch/n", "incarnation") == 3
        assert [v.timestamp for v in store.versions("data/row0")] == [0.0]
        assert store.read("scratch") is None

    def test_state_rows_keep_their_one_version_through_a_crash(self):
        store = MultiVersionStore(name="s")
        for ballot in (1, 2, 3):
            store.write("_paxos/g/00000001", {"promise": ballot})
        store.write("_txnstatus/t1", {"state": "prepared"})
        store.write("_txnstatus/t1", {"state": "committed"})
        store.write("_queue/recv/g/h", {"s1": True})
        store.write("_queue/recv/g/h", {"s2": True})
        store.write("data/row0", {"a": "base"}, timestamp=0.0)
        store.write("data/row0", {"a": "dirty"}, timestamp=7.0)
        assert len(store.versions("_paxos/g/00000001")) == 1
        # One version per non-durable state row and the dirty data version:
        # a state row's erased versions count once, however often it was
        # written.
        assert store.erase_volatile() == 3
        assert store.keys("_txnstatus/") == [] and store.keys("_queue/") == []
        [version] = store.versions("_paxos/g/00000001")
        assert (version.timestamp, version.get("promise")) == (3, 3)
        assert store.read("_paxos/g/00000001", timestamp=3) is version
        # Its earlier state is gone, which a read at a past timestamp is
        # told rather than answered with "no row".
        with pytest.raises(StateHistoryError) as raised:
            store.read("_paxos/g/00000001", timestamp=2)
        assert (raised.value.key, raised.value.retained) == ("_paxos/g/00000001", 3)
        # Data rows keep their history; below it there is simply no row.
        assert store.read("data/row0", timestamp=-1.0) is None

    def test_fenced_in_flight_operation_never_lands(self):
        # A write issued before the crash whose latency timeout fires after
        # it must vanish — like a write that never reached the disk.
        env = Environment(seed=1)
        store = MultiVersionStore(name="s")
        accessor = StoreAccessor(env, store)
        accessor.write("row", {"a": 1}, timestamp=1.0)
        accessor.fence()
        env.run()
        assert store.read("row") is None

    def test_unfenced_operation_lands(self):
        env = Environment(seed=1)
        store = MultiVersionStore(name="s")
        accessor = StoreAccessor(env, store)
        accessor.write("row", {"a": 1}, timestamp=1.0)
        env.run()
        assert store.read_attribute("row", "a") == 1


class TestCrashRestart:
    def test_commits_continue_while_minority_replica_down(self):
        cluster = preloaded()
        injector = FailureInjector(cluster)
        injector.crash("V3", start_ms=0.0, restart_after_ms=5_000.0)
        client = cluster.add_client("V1", protocol="paxos-cp")
        outcome = run_txn(cluster, client, GROUP, writes=[("row0", "a0", "v")])
        assert outcome.committed
        assert cluster.check_crash_amnesia() == []

    def test_restarted_replica_rebuilds_projection_from_wal(self):
        cluster = preloaded()
        client = cluster.add_client("V1", protocol="paxos-cp")
        outcome = run_txn(cluster, client, GROUP, writes=[("row0", "a0", "v1")])
        assert outcome.committed
        # Force the apply projection to exist (apply is lazy, read-driven)
        # so the crash has volatile versions to lose.
        reader = cluster.add_client("V1", protocol="paxos-cp")
        run_txn(cluster, reader, GROUP, reads=[("row0", "a0")])
        injector = FailureInjector(cluster)
        injector.crash("V1", start_ms=cluster.env.now + 10.0,
                       restart_after_ms=100.0)
        cluster.run()
        record = cluster.crash_records[0]
        assert record.erased_versions >= 1  # the apply projection died
        assert record.restart_ms == pytest.approx(record.crash_ms + 100.0)
        assert GROUP in record.recovery_groups
        # Recovery replayed the WAL: the volatile projection is back.
        replica = cluster.services["V1"].replica(GROUP)
        assert replica.applied_through >= 1
        entry = replica.chosen_entry(1)
        assert entry is not None and entry.contains(outcome.transaction.tid)
        assert cluster.check_crash_amnesia() == []

    def test_recovery_leaves_the_acceptor_rows_as_the_crash_found_them(self):
        cluster = preloaded()
        client = cluster.add_client("V1", protocol="paxos-cp")
        for value in ("v1", "v2"):
            outcome = run_txn(cluster, client, GROUP, writes=[("row0", "a0", value)])
            assert outcome.committed
        store = cluster.stores["V2"]
        before = cluster._durable_acceptor_image(store)
        assert before
        cluster.crash_service("V2")
        cluster.restart_service("V2")
        cluster.run()  # recovery replays the WAL from the acceptor rows
        assert cluster._durable_acceptor_image(store) == before
        for key in store.keys("_paxos/"):
            assert len(store.versions(key)) == 1, key
        assert cluster.check_crash_amnesia() == []

    def test_crash_erases_each_non_durable_state_row_once(self):
        spec = xgroup_mix_spec(300)
        cluster, _drivers = prepare_run(spec, seed=0)
        cluster.env.run(until=2000.0)
        store = cluster.stores["V1"]
        volatile_state = [key for key in store.keys("_")
                          if not key.startswith(store.DURABLE_PREFIXES)]
        dirty_data = sum(
            version.timestamp > 0
            for key in store.keys("data/") for version in store.versions(key)
        )
        assert any(key.startswith("_queue/") for key in volatile_state)
        assert any(key.startswith("_txnstatus/") for key in volatile_state)
        durable = store.keys("_paxos/") + store.keys("_meta/")
        record = cluster.crash_service("V1")
        assert record.erased_versions == len(volatile_state) + dirty_data
        assert store.keys("_queue/") == [] and store.keys("_txnstatus/") == []
        assert store.keys("_paxos/") + store.keys("_meta/") == durable
        assert all(len(store.versions(key)) == 1 for key in durable)

    def test_overlapping_crash_windows_merge(self):
        # Two windows on one replica refcount like outages: the nested
        # restart must not reboot the node mid-outer-window.
        cluster = preloaded()
        injector = FailureInjector(cluster)
        injector.crash("V2", start_ms=10.0, restart_after_ms=200.0)
        injector.crash("V2", start_ms=50.0, restart_after_ms=100.0)
        cluster.env.run(until=160.0)  # past the inner restart (150ms)
        assert cluster.services["V2"].node.down
        assert len(cluster.crash_records) == 1
        cluster.run()
        record = cluster.crash_records[0]
        assert not cluster.services["V2"].node.down
        assert record.restart_ms == pytest.approx(210.0)
        assert cluster.check_crash_amnesia() == []

    def test_a_crash_takes_only_its_own_lanes_pumps(self):
        cluster = Cluster(ClusterConfig(
            cluster_code="VVV", seed=0,
            placement=PlacementConfig(
                n_groups=2, assignment="range", key_universe=2,
            ),
            shards=2,
        ))
        pumps = cluster.start_queue_pumps(poll_ms=10.0)
        lane = cluster.shard_map.lane_of("group-0")
        assert cluster.shard_map.lane_of("group-1") != lane
        cluster.env.run(until=50.0)
        record = cluster.crash_service("V1", lane)
        assert [run.group for run in record.killed_pumps] == ["group-0"]
        assert not pumps["group-0"].is_alive and pumps["group-1"].is_alive
        cluster.restart_service("V1", lane)
        fresh = cluster._pumps[-1]
        assert len(cluster._pumps) == 3
        assert (fresh.group, fresh.process.lane, fresh.poll_ms) == (
            "group-0", lane, 10.0,
        )
        assert fresh.process.is_alive and pumps["group-1"].is_alive

    def test_restart_without_crash_rejected(self):
        cluster = preloaded()
        with pytest.raises(FaultScheduleError, match="without a matching"):
            cluster.restart_service("V2")


class TestAmnesiaDetector:
    def test_durable_drift_while_down_is_caught_at_restart(self):
        # A down replica accepts no traffic, so any durable change between
        # crash and restart is detector-reportable corruption.
        cluster = preloaded()
        cluster.crash_service("V2")
        cluster.stores["V2"].write(
            "_meta/lease_epoch/evil", {"incarnation": 1}, timestamp=1.0
        )
        with pytest.raises(InvariantViolation, match="amnesia"):
            cluster.restart_service("V2")

    def test_any_write_while_down_is_caught_at_restart(self):
        # A volatile row is erased at the crash and never compared, so the
        # durable images cannot see this write; the store's write count can.
        cluster = preloaded()
        cluster.crash_service("V2")
        cluster.stores["V2"].write("_queue/pump/g", {"position": 1}, timestamp=1.0)
        with pytest.raises(InvariantViolation, match="1 store writes while"):
            cluster.restart_service("V2")

    @pytest.mark.parametrize("message", AMNESIA_FORGERIES)
    def test_forged_crash_snapshot_flagged_at_end_of_run(self, message):
        cluster = preloaded()
        client = cluster.add_client("V1", protocol="paxos")
        outcome = run_txn(cluster, client, GROUP, writes=[("row0", "a0", "v")])
        assert outcome.committed
        record = cluster.crash_service("V2")
        assert record.durable_image  # the acceptor voted, so rows exist
        cluster.restart_service("V2")
        cluster.run()
        # A promise without a vote at position 2: a row chosen nowhere.
        proposer = SynodProposer(client.node, GROUP, 2,
                                 list(client.service_names(GROUP)),
                                 client.config)
        probe = cluster.env.process(proposer.prepare(Ballot(1, "probe")))
        cluster.run()
        assert probe.value.successes == 3
        assert cluster.check_crash_amnesia() == []
        # Forge the failure mode the detector exists for: the crashed
        # replica held durable state at its crash that the final store
        # does not honour.
        final = cluster._durable_acceptor_image(cluster.stores["V2"])
        chosen = final[paxos_row_key(GROUP, 1)]
        promised = final[paxos_row_key(GROUP, 2)]
        assert chosen[2] and not promised[2]
        record.durable_image = AMNESIA_FORGERIES[message](chosen, promised)
        [violation] = cluster.check_crash_amnesia()
        assert message in violation

    def test_crash_without_restart_flagged(self):
        # Recovery must be finite: a replica that never comes back is a
        # violation, not a silently shorter run.
        cluster = preloaded()
        cluster.crash_service("V2")
        violations = cluster.check_crash_amnesia()
        assert any("never restarted" in v for v in violations)


def _data_projection(store: MultiVersionStore) -> dict[str, list[tuple]]:
    """Every data row's replayed versions: ``{key: [(ts, attrs...), ...]}``.

    Internal prefixes are excluded — ``_txnstatus/`` write times depend on
    when each replica *learned* an outcome (legitimately order-dependent),
    while data versions are stamped by log position and must replay
    identically everywhere.
    """
    projection: dict[str, list[tuple]] = {}
    for key in sorted(store.keys()):
        if key.startswith("_"):
            continue
        projection[key] = [
            (version.timestamp, tuple(sorted(version.attributes.items())))
            for version in store.versions(key)
        ]
    return projection


class TestRecoveryIdempotence:
    def test_double_crash_replica_matches_never_crashed_replica(self):
        """Crash the same replica twice in one run; its rebuilt state must
        be byte-identical to a replica that never crashed.

        This is the recovery-idempotence property: WAL replay + Paxos
        catch-up is a pure function of the durable log, so running it
        twice (with fresh amnesia in between) lands on exactly the state
        continuous operation would have produced — same chosen entries,
        same data versions at the same position timestamps.
        """
        cluster = Cluster(ClusterConfig(cluster_code="VVV", seed=7))
        workload = WorkloadConfig(
            n_transactions=12, ops_per_transaction=3, n_attributes=6,
            n_rows=2, n_threads=2, target_rate_per_thread=20.0,
            stagger_ms=5.0,
        )
        driver = WorkloadDriver(cluster, workload, "paxos-cp")
        driver.install_data()
        injector = FailureInjector(cluster)
        injector.crash("V3", start_ms=60.0, restart_after_ms=90.0)
        injector.crash("V3", start_ms=350.0, restart_after_ms=120.0)
        driver.start()
        cluster.run()

        records = cluster.crash_records
        assert len(records) == 2
        assert all(r.restart_ms is not None for r in records)

        cluster.check_invariants_all(driver.result.outcomes, cluster.settle())

        # Apply is lazy, so level the field by running the *same* recovery
        # replay on the never-crashed witness: if recovery is truly a pure
        # function of the durable log, replaying over live state is a
        # no-op and both replicas land on the identical full projection.
        cluster.services["V2"].spawn_recovery()
        cluster.services["V3"].spawn_recovery()
        cluster.run()

        crashed, witness = cluster.stores["V3"], cluster.stores["V2"]
        assert _data_projection(crashed) == _data_projection(witness)
        # The chosen log itself agrees position by position.
        for group in cluster.groups:
            survivor = cluster.services["V2"].replica(group)
            rebuilt = cluster.services["V3"].replica(group)
            assert rebuilt.applied_through == survivor.applied_through
            for position in range(1, survivor.applied_through + 1):
                assert rebuilt.chosen_entry(position) == \
                    survivor.chosen_entry(position)


class TestPumpLogHeadsUnderFaults:
    """The queue pumps keep one :class:`LogReplica` per group for their
    whole incarnation.  A crash of their home replica kills them with it,
    and the restart starts fresh pumps with fresh views, so no cache ever
    sees its store erased.  A run with warm caches must still be
    indistinguishable (every metric, not just the invariants) from the
    same schedule with pumps that re-walk the log from position 0 on every
    lookup, which is what the code did before the caches existed.
    """

    #: schedule -> (commits, sends, applied online, drained offline,
    #: messages sent) at seed 0.  Integers only: the full digest folds in
    #: float means whose last bit depends on the interpreter's ``sum``.
    SCHEDULES = {
        "home-replica-crash": (
            FaultScheduleConfig(crashes=(CrashWindow("V1", 2000.0, 800.0),)),
            (181, 58, 49, 9, 14121),
        ),
        "home-replica-crashes-nested": (
            FaultScheduleConfig(crashes=(
                CrashWindow("V1", 1500.0, 1000.0),
                CrashWindow("V1", 2000.0, 300.0),
            )),
            (188, 59, 52, 7, 15153),
        ),
    }

    @staticmethod
    def run_schedule(faults):
        """Run *faults* over the ``xgroup_mix`` shape at seed 0.

        Returns the cluster, the result, and what happened while V1's
        replica was down: how often its store was written and a pump
        scanned, and when each fresh pump started.
        """
        spec = xgroup_mix_spec(300, faults)
        cluster, drivers = prepare_run(spec, seed=0)
        store, node = cluster.stores["V1"], cluster.services["V1"].node
        seen = {"writes": 0, "scans": 0, "starts": []}

        def counting(name, method):
            def wrapper(*args, **kwargs):
                seen[name] += node.down
                return method(*args, **kwargs)
            return wrapper

        def count_scans(run) -> None:
            run.pump.deliver_pending = counting("scans", run.pump.deliver_pending)

        store.write = counting("writes", store.write)
        store.check_and_write = counting("writes", store.check_and_write)
        for run in cluster._pumps:
            count_scans(run)
        start = cluster.start_queue_pump

        def restart(*args, **kwargs):
            process = start(*args, **kwargs)
            count_scans(cluster._pumps[-1])
            seen["starts"].append(cluster.env.now)
            return process

        cluster.start_queue_pump = restart
        cluster.run()
        # Raises on any invariant violation: the per-group suites, queue
        # exactly-once delivery (after the offline drain) and crash amnesia.
        return cluster, finish_run(spec, cluster, drivers), seen

    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_warm_heads_change_nothing_but_the_read_count(self, name, monkeypatch):
        faults, pinned = self.SCHEDULES[name]
        warm_cluster, warm, seen = self.run_schedule(faults)
        monkeypatch.setattr(
            QueueDeliveryPump, "_replica",
            lambda pump, group: LogReplica(pump.store, group),
        )
        cold_cluster, cold, _seen = self.run_schedule(faults)

        assert metrics_digest([warm]) == metrics_digest([cold])
        queue = warm.metrics.queue
        assert (
            warm.metrics.commits, queue.sends, queue.applied_online,
            queue.drained_offline, warm_cluster.network.stats.sent,
        ) == pinned
        # Every committed send took effect exactly once.
        assert queue.undelivered == 0
        assert queue.sends == queue.applied_online + queue.drained_offline
        assert warm_cluster.check_crash_amnesia() == []
        for counter in ("write", "check_and_write"):
            assert (
                warm_cluster.stores["V1"].op_counts[counter]
                == cold_cluster.stores["V1"].op_counts[counter]
            )
        assert (
            warm_cluster.stores["V1"].op_counts["read"]
            < cold_cluster.stores["V1"].op_counts["read"] / 3
        )

        # Nothing wrote the down replica's store or scanned it.
        assert (seen["writes"], seen["scans"]) == (0, 0)
        # Overlapping windows merge into one crash: the first kill takes
        # all eight pumps once, and only the last restart replaces each,
        # once, with the poll interval and idle stop it had.
        first = min(crash.start_ms for crash in faults.crashes)
        last = max(crash.start_ms + crash.restart_after_ms
                   for crash in faults.crashes)
        [record] = warm_cluster.crash_records
        assert (record.crash_ms, record.restart_ms) == (first, last)
        assert record.erased_versions > 0
        originals, fresh = warm_cluster._pumps[:8], warm_cluster._pumps[8:]
        assert record.killed_pumps == tuple(originals)
        assert seen["starts"] == [last] * 8
        assert [run.group for run in fresh] == [run.group for run in originals]
        assert {(run.poll_ms, run.idle_stop_after) for run in fresh} == {(50.0, 200)}
