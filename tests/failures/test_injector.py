"""Tests for fault injection and the availability story (§1, §4.1)."""

import pytest

from repro.cluster import Cluster
from repro.config import ClusterConfig, PlacementConfig
from repro.failures import FailureInjector
from tests.conftest import make_cluster, run_txn

GROUP = "g"


def preloaded(**kwargs):
    cluster = make_cluster(**kwargs)
    cluster.preload(GROUP, {"row0": {"a": "init"}})
    return cluster


class TestOutage:
    def test_commits_survive_minority_outage(self):
        """The headline availability claim: a datacenter down, commits go on."""
        cluster = preloaded()
        injector = FailureInjector(cluster)
        injector.outage("V3", start_ms=0.0, duration_ms=60_000.0)
        client = cluster.add_client("V1", protocol="paxos-cp")
        outcome = run_txn(cluster, client, GROUP, writes=[("row0", "a", "v")])
        assert outcome.committed

    def test_no_commits_without_majority(self):
        cluster = preloaded(timeout_ms=200.0, max_commit_attempts=3)
        injector = FailureInjector(cluster)
        injector.outage("V2", start_ms=0.0, duration_ms=10_000_000.0)
        injector.outage("V3", start_ms=0.0, duration_ms=10_000_000.0)
        client = cluster.add_client("V1", protocol="paxos")
        outcome = run_txn(cluster, client, GROUP, writes=[("row0", "a", "v")])
        assert not outcome.committed

    def test_recovered_datacenter_serves_consistent_snapshot(self):
        """A recovered replica may lag, but what it serves is a consistent
        snapshot: ``begin`` pins the replica's local read position (the
        paper's step 1), and Theorem 1 serializes the read-only transaction
        at that position.  Stale is allowed; torn is not."""
        cluster = preloaded()
        injector = FailureInjector(cluster)
        injector.outage("V3", start_ms=0.0, duration_ms=5_000.0)
        client = cluster.add_client("V1", protocol="paxos-cp")
        outcome = run_txn(cluster, client, GROUP, writes=[("row0", "a", "v")])
        assert outcome.committed
        cluster.env.run(until=6_000.0)
        late_client = cluster.add_client("V3", protocol="paxos-cp")

        def proc():
            handle = yield from late_client.begin(GROUP)
            value = yield from late_client.read(handle, "row0", "a")
            ro_outcome = yield from late_client.commit(handle)
            return value, ro_outcome

        process = cluster.env.process(proc())
        cluster.run()
        value, ro_outcome = process.value
        # V3 had not learned position 1 when begin pinned the position, so
        # the transaction reads the initial snapshot — 1SR-consistent.
        assert value == "init"
        cluster.check_invariants_all([outcome, ro_outcome], cluster.settle())

    def test_recovered_datacenter_catches_up_for_pinned_reads(self):
        """A read pinned to a position the replica missed forces catch-up.

        Five datacenters so a learning quorum survives: V3 misses the
        decision during its outage, then V1/V2 go dark and a client whose
        read is pinned to position 1 fails over to V3 — which must learn
        the decision from {V3, O, C} (3 of 5) and serve the new value.
        """
        cluster = preloaded(code="VVVOC")
        injector = FailureInjector(cluster)
        injector.outage("V3", start_ms=0.0, duration_ms=5_000.0)
        writer = cluster.add_client("V1", protocol="paxos-cp")
        outcome = run_txn(cluster, writer, GROUP, writes=[("row0", "a", "v")])
        assert outcome.committed
        cluster.env.run(until=6_000.0)
        reader = cluster.add_client("V1", protocol="paxos-cp")

        def proc():
            handle = yield from reader.begin(GROUP)
            cluster.services["V1"].node.down = True
            cluster.services["V2"].node.down = True
            value = yield from reader.read(handle, "row0", "a")
            return handle.read_position, value

        process = cluster.env.process(proc())
        cluster.run()
        position, value = process.value
        assert position == 1
        assert value == "v"  # V3 caught up on demand (§4.1)
        assert cluster.services["V3"].replica(GROUP).applied_through == 1

    def test_injection_log_records_events(self):
        cluster = preloaded()
        injector = FailureInjector(cluster)
        injector.outage("V2", start_ms=10.0, duration_ms=20.0)
        cluster.run()
        descriptions = [entry[1] for entry in injector.log]
        assert descriptions == ["outage start V2", "outage end V2"]


class TestLossEpisode:
    def test_loss_restored_after_window(self):
        cluster = preloaded()
        injector = FailureInjector(cluster)
        injector.loss_episode(0.4, start_ms=100.0, duration_ms=200.0)
        cluster.env.run(until=150.0)
        assert cluster.network.loss_probability == 0.4
        cluster.env.run(until=400.0)
        assert cluster.network.loss_probability == 0.0

    def test_commits_survive_heavy_loss(self):
        cluster = preloaded(seed=11)
        cluster.network.loss_probability = 0.25
        client = cluster.add_client("V1", protocol="paxos-cp")
        outcome = run_txn(cluster, client, GROUP, writes=[("row0", "a", "v")])
        # Retries are allowed to take a while, but the decision must be
        # clean and the invariants intact either way.
        cluster.network.loss_probability = 0.0
        cluster.check_invariants_all([outcome], cluster.settle())


class TestPartition:
    def test_minority_side_blocked_majority_side_commits(self):
        cluster = preloaded(timeout_ms=200.0, max_commit_attempts=3)
        injector = FailureInjector(cluster)
        # Isolate V1 from both V2 and V3.
        injector.partition("V1", "V2", start_ms=0.0, duration_ms=10_000_000.0)
        injector.partition("V1", "V3", start_ms=0.0, duration_ms=10_000_000.0)
        isolated = cluster.add_client("V1", protocol="paxos")
        connected = cluster.add_client("V2", protocol="paxos")

        outcomes = []

        def proc(client):
            def run():
                handle = yield from client.begin(GROUP)
                client.write(handle, "row0", "a", f"by-{client.node.name}")
                outcomes.append((yield from client.commit(handle)))

            return cluster.env.process(run())

        proc(isolated)
        proc(connected)
        cluster.run()
        by_origin = {o.transaction.origin_dc: o for o in outcomes}
        assert not by_origin["V1"].committed
        assert by_origin["V2"].committed


#: Two overlapping windows of one kind -> the fault's state at probe times.
#: The fault lasts until the *last* window ends; overlapping loss windows
#: lose at the highest open probability.
OVERLAPS = {
    "loss-rising": (
        lambda injector: (injector.loss_episode(0.2, 100.0, 200.0),
                          injector.loss_episode(0.3, 200.0, 200.0)),
        lambda network, lane: network._lane_loss.get(
            lane, network.loss_probability
        ),
        {150.0: 0.2, 250.0: 0.3, 350.0: 0.3, 450.0: 0.0},
    ),
    "loss-falling": (
        lambda injector: (injector.loss_episode(0.3, 100.0, 200.0),
                          injector.loss_episode(0.2, 200.0, 200.0)),
        lambda network, lane: network._lane_loss.get(
            lane, network.loss_probability
        ),
        {150.0: 0.3, 250.0: 0.3, 350.0: 0.2, 450.0: 0.0},
    ),
    "partition-nested": (
        lambda injector: (injector.partition("V1", "V2", 100.0, 300.0),
                          injector.partition("V1", "V2", 200.0, 100.0)),
        lambda network, lane: frozenset({"V1", "V2"})
        in network._severed_views[lane],
        {150.0: True, 250.0: True, 350.0: True, 450.0: False},
    ),
    "partition-reversed": (
        lambda injector: (injector.partition("V1", "V2", 100.0, 200.0),
                          injector.partition("V2", "V1", 200.0, 200.0)),
        lambda network, lane: frozenset({"V1", "V2"})
        in network._severed_views[lane],
        {150.0: True, 250.0: True, 350.0: True, 450.0: False},
    ),
}


class TestOverlappingWindows:
    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("name", sorted(OVERLAPS))
    def test_the_fault_lasts_until_the_last_window_ends(self, name, shards):
        declare, probe, expected = OVERLAPS[name]
        cluster = Cluster(ClusterConfig(
            cluster_code="VVV", seed=0,
            placement=PlacementConfig(
                n_groups=2, assignment="range", key_universe=2,
            ),
            shards=shards,
        ))
        declare(FailureInjector(cluster))
        lanes = range(cluster.env.lane_count)
        for when, state in expected.items():
            cluster.env.run(until=when)
            assert [probe(cluster.network, lane) for lane in lanes] == \
                [state] * len(lanes), when


    @pytest.mark.parametrize("shards", [1, 2])
    def test_windows_declared_through_two_injectors_compose(self, shards):
        cluster = Cluster(ClusterConfig(
            cluster_code="VVV", seed=0,
            placement=PlacementConfig(
                n_groups=2, assignment="range", key_universe=2,
            ),
            shards=shards,
        ))
        first, second = FailureInjector(cluster), FailureInjector(cluster)
        first.outage("V2", 100.0, 200.0)
        second.outage("V2", 200.0, 400.0)
        first.partition("V1", "V3", 100.0, 200.0)
        second.partition("V3", "V1", 200.0, 400.0)
        first.loss_episode(0.2, 100.0, 200.0)
        second.loss_episode(0.3, 200.0, 400.0)
        network = cluster.network
        for when, faulty in {450.0: True, 650.0: False}.items():
            cluster.env.run(until=when)
            for lane in range(cluster.env.lane_count):
                assert network.is_down("V2", lane) is faulty, when
                assert (frozenset({"V1", "V3"})
                        in network._severed_views[lane]) is faulty, when
                loss = network._lane_loss.get(lane, network.loss_probability)
                assert loss == (0.3 if faulty else 0.0), when


class TestClientCrash:
    def test_crash_between_accept_and_apply_still_recoverable(self):
        """§4.1: 'If a Transaction Client fails in the middle of the commit
        protocol, its transaction may be committed or aborted.'  Whatever
        happens, the log must stay consistent and later catch-up must
        converge."""
        cluster = preloaded()
        client = cluster.add_client("V1", protocol="paxos")
        injector = FailureInjector(cluster)

        def txn_proc():
            handle = yield from client.begin(GROUP)
            client.write(handle, "row0", "a", "maybe")
            return (yield from client.commit(handle))

        process = cluster.env.process(txn_proc())
        # Kill mid-protocol: after begin reply (~a few ms), during commit.
        injector.kill_process_at(process, when_ms=3.0)
        cluster.run()
        assert not process.ok or process.value is not None
        # Regardless of the outcome, the invariants hold with the crashed
        # transaction treated as unknown (no outcome reported).
        cluster.check_invariants_all([], cluster.settle())
        # And a follow-up transaction proceeds normally.
        follow_up = cluster.add_client("V2", protocol="paxos-cp")
        outcome = run_txn(cluster, follow_up, GROUP, writes=[("row0", "a", "next")])
        assert outcome.committed
