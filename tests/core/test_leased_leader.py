"""Tests for the §7 leased-leader extension."""

from collections import Counter
from dataclasses import replace

import pytest

from repro.core.leased_leader import (
    LEASE_ROUND,
    LeasedLeaderHost,
    lease_epoch_key,
    lease_head_key,
)
from repro.failures import FailureInjector
from repro.harness.experiment import finish_run, prepare_run
from repro.model import AbortReason
from repro.paxos.ballot import Ballot
from repro.wal.entry import LogEntry
from repro.wal.log import ATTR_BALLOT, ATTR_NEXT_BAL, ATTR_VALUE, paxos_row_key
from tests.conftest import make_cluster, run_txn
from tests.helpers import fig7_spec, txn

GROUP = "g"


def preloaded(**kwargs):
    cluster = make_cluster(**kwargs)
    cluster.preload(GROUP, {"row0": {f"a{i}": "init" for i in range(10)}})
    return cluster


class TestLeasedLeader:
    def test_single_commit(self):
        cluster = preloaded()
        client = cluster.add_client("V2", protocol="leased-leader")
        outcome = run_txn(cluster, client, GROUP,
                          reads=[("row0", "a0")], writes=[("row0", "a1", "v")])
        assert outcome.committed
        assert outcome.commit_position == 1

    def test_commits_replicated(self):
        cluster = preloaded()
        client = cluster.add_client("V1", protocol="leased-leader")
        outcome = run_txn(cluster, client, GROUP, writes=[("row0", "a0", "v")])
        for dc in cluster.topology.names:
            entry = cluster.services[dc].replica(GROUP).chosen_entry(1)
            assert entry is not None
            assert entry.contains(outcome.transaction.tid)

    def test_non_conflicting_concurrent_transactions_both_commit(self):
        cluster = preloaded()
        outcomes = []

        def make_proc(index, dc):
            client = cluster.add_client(dc, protocol="leased-leader")

            def run():
                yield cluster.env.timeout(index * 0.1)
                handle = yield from client.begin(GROUP)
                yield from client.read(handle, "row0", f"a{index}")
                client.write(handle, "row0", f"a{index}", f"v{index}")
                outcomes.append((yield from client.commit(handle)))

            return cluster.env.process(run())

        make_proc(0, "V1")
        make_proc(1, "V2")
        cluster.run()
        assert all(outcome.committed for outcome in outcomes)
        positions = sorted(outcome.commit_position for outcome in outcomes)
        assert positions == [1, 2]

    def test_conflicting_transaction_aborts(self):
        cluster = preloaded()
        outcomes = []

        def make_proc(index, reads, writes):
            client = cluster.add_client("V2", protocol="leased-leader")

            def run():
                yield cluster.env.timeout(index * 0.1)
                handle = yield from client.begin(GROUP)
                for item in reads:
                    yield from client.read(handle, "row0", item)
                for item in writes:
                    client.write(handle, "row0", item, f"w{index}")
                outcomes.append((yield from client.commit(handle)))

            return cluster.env.process(run())

        # Both read a0; the first writes it.  The second's read is stale by
        # the time the leader orders it.
        make_proc(0, ["a0"], ["a0"])
        make_proc(1, ["a0"], ["a1"])
        cluster.run()
        committed = [o for o in outcomes if o.committed]
        lost = [o for o in outcomes if not o.committed]
        assert len(committed) == 1 and len(lost) == 1
        assert lost[0].abort_reason is AbortReason.PROMOTION_CONFLICT

    def test_serializability_invariants_hold(self):
        cluster = preloaded()
        outcomes = []

        def make_proc(index, dc):
            client = cluster.add_client(dc, protocol="leased-leader")

            def run():
                yield cluster.env.timeout(index * 50.0)
                handle = yield from client.begin(GROUP)
                value = yield from client.read(handle, "row0", "a0")
                client.write(handle, "row0", "a0", f"{value}+{index}")
                outcomes.append((yield from client.commit(handle)))

            return cluster.env.process(run())

        for index, dc in enumerate(["V1", "V2", "V3", "V1"]):
            make_proc(index, dc)
        cluster.run()
        cluster.check_invariants_all(outcomes, cluster.settle())


class TestDuplicatedRequests:
    """The network may deliver a commit request twice.  Served twice, the
    copies took a slot each (the same tid at positions N and N+1, L2), or
    one aborted while the other committed (L1).  The leader now serves one
    request per tid and answers a copy with the first one's reply."""

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_invariants_hold_when_requests_are_duplicated(self, seed, monkeypatch):
        arrivals: Counter[str] = Counter()
        serve = LeasedLeaderHost.on_leader_commit

        def counting(host, msg):
            arrivals[msg.payload.transaction.tid] += 1
            return serve(host, msg)

        # Patched before the cluster is built: ``install_leased_leader``
        # registers the bound method.
        monkeypatch.setattr(LeasedLeaderHost, "on_leader_commit", counting)
        spec = fig7_spec(300, "leased-leader")
        spec = replace(spec, cluster=replace(spec.cluster, duplicate_probability=0.05))
        cluster, drivers = prepare_run(spec, seed)
        cluster.run()
        result = finish_run(spec, cluster, drivers)  # check_invariants_all
        assert result.metrics.commits > 0
        # The case under test happened: some request reached the leader twice.
        assert any(count > 1 for count in arrivals.values())


class TestCrashRestartFailover:
    """Lease-safe restart: no dual-leader window, ever.

    The crashed leader forgot its lease (volatile), so on restart it must
    assume some pre-crash self still holds one and wait out a full
    ``lease_ms`` before serving again — refusing commits with
    ``SERVICE_UNAVAILABLE`` in the meantime — under a strictly higher
    incarnation ballot recovered from the durable ``_meta/`` epoch row.
    """

    def test_wait_out_refuses_then_serves_with_higher_incarnation(self):
        # retry_attempts=0: a refusal must surface as the outcome, not be
        # retried past the wait-out.
        cluster = preloaded(retry_attempts=0)
        home = cluster.home_dc
        lease_ms = cluster.services[home].config.lease_ms
        injector = FailureInjector(cluster)
        # Crash the leader at 40ms; restart at 140ms; the wait-out then
        # refuses service until 140 + lease_ms.
        injector.crash(home, start_ms=40.0, restart_after_ms=100.0)
        outcomes = {}

        def make_proc(label, delay, attribute):
            client = cluster.add_client("V2", protocol="leased-leader")

            def run():
                yield cluster.env.timeout(delay)
                handle = yield from client.begin(GROUP)
                client.write(handle, "row0", attribute, f"v-{label}")
                outcomes[label] = yield from client.commit(handle)

            return cluster.env.process(run())

        make_proc("before", 0.0, "a0")
        make_proc("waiting", 200.0, "a1")          # inside the wait-out
        make_proc("after", 140.0 + lease_ms + 60.0, "a2")
        cluster.run()

        assert outcomes["before"].committed
        assert not outcomes["waiting"].committed
        assert outcomes["waiting"].abort_reason is AbortReason.SERVICE_UNAVAILABLE
        assert outcomes["after"].committed

        # The restart bumped the durable incarnation, so every post-crash
        # ballot strictly dominates every pre-crash one: the classic
        # dual-leader interleaving (old self's in-flight ACCEPT vs new
        # self) is decided by ballot order, never by wall-clock luck.
        service = cluster.services[home]
        incarnation = service.store.read_attribute(
            lease_epoch_key(service.node.name), "incarnation", default=0
        )
        assert incarnation == 1
        assert service.lease_host.ballot().round == LEASE_ROUND + 1

        # And the log the three clients saw is still gapless and 1SR.
        cluster.check_invariants_all(list(outcomes.values()), cluster.settle())
        assert cluster.check_crash_amnesia() == []

    def test_no_commit_lands_inside_the_wait_out_window(self):
        # A 300 ms term ends the wait-out at 440 ms, inside the volley below.
        lease_ms = 300.0
        cluster = preloaded(retry_attempts=0, lease_ms=lease_ms)
        home = cluster.home_dc
        injector = FailureInjector(cluster)
        injector.crash(home, start_ms=40.0, restart_after_ms=100.0)
        outcomes = []

        def make_proc(delay, attribute):
            client = cluster.add_client("V3", protocol="leased-leader")

            def run():
                yield cluster.env.timeout(delay)
                handle = yield from client.begin(GROUP)
                client.write(handle, "row0", attribute, "v")
                outcomes.append((yield from client.commit(handle)))

            return cluster.env.process(run())

        # A volley of commit attempts spanning the whole wait-out.
        for index, delay in enumerate((150.0, 250.0, 350.0, 450.0, 550.0)):
            make_proc(delay, f"a{index}")
        cluster.run()

        serve_after = 140.0 + lease_ms
        for outcome in outcomes:
            if outcome.committed:
                # Nothing may commit while the restarted leader still owes
                # a possible predecessor its lease.
                assert outcome.end_time >= serve_after
            else:
                assert outcome.abort_reason is AbortReason.SERVICE_UNAVAILABLE
        # The term is what the restarted leader waits out: attempts inside
        # it are refused, and the ones after it commit.
        assert {outcome.committed for outcome in outcomes} == {True, False}
        cluster.check_invariants_all(outcomes, cluster.settle())


class TestRecoveryWalk:
    """The restarted leader completes every slot up to its durable head."""

    def test_adopts_the_vote_fills_the_gap_then_serves_after_them(self):
        cluster = preloaded(retry_attempts=0)
        leader = cluster.services[cluster.home_dc]
        lease_ms = leader.config.lease_ms
        start = leader.replica(GROUP).read_position()
        voted, empty = start + 1, start + 2
        # The previous incarnation assigned two slots past the read
        # position and got one acceptor, its own, to vote in the first.
        leader.store.write(lease_head_key(GROUP), {"head": empty})
        old_ballot = Ballot(LEASE_ROUND, leader.node.name)
        orphan = LogEntry.single(txn("orphan", writes={"a9": "old"}))
        leader.store.write(paxos_row_key(GROUP, voted), {
            ATTR_NEXT_BAL: old_ballot, ATTR_BALLOT: old_ballot,
            ATTR_VALUE: orphan, "seq": 1,
        })
        FailureInjector(cluster).crash(cluster.home_dc, start_ms=10.0,
                                       restart_after_ms=10.0)
        outcomes = []
        client = cluster.add_client("V2", protocol="leased-leader")

        def run():
            yield cluster.env.timeout(20.0 + lease_ms + 50.0)
            handle = yield from client.begin(GROUP)
            client.write(handle, "row0", "a0", "new")
            outcomes.append((yield from client.commit(handle)))

        cluster.env.process(run())
        cluster.run()

        (outcome,) = outcomes
        assert outcome.committed
        assert outcome.commit_position == empty + 1
        for dc in cluster.topology.names:
            replica = cluster.services[dc].replica(GROUP)
            assert replica.chosen_entry(voted) == orphan
            assert replica.chosen_entry(empty).kind == "noop"
        cluster.check_invariants_all(outcomes, cluster.settle())
