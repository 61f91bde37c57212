"""Tests for the basic Paxos commit protocol (§4.1, Algorithm 2).

The defining behaviour: one transaction per position, losers abort even
without data conflicts — concurrency *prevention*.
"""

from repro.core.commit_basic import find_winning_val
from repro.model import AbortReason
from repro.paxos.ballot import NULL_BALLOT, Ballot
from repro.paxos.messages import PrepareReply
from repro.paxos.proposer import PhaseOutcome
from repro.wal.entry import LogEntry
from tests.conftest import make_cluster
from tests.helpers import txn

GROUP = "g"


def preloaded(**kwargs):
    cluster = make_cluster(**kwargs)
    cluster.preload(GROUP, {"row0": {f"a{i}": "init" for i in range(10)}})
    return cluster


def reply(success=True, last_ballot=NULL_BALLOT, last_value=None, promised=None):
    return PrepareReply(
        success=success,
        promised=promised or Ballot(1, "x"),
        last_ballot=last_ballot,
        last_value=last_value,
    )


class TestFindWinningVal:
    def test_all_null_votes_returns_own(self):
        own = LogEntry.single(txn("me", writes={"a": 1}))
        outcome = PhaseOutcome(replies=[("s1", reply()), ("s2", reply())])
        assert find_winning_val(outcome, own) is own

    def test_adopts_highest_ballot_vote(self):
        own = LogEntry.single(txn("me", writes={"a": 1}))
        low = LogEntry.single(txn("low", writes={"a": 2}))
        high = LogEntry.single(txn("high", writes={"a": 3}))
        outcome = PhaseOutcome(replies=[
            ("s1", reply(last_ballot=Ballot(1, "a"), last_value=low)),
            ("s2", reply(last_ballot=Ballot(3, "b"), last_value=high)),
        ])
        assert find_winning_val(outcome, own) is high

    def test_ignores_votes_in_refusals(self):
        """Algorithm 2's responseSet holds LAST VOTE responses (successes)."""
        own = LogEntry.single(txn("me", writes={"a": 1}))
        other = LogEntry.single(txn("other", writes={"a": 2}))
        outcome = PhaseOutcome(replies=[
            ("s1", reply()),
            ("s2", reply(success=False, last_ballot=Ballot(5, "z"),
                         last_value=other)),
        ])
        assert find_winning_val(outcome, own) is own


class TestSingleClient:
    def test_uncontended_commit_succeeds(self):
        cluster = preloaded()
        client = cluster.add_client("V1", protocol="paxos")

        def proc():
            handle = yield from client.begin(GROUP)
            client.write(handle, "row0", "a0", "v")
            return (yield from client.commit(handle))

        process = cluster.env.process(proc())
        cluster.run()
        assert process.value.committed
        assert process.value.promotions == 0

    def test_sequential_commits_fill_consecutive_positions(self):
        cluster = preloaded()
        client = cluster.add_client("V1", protocol="paxos")
        positions = []

        def proc():
            for index in range(3):
                handle = yield from client.begin(GROUP)
                client.write(handle, "row0", "a0", f"v{index}")
                outcome = yield from client.commit(handle)
                positions.append(outcome.commit_position)
                # Let the APPLY land locally before the next begin.
                yield cluster.env.timeout(50.0)

        cluster.env.process(proc())
        cluster.run()
        assert positions == [1, 2, 3]

    def test_commit_replicated_to_all_datacenters(self):
        cluster = preloaded()
        client = cluster.add_client("V1", protocol="paxos")

        def proc():
            handle = yield from client.begin(GROUP)
            client.write(handle, "row0", "a0", "v")
            return (yield from client.commit(handle))

        process = cluster.env.process(proc())
        cluster.run()
        tid = process.value.transaction.tid
        for dc in cluster.topology.names:
            entry = cluster.services[dc].replica(GROUP).chosen_entry(1)
            assert entry is not None and entry.contains(tid)


class TestConcurrencyPrevention:
    def run_pair(self, disjoint: bool, **kwargs):
        """Two clients with overlapping windows; returns their outcomes."""
        cluster = preloaded(**kwargs)
        first = cluster.add_client("V1", protocol="paxos")
        second = cluster.add_client("V2", protocol="paxos")
        items_second = ("a5" if disjoint else "a0", "a6" if disjoint else "a1")

        def proc(client, items, start_delay):
            def run():
                yield cluster.env.timeout(start_delay)
                handle = yield from client.begin(GROUP)
                for item in items:
                    yield from client.read(handle, "row0", item)
                for item in items:
                    client.write(handle, "row0", item, f"by-{client.node.name}")
                return (yield from client.commit(handle))

            return cluster.env.process(run())

        p1 = proc(first, ("a0", "a1"), 0.0)
        p2 = proc(second, items_second, 0.1)
        cluster.run()
        return cluster, p1.value, p2.value

    def test_conflicting_pair_one_aborts(self):
        _cluster, first, second = self.run_pair(disjoint=False)
        assert sorted([first.committed, second.committed]) == [False, True]
        loser = first if not first.committed else second
        assert loser.abort_reason is AbortReason.LOST_POSITION

    def test_disjoint_pair_still_one_aborts(self):
        """The paper's indictment of basic Paxos: no data conflict, yet one
        transaction aborts because both want the same log position."""
        _cluster, first, second = self.run_pair(disjoint=True)
        assert sorted([first.committed, second.committed]) == [False, True]

    def test_invariants_hold_after_contention(self):
        cluster, first, second = self.run_pair(disjoint=False)
        cluster.check_invariants_all([first, second], cluster.settle())


class TestFastPath:
    def test_leader_grants_only_first_claimant(self):
        cluster = preloaded()
        service = cluster.services["V1"]
        from repro.net.message import Message
        from repro.paxos.messages import LeaderClaimPayload

        first = service._on_leader_claim(
            Message(src="c1", dst="svc:V1", type="leader.claim",
                    payload=LeaderClaimPayload(GROUP, 1, "c1"))
        )
        second = service._on_leader_claim(
            Message(src="c2", dst="svc:V1", type="leader.claim",
                    payload=LeaderClaimPayload(GROUP, 1, "c2"))
        )
        repeat = service._on_leader_claim(
            Message(src="c1", dst="svc:V1", type="leader.claim",
                    payload=LeaderClaimPayload(GROUP, 1, "c1"))
        )
        assert first.granted
        assert not second.granted
        assert repeat.granted  # idempotent for the holder

    def test_fastpath_skips_prepare_messages(self):
        cluster = preloaded(leader_fastpath=True)
        client = cluster.add_client("V1", protocol="paxos")

        def proc():
            handle = yield from client.begin(GROUP)
            client.write(handle, "row0", "a0", "v")
            return (yield from client.commit(handle))

        process = cluster.env.process(proc())
        cluster.run()
        assert process.value.committed
        assert cluster.network.stats.by_type.get("paxos.prepare", 0) == 0

    def test_disabled_fastpath_uses_prepare(self):
        cluster = preloaded(leader_fastpath=False)
        client = cluster.add_client("V1", protocol="paxos")

        def proc():
            handle = yield from client.begin(GROUP)
            client.write(handle, "row0", "a0", "v")
            return (yield from client.commit(handle))

        process = cluster.env.process(proc())
        cluster.run()
        assert process.value.committed
        assert cluster.network.stats.by_type.get("paxos.prepare", 0) == 3

    def test_two_replica_cluster_commits(self):
        cluster = make_cluster("VV")
        cluster.preload(GROUP, {"row0": {"a0": "init"}})
        client = cluster.add_client("V1", protocol="paxos")

        def proc():
            handle = yield from client.begin(GROUP)
            client.write(handle, "row0", "a0", "v")
            return (yield from client.commit(handle))

        process = cluster.env.process(proc())
        cluster.run()
        assert process.value.committed
