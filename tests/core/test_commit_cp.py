"""Tests for Paxos-CP (§5): combination and promotion."""

from repro.config import ProtocolConfig
from repro.core.commit_cp import enhanced_find_winning_val
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


def reply(success=True, last_ballot=NULL_BALLOT, last_value=None):
    return PrepareReply(
        success=success, promised=Ballot(1, "x"),
        last_ballot=last_ballot, last_value=last_value,
    )


def outcome_of(*replies):
    return PhaseOutcome(replies=[(f"s{i}", r) for i, r in enumerate(replies)])


class TestEnhancedFindWinningVal:
    """Unit tests of Algorithm 2 lines 76–87 over synthetic vote sets."""

    def setup_method(self):
        self.config = ProtocolConfig()
        self.own = txn("me", reads={"r": 0}, writes={"w": 1})
        self.own_entry = LogEntry.single(self.own)

    def test_no_votes_proposes_own(self):
        decision = enhanced_find_winning_val(
            outcome_of(reply(), reply(), reply()),
            self.own_entry, self.own, 3, self.config,
        )
        assert decision.kind == "value"
        assert decision.value == self.own_entry

    def test_minority_vote_with_full_responses_combines(self):
        other = txn("other", reads={"x": 0}, writes={"y": 1})
        voted = LogEntry.single(other)
        decision = enhanced_find_winning_val(
            outcome_of(
                reply(last_ballot=Ballot(1, "o"), last_value=voted),
                reply(), reply(),
            ),
            self.own_entry, self.own, 3, self.config,
        )
        assert decision.kind == "value"
        assert decision.combined
        assert decision.value.contains("me") and decision.value.contains("other")

    def test_combination_excludes_conflicting_candidates(self):
        # The candidate reads our write and we read its write: incompatible.
        other = txn("other", reads={"w": 0}, writes={"r": 1})
        voted = LogEntry.single(other)
        decision = enhanced_find_winning_val(
            outcome_of(
                reply(last_ballot=Ballot(1, "o"), last_value=voted),
                reply(), reply(),
            ),
            self.own_entry, self.own, 3, self.config,
        )
        assert decision.kind == "value"
        assert decision.value == self.own_entry

    def test_possible_hidden_majority_blocks_combination(self):
        """maxVotes + missing ≥ M ⇒ must not combine (Algorithm 2 l. 79)."""
        other = txn("other", writes={"y": 1})
        voted = LogEntry.single(other)
        # Only 2 of 3 responded; the missing vote could give `voted` 2/3.
        decision = enhanced_find_winning_val(
            outcome_of(
                reply(last_ballot=Ballot(1, "o"), last_value=voted),
                reply(),
            ),
            self.own_entry, self.own, 3, self.config,
        )
        assert decision.kind == "value"
        assert decision.value == voted  # basic rule: adopt the max vote
        assert not decision.combined

    def test_same_ballot_majority_promotes(self):
        winner = LogEntry.single(txn("other", writes={"y": 1}))
        ballot = Ballot(2, "o")
        decision = enhanced_find_winning_val(
            outcome_of(
                reply(last_ballot=ballot, last_value=winner),
                reply(last_ballot=ballot, last_value=winner),
                reply(),
            ),
            self.own_entry, self.own, 3, self.config,
        )
        assert decision.kind == "promote"
        assert decision.winner == winner

    def test_majority_containing_own_does_not_promote(self):
        combined = LogEntry.combined([
            txn("other", writes={"y": 1}),
            self.own,
        ])
        ballot = Ballot(2, "o")
        decision = enhanced_find_winning_val(
            outcome_of(
                reply(last_ballot=ballot, last_value=combined),
                reply(last_ballot=ballot, last_value=combined),
                reply(),
            ),
            self.own_entry, self.own, 3, self.config,
        )
        assert decision.kind == "value"
        assert decision.value == combined

    def test_split_ballot_majority_falls_back_to_basic_rule(self):
        """Safety refinement: per-value majority across different ballots is
        not a decision; adopt the max-ballot vote instead of promoting."""
        winner = LogEntry.single(txn("other", writes={"y": 1}))
        decision = enhanced_find_winning_val(
            outcome_of(
                reply(last_ballot=Ballot(1, "a"), last_value=winner),
                reply(last_ballot=Ballot(2, "b"), last_value=winner),
                reply(),
            ),
            self.own_entry, self.own, 3, self.config,
        )
        assert decision.kind == "value"
        assert decision.value == winner

    def test_combination_disabled_uses_basic_rule(self):
        config = ProtocolConfig(enable_combination=False)
        other = txn("other", writes={"y": 1})
        voted = LogEntry.single(other)
        decision = enhanced_find_winning_val(
            outcome_of(
                reply(last_ballot=Ballot(1, "o"), last_value=voted),
                reply(), reply(),
            ),
            self.own_entry, self.own, 3, config,
        )
        assert decision.kind == "value"
        assert decision.value == voted
        assert not decision.combined

    def test_promotion_disabled_uses_basic_rule(self):
        config = ProtocolConfig(enable_promotion=False)
        winner = LogEntry.single(txn("other", writes={"y": 1}))
        ballot = Ballot(2, "o")
        decision = enhanced_find_winning_val(
            outcome_of(
                reply(last_ballot=ballot, last_value=winner),
                reply(last_ballot=ballot, last_value=winner),
                reply(),
            ),
            self.own_entry, self.own, 3, config,
        )
        assert decision.kind == "value"
        assert decision.value == winner


class TestPromotionEndToEnd:
    def run_pair(self, second_reads, second_writes, **kwargs):
        """Client 2 overlaps client 1's commit window; returns outcomes."""
        cluster = preloaded(**kwargs)
        first = cluster.add_client("V1", protocol="paxos-cp")
        second = cluster.add_client("V2", protocol="paxos-cp")

        def first_proc():
            handle = yield from first.begin(GROUP)
            yield from first.read(handle, "row0", "a0")
            first.write(handle, "row0", "a0", "first-wins")
            return (yield from first.commit(handle))

        def second_proc():
            yield cluster.env.timeout(0.05)
            handle = yield from second.begin(GROUP)
            for item in second_reads:
                yield from second.read(handle, "row0", item)
            for item in second_writes:
                second.write(handle, "row0", item, "second")
            return (yield from second.commit(handle))

        p1 = cluster.env.process(first_proc())
        p2 = cluster.env.process(second_proc())
        cluster.run()
        return cluster, p1.value, p2.value

    def test_non_conflicting_loser_promotes_and_commits(self):
        cluster, first, second = self.run_pair(
            second_reads=["a5"], second_writes=["a6"],
        )
        assert first.committed and second.committed
        winners = sorted([first, second], key=lambda o: o.commit_position)
        assert winners[0].commit_position + 1 == winners[1].commit_position
        promoted = max([first, second], key=lambda o: o.promotions)
        assert promoted.promotions == 1
        cluster.check_invariants_all([first, second], cluster.settle())

    def test_conflicting_loser_aborts_with_promotion_conflict(self):
        # Second reads a0, which the winner writes.
        cluster, first, second = self.run_pair(
            second_reads=["a0"], second_writes=["a7"],
        )
        outcomes = [first, second]
        committed = [o for o in outcomes if o.committed]
        lost = [o for o in outcomes if not o.committed]
        assert len(committed) == 1 and len(lost) == 1
        assert lost[0].abort_reason is AbortReason.PROMOTION_CONFLICT
        cluster.check_invariants_all(outcomes, cluster.settle())

    def test_promotion_cap_zero_aborts_the_loser_with_promotion_cap(self):
        # Cap 0 is not basic Paxos: enhancedFindWinningVal still picks the
        # value (fig7_spec(300), seed 0: 87 commits at cap 0, 83 under basic).
        cluster, first, second = self.run_pair(
            second_reads=["a5"], second_writes=["a6"],
            max_promotions=0,
        )
        statuses = sorted([first.committed, second.committed])
        assert statuses == [False, True]
        loser = first if not first.committed else second
        assert loser.abort_reason is AbortReason.PROMOTION_CAP

    def test_promotion_disabled_aborts_as_lost(self):
        cluster, first, second = self.run_pair(
            second_reads=["a5"], second_writes=["a6"],
            enable_promotion=False,
        )
        loser = first if not first.committed else second
        assert loser.abort_reason is AbortReason.LOST_POSITION

    def test_many_waves_all_commit_without_conflicts(self):
        """Five clients writing disjoint attributes: CP commits them all."""
        cluster = preloaded()
        outcomes = []

        def make_proc(index):
            client = cluster.add_client(
                cluster.topology.names[index % 3], protocol="paxos-cp"
            )

            def run():
                yield cluster.env.timeout(index * 0.2)
                handle = yield from client.begin(GROUP)
                yield from client.read(handle, "row0", f"a{index}")
                client.write(handle, "row0", f"a{index}", f"v{index}")
                outcome = yield from client.commit(handle)
                outcomes.append(outcome)

            return cluster.env.process(run())

        for index in range(5):
            make_proc(index)
        cluster.run()
        assert len(outcomes) == 5
        assert all(outcome.committed for outcome in outcomes), [
            (o.transaction.tid, str(o.abort_reason)) for o in outcomes
        ]
        cluster.check_invariants_all(outcomes, cluster.settle())
