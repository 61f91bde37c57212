"""Tests for the synod phase driver, its round and the two vote rules."""

import pytest

from repro.core.commit_basic import find_winning_val
from repro.core.leased_leader import adopt_or_fill
from repro.paxos import messages as m
from repro.paxos.ballot import NULL_BALLOT, Ballot
from repro.paxos.proposer import (
    PhaseOutcome,
    Round,
    SynodProposer,
    decided_vote,
    highest_vote,
)
from repro.wal.entry import LogEntry
from tests.conftest import make_cluster
from tests.helpers import txn
from tests.paxos.conftest import MiniDeployment


def value_of(tid):
    return LogEntry.single(txn(tid, writes={"a": tid}))


def drive(env, generator):
    process = env.process(generator)
    env.run()
    if not process.ok:
        raise process.value
    return process.value


class TestPreparePhase:
    def test_gathers_all_promises(self, env, deployment):
        client = deployment.client_node()
        proposer = SynodProposer(client, "g", 1, deployment.service_names,
                                 deployment.config)
        outcome = drive(env, proposer.prepare(Ballot(1, client.name)))
        assert outcome.successes == 3
        assert outcome.chosen is None
        assert all(reply.last_value is None for _s, reply in outcome.replies)

    def test_refusals_reported_with_promised(self, env, deployment):
        first = deployment.client_node()
        second = deployment.client_node()
        high = SynodProposer(first, "g", 1, deployment.service_names,
                             deployment.config)
        drive(env, high.prepare(Ballot(10, first.name)))
        low = SynodProposer(second, "g", 1, deployment.service_names,
                            deployment.config)
        outcome = drive(env, low.prepare(Ballot(1, second.name)))
        assert outcome.successes == 0
        assert outcome.max_promised == Ballot(10, first.name)

    def test_unreachable_majority_times_out_with_partial(self, env):
        deployment = MiniDeployment(env, n=3)
        deployment.network.take_down("D1")
        deployment.network.take_down("D2")
        client = deployment.client_node()
        proposer = SynodProposer(client, "g", 1, deployment.service_names,
                                 deployment.config)
        outcome = drive(env, proposer.prepare(Ballot(1, client.name)))
        assert outcome.successes == 1  # only the local acceptor answered


class TestAcceptApply:
    def test_accept_records_votes(self, env, deployment):
        client = deployment.client_node()
        proposer = SynodProposer(client, "g", 1, deployment.service_names,
                                 deployment.config)
        ballot = Ballot(1, client.name)
        drive(env, proposer.prepare(ballot))
        value = value_of("t1")
        outcome = drive(env, proposer.accept(ballot, value))
        # The accept gather completes at quorum (grace 0): at least a
        # majority of SUCCESS votes, not necessarily all of them.
        assert outcome.successes >= proposer.majority

    def test_full_instance_decides_everywhere(self, env, deployment):
        client = deployment.client_node()
        proposer = SynodProposer(client, "g", 1, deployment.service_names,
                                 deployment.config)
        ballot = Ballot(1, client.name)
        value = value_of("t1")
        drive(env, proposer.prepare(ballot))
        drive(env, proposer.accept(ballot, value))
        proposer.apply(ballot, value)
        env.run()
        assert deployment.chosen_values("g", 1) == [value, value, value]

    def test_accept_refused_after_higher_promise(self, env, deployment):
        first = deployment.client_node()
        second = deployment.client_node()
        low = SynodProposer(first, "g", 1, deployment.service_names,
                            deployment.config)
        low_ballot = Ballot(1, first.name)
        drive(env, low.prepare(low_ballot))
        high = SynodProposer(second, "g", 1, deployment.service_names,
                             deployment.config)
        drive(env, high.prepare(Ballot(5, second.name)))
        outcome = drive(env, low.accept(low_ballot, value_of("t1")))
        assert outcome.successes == 0
        assert outcome.max_promised == Ballot(5, second.name)

    def test_chosen_shortcut_on_prepare(self, env, deployment):
        first = deployment.client_node()
        proposer = SynodProposer(first, "g", 1, deployment.service_names,
                                 deployment.config)
        ballot = Ballot(1, first.name)
        value = value_of("t1")
        drive(env, proposer.prepare(ballot))
        drive(env, proposer.accept(ballot, value))
        proposer.apply(ballot, value)
        env.run()
        second = deployment.client_node()
        late = SynodProposer(second, "g", 1, deployment.service_names,
                             deployment.config)
        outcome = drive(env, late.prepare(Ballot(9, second.name)))
        assert outcome.chosen == value


def sent_by_type(deployment) -> dict:
    """The proposer's requests sent so far (replies left out), by type."""
    by_type = deployment.network.stats.by_type
    return {kind: by_type[kind] for kind in (m.PREPARE, m.ACCEPT, m.APPLY)
            if kind in by_type}


def new_messages(before: dict, after: dict) -> dict:
    return {kind: after[kind] - before.get(kind, 0)
            for kind in after if after[kind] != before.get(kind, 0)}


class TestRound:
    """``SynodProposer.round``: one instance, each way it can end."""

    def proposer(self, deployment):
        client = deployment.client_node()
        return SynodProposer(client, "g", 1, deployment.service_names,
                             deployment.config), client

    def test_decided_accepts_applies_and_reports_the_value(self, env, deployment):
        proposer, client = self.proposer(deployment)
        value = value_of("t1")
        seen = []

        def choose(prepare):
            seen.append(prepare.successes)
            return value

        outcome = drive(env, proposer.round(Ballot(1, client.name), choose))
        env.run()
        assert outcome.kind == "decided"
        assert outcome.value == value
        assert seen == [3]
        assert sent_by_type(deployment) == {m.PREPARE: 3, m.ACCEPT: 3,
                                            m.APPLY: 3}
        assert deployment.chosen_values("g", 1) == [value, value, value]

    def test_chosen_sends_nothing_after_prepare(self, env, deployment):
        first, first_client = self.proposer(deployment)
        value = value_of("t1")
        drive(env, first.round(Ballot(1, first_client.name), lambda _p: value))
        env.run()
        late, late_client = self.proposer(deployment)
        before = sent_by_type(deployment)

        def choose(_prepare):
            raise AssertionError("a chosen instance has nothing to choose")

        outcome = drive(env, late.round(Ballot(9, late_client.name), choose))
        env.run()
        assert outcome.kind == "chosen"
        assert outcome.value == value
        assert set(new_messages(before, sent_by_type(deployment))) == {m.PREPARE}

    def test_declined_sends_no_accept(self, env, deployment):
        proposer, client = self.proposer(deployment)
        outcome = drive(env, proposer.round(Ballot(1, client.name),
                                            lambda _prepare: None))
        env.run()
        assert outcome == Round("declined", None, Ballot(1, client.name))
        assert sent_by_type(deployment) == {m.PREPARE: 3}
        assert deployment.chosen_values("g", 1) == []

    def test_no_promise_skips_choose(self, env):
        deployment = MiniDeployment(env, n=3)
        deployment.network.take_down("D1")
        deployment.network.take_down("D2")
        proposer, client = self.proposer(deployment)

        def choose(_prepare):
            raise AssertionError("no majority promised")

        outcome = drive(env, proposer.round(Ballot(1, client.name), choose))
        assert outcome.kind == "no_promise"
        assert outcome.value is None
        assert sent_by_type(deployment) == {m.PREPARE: 3}

    def test_no_accept_reports_the_value_and_sends_no_apply(self, env, deployment):
        proposer, client = self.proposer(deployment)
        value = value_of("t1")

        def choose(_prepare):
            # The majority vanishes between the two phases.
            deployment.network.take_down("D1")
            deployment.network.take_down("D2")
            return value

        outcome = drive(env, proposer.round(Ballot(1, client.name), choose))
        assert outcome.kind == "no_accept"
        assert outcome.value == value
        assert sent_by_type(deployment) == {m.PREPARE: 3, m.ACCEPT: 3}

    def test_refused_round_reports_the_higher_promise(self, env, deployment):
        high, high_client = self.proposer(deployment)
        drive(env, high.prepare(Ballot(10, high_client.name)))
        low, low_client = self.proposer(deployment)
        outcome = drive(env, low.round(Ballot(1, low_client.name),
                                       lambda _p: value_of("t1")))
        assert outcome.kind == "no_promise"
        assert outcome.max_promised == Ballot(10, high_client.name)


def vote(ballot, value, success=True):
    return m.PrepareReply(success, ballot, ballot, value)


def outcome_of(*replies):
    return PhaseOutcome(
        replies=[(f"acc{i}", reply) for i, reply in enumerate(replies)],
        successes=sum(reply.success for reply in replies),
    )


class TestVoteRules:
    def test_highest_vote_picks_the_highest_ballot(self):
        low, high = value_of("t1"), value_of("t2")
        replies = [vote(Ballot(1, "a"), low), vote(Ballot(3, "b"), high),
                   m.PrepareReply(True, Ballot(4, "c"), NULL_BALLOT, None)]
        assert highest_vote(replies) is high
        assert highest_vote([replies[2]]) is None
        assert highest_vote([]) is None

    def test_decided_vote_needs_a_majority_at_one_ballot(self):
        value = value_of("t1")
        split = [m.LearnReply(None, Ballot(1, "a"), value),
                 m.LearnReply(None, Ballot(2, "b"), value),
                 m.LearnReply(None, NULL_BALLOT, None)]
        assert decided_vote(split, majority=2) is None
        agreed = [split[0], split[0], split[2]]
        assert decided_vote(agreed, majority=2) is value

    def test_decided_vote_stops_at_the_first_chosen_reply(self):
        value = value_of("t1")
        consumed = []

        def replies():
            for reply in (m.LearnReply(None, NULL_BALLOT, None),
                          m.LearnReply(value, Ballot(1, "a"), value),
                          m.LearnReply(None, NULL_BALLOT, None)):
                consumed.append(reply)
                yield reply

        assert decided_vote(replies(), majority=2) is value
        assert len(consumed) == 2

    @pytest.mark.parametrize("empty", [
        LogEntry.noop(),
        LogEntry.marker(True, "gt1", ("g", "h")),
    ], ids=["noop", "marker"])
    def test_an_empty_highest_vote_is_still_the_vote(self, empty):
        # A LogEntry has a length, so a no-op or a 2PC marker vote is falsy:
        # a ``highest_vote(...) or fallback`` would drop it.
        prepare = outcome_of(vote(Ballot(1, "a"), value_of("t1")),
                             vote(Ballot(2, "b"), empty))
        assert not empty
        assert find_winning_val(prepare, value_of("own")) is empty
        assert adopt_or_fill(prepare) is empty

    def test_adopt_or_fill_fills_a_voteless_slot_with_a_noop(self):
        prepare = outcome_of(m.PrepareReply(True, Ballot(1, "a"), NULL_BALLOT, None))
        assert adopt_or_fill(prepare).kind == "noop"


class TestOfflineReads:
    def test_a_position_chosen_at_the_first_datacenter_costs_one_read(self):
        cluster = make_cluster()
        value = value_of("t1")
        # Every replica knows the decision, so finalize's own record step
        # reads nothing; what is left is the decided-value scan.
        for replica in cluster.replicas("g"):
            replica.record_chosen(1, value)
        stores = [cluster.services[dc].store for dc in cluster.topology.names]

        def reads():
            return sum(store.op_counts["read"] for store in stores)

        before = reads()
        assert cluster.finalize("g") == {1: value}
        assert reads() - before == 1
