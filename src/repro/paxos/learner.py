"""Catch-up: learning decided values for missed log positions (§4.1).

"If a Transaction Service does not receive all Paxos messages for a log
position, it may not know the value for that log position when it receives a
read request.  If this happens, the Transaction Service executes a Paxos
instance for the missing log entry to learn the winning value.  Similarly,
when the Transaction Service recovers from a failure, it runs Paxos
instances to learn the values of log entries for transactions that committed
during its outage."

:class:`Learner` implements that, cheapest path first:

1. **LEARN round** — ask all replicas what they know and apply
   :func:`~repro.paxos.proposer.decided_vote`: a replica that has the
   decided value answers with it; failing that, a value accepted at the
   same ballot by a majority is provably decided.
2. **Full synod** — a :meth:`~repro.paxos.proposer.SynodProposer.round` at
   a fresh ballot that re-proposes the
   :func:`~repro.paxos.proposer.highest_vote` (the standard Paxos recovery
   move; it never changes a decided outcome).  If every vote is null the
   round declines: the position is undecided and the learner reports
   ``None`` — there is nothing to recover.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.config import ProtocolConfig
from repro.net.node import Node
from repro.paxos import messages as m
from repro.paxos.ballot import Ballot
from repro.paxos.proposer import SynodProposer, decided_vote, highest_vote

if TYPE_CHECKING:  # pragma: no cover
    from repro.wal.entry import LogEntry


class Learner:
    """Learns (or completes) the decision for one group's log positions."""

    def __init__(
        self,
        node: Node,
        group: str,
        services: list[str],
        config: ProtocolConfig,
    ) -> None:
        self.node = node
        self.group = group
        self.services = list(services)
        self.config = config
        self.majority = len(self.services) // 2 + 1
        # Learner instances need unique proposer identities (two catch-up
        # attempts for one position may re-propose *different* recovered
        # values, and Paxos forbids two values under one ballot).  The id is
        # drawn from a per-node counter — node names are unique, so the
        # identity is globally unique while staying lane-local.
        self._round = 0
        self._identity = f"learner:{node.name}:{node.next_learner_id()}"

    def _fresh_ballot(self, floor: Ballot | None = None) -> Ballot:
        self._round += 1
        round_number = self._round
        if floor is not None:
            round_number = max(round_number, floor.round + 1)
            self._round = round_number
        return Ballot(round_number, self._identity)

    # ------------------------------------------------------------------
    # Step 1: passive learning
    # ------------------------------------------------------------------

    def learn(self, position: int) -> Generator:
        """Ask replicas; returns the decided :class:`LogEntry` or ``None``."""
        payload = m.LearnPayload(self.group, position)

        def enough(responses) -> bool:
            return any(r.payload.chosen is not None for r in responses)

        gather = self.node.request_many(
            self.services, m.LEARN, payload,
            enough=enough,
            timeout_ms=self.config.timeout_ms,
            grace_ms=0.0,
        )
        responses = yield gather
        return decided_vote((r.payload for r in responses), self.majority)

    # ------------------------------------------------------------------
    # Step 2: active recovery
    # ------------------------------------------------------------------

    def learn_or_decide(self, position: int, max_attempts: int = 8) -> Generator:
        """Learn the decision, completing the instance if necessary.

        Returns the decided entry, or ``None`` when the position is provably
        still undecided (no acceptor has voted for anything) or recovery
        kept losing races for *max_attempts* rounds.
        """
        entry = yield from self.learn(position)
        if entry is not None:
            return entry
        proposer = SynodProposer(
            self.node, self.group, position, self.services, self.config
        )
        ballot = self._fresh_ballot()
        rng = self.node.env.rng.stream(f"learner.{self.node.name}")
        for _attempt in range(max_attempts):
            outcome = yield from proposer.round(ballot, _adopt_highest_vote)
            if outcome.kind in ("chosen", "decided"):
                return outcome.value
            if outcome.kind == "declined":
                return None  # provably undecided; nothing to recover
            yield self.node.env.timeout(rng.uniform(0, self.config.retry_backoff_ms))
            ballot = self._fresh_ballot(outcome.max_promised)
        return None


def _adopt_highest_vote(prepare) -> "LogEntry | None":
    """Re-propose the highest-ballot LAST VOTE; decline when none voted."""
    return highest_vote(reply for _src, reply in prepare.replies)
