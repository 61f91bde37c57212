"""The client side of one Paxos instance (Algorithm 2's messaging skeleton).

:meth:`SynodProposer.round` is the instance every caller runs: PREPARE,
ACCEPT of the value the caller's ``choose`` policy picks from the LAST
VOTEs, APPLY on a majority.  The policy (``findWinningVal``,
``enhancedFindWinningVal``, recovery's adopt-or-fill) and each caller's
walk, retry, ballot and backoff stay with the caller; :meth:`accept` alone
is the phase-2-only round of the leader fast path and the leased leader.
Two vote rules sit beside it: :func:`highest_vote` (the value to
re-propose) and :func:`decided_vote` (chosen somewhere, or accepted by a
majority at one ballot).

Quorum gathering follows §5's observation: the client proceeds once a
majority has answered, but waits a short grace window for stragglers so the
response set usually holds more than a bare majority (that head-room is what
makes the combination rule's ``maxVotes + (D − |responseSet|) ≤ D/2`` test
useful in practice).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Generator, Iterable, Literal, NamedTuple

from repro.config import ProtocolConfig
from repro.net.node import Node
from repro.paxos import messages as m
from repro.paxos.ballot import NULL_BALLOT, Ballot

if TYPE_CHECKING:  # pragma: no cover
    from repro.wal.entry import LogEntry


@dataclass
class PhaseOutcome:
    """What a PREPARE or ACCEPT phase yielded.

    ``replies`` is a list of ``(service_name, reply)`` pairs in arrival
    order; ``successes`` counts positive replies; ``chosen`` is set when any
    acceptor reported the instance already decided; ``max_promised`` is the
    highest ballot seen anywhere in the replies (for picking the next
    ballot after a defeat).
    """

    replies: list[tuple[str, object]] = field(default_factory=list)
    successes: int = 0
    chosen: "LogEntry | None" = None
    max_promised: Ballot | None = None

    def note_promised(self, ballot: Ballot) -> None:
        if self.max_promised is None or ballot > self.max_promised:
            self.max_promised = ballot


class Round(NamedTuple):
    """How one :meth:`SynodProposer.round` ended.

    ``kind``: ``"chosen"`` (an acceptor reported the decided ``value``;
    nothing was sent after PREPARE), ``"decided"`` (a majority accepted
    ``value``; APPLY went out), ``"declined"`` (``choose`` returned
    ``None``; no ACCEPT was sent), ``"no_promise"`` or ``"no_accept"`` (a
    phase fell short of a majority).  ``max_promised`` is the highest
    ballot seen in the phase that ended the round.
    """

    kind: Literal["chosen", "decided", "declined", "no_promise", "no_accept"]
    value: "LogEntry | None"
    max_promised: Ballot | None


def highest_vote(replies: Iterable) -> "LogEntry | None":
    """The highest-ballot vote among *replies*, or ``None`` if none voted.

    The standard Paxos re-proposal: it never changes a decided outcome.
    Test the result against ``None``: a no-op or marker entry is empty.
    """
    best_ballot, best_value = NULL_BALLOT, None
    for reply in replies:
        if reply.last_value is not None and reply.last_ballot > best_ballot:
            best_ballot, best_value = reply.last_ballot, reply.last_value
    return best_value


def decided_vote(replies: Iterable, majority: int) -> "LogEntry | None":
    """The provably decided value among *replies*, or ``None``.

    A value is decided iff some replica reports it chosen, or *majority*
    replicas hold it accepted at one ballot.  Consumes *replies* only up to
    the first chosen one, so a lazily-read iterable stops reading there.
    """
    decided, votes = None, {}
    for reply in replies:
        if reply.chosen is not None:
            return reply.chosen
        value = reply.last_value
        if value is not None and reply.last_ballot != NULL_BALLOT:
            key = (reply.last_ballot, value.vote_key)
            votes[key] = votes.get(key, 0) + 1
            if votes[key] >= majority:
                decided = value
    return decided


class SynodProposer:
    """Drives the phases of one Paxos instance from a client node."""

    def __init__(
        self,
        node: Node,
        group: str,
        position: int,
        services: list[str],
        config: ProtocolConfig,
    ) -> None:
        self.node = node
        self.group = group
        self.position = position
        self.services = list(services)
        self.config = config
        self.majority = len(self.services) // 2 + 1

    # ------------------------------------------------------------------
    # The round
    # ------------------------------------------------------------------

    def round(
        self,
        ballot: Ballot,
        choose: "Callable[[PhaseOutcome], LogEntry | None]",
    ) -> Generator:
        """Run one synod instance at *ballot*; returns a :class:`Round`.

        PREPARE; unless the instance is already chosen or the promises fall
        short of a majority, ACCEPT ``choose(prepare)`` (``None`` declines
        and sends nothing more); on a majority of SUCCESSes, APPLY.
        """
        prepare = yield from self.prepare(ballot)
        if prepare.chosen is not None:
            return Round("chosen", prepare.chosen, prepare.max_promised)
        if prepare.successes < self.majority:
            return Round("no_promise", None, prepare.max_promised)
        value = choose(prepare)
        if value is None:
            return Round("declined", None, prepare.max_promised)
        accept = yield from self.accept(ballot, value)
        if accept.successes < self.majority:
            return Round("no_accept", value, accept.max_promised)
        self.apply(ballot, value)
        return Round("decided", value, accept.max_promised)

    # ------------------------------------------------------------------
    # The phases
    # ------------------------------------------------------------------

    def _decisive(self, responses, chosen_is_terminal: bool) -> bool:
        """Whether more replies could still change the phase's outcome.

        The phase is settled once a majority of positive replies is in hand,
        once so many *negative* replies arrived that a positive majority has
        become arithmetically impossible, or (prepare only) once any acceptor
        reported the instance already decided.  Without the negative rules a
        client talking to a partially-down deployment waits the full
        loss-detection timeout to learn what the replies it already holds
        prove — turning every such phase into a ``timeout_ms`` stall.
        """
        successes = sum(1 for r in responses if r.payload.success)
        if successes >= self.majority:
            return True
        failures = len(responses) - successes
        if failures > len(self.services) - self.majority:
            return True
        if chosen_is_terminal:
            return any(r.payload.chosen is not None for r in responses)
        return False

    def _phase(self, kind: str, payload, is_prepare: bool,
               grace_ms: float) -> Generator:
        """Broadcast one phase's request; returns a :class:`PhaseOutcome`.

        Completion rule: all services answered, or the outcome is already
        decided (see :meth:`_decisive`) plus the grace window, or the
        loss-detection timeout.
        """
        def enough(responses) -> bool:
            return self._decisive(responses, chosen_is_terminal=is_prepare)

        responses = yield self.node.request_many(
            self.services, kind, payload,
            enough=enough,
            timeout_ms=self.config.timeout_ms,
            grace_ms=grace_ms,
        )
        outcome = PhaseOutcome()
        for envelope in responses:
            reply = envelope.payload
            outcome.replies.append((envelope.src, reply))
            if reply.success:
                outcome.successes += 1
            outcome.note_promised(reply.promised)
            if is_prepare and reply.chosen is not None and outcome.chosen is None:
                outcome.chosen = reply.chosen
        return outcome

    def prepare(self, ballot: Ballot) -> Generator:
        """Run one PREPARE phase; returns a :class:`PhaseOutcome`."""
        payload = m.PreparePayload(self.group, self.position, ballot)
        return self._phase(m.PREPARE, payload, True, self.config.quorum_grace_ms)

    def accept(self, ballot: Ballot, value: "LogEntry") -> Generator:
        """Run one ACCEPT phase; returns a :class:`PhaseOutcome`.

        Nothing is learned from straggler SUCCESSes, so no grace window.
        """
        payload = m.AcceptPayload(self.group, self.position, ballot, value)
        return self._phase(m.ACCEPT, payload, False, 0.0)

    def apply(self, ballot: Ballot, value: "LogEntry") -> None:
        """Broadcast the decided value (fire-and-forget, Step 5)."""
        payload = m.ApplyPayload(self.group, self.position, ballot, value)
        for service in self.services:
            self.node.send(service, m.APPLY, payload)
