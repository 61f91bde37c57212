"""Client-side synod phase drivers (Algorithm 2's messaging skeleton).

:class:`SynodProposer` performs the mechanical parts of one Paxos instance —
broadcast PREPARE and gather LAST VOTEs, broadcast ACCEPT and count
SUCCESSes, broadcast APPLY — leaving the *value policy* (``findWinningVal``
vs. ``enhancedFindWinningVal``, combination, promotion) to the commit
protocols in :mod:`repro.core`.

Quorum gathering follows §5's observation: the client proceeds once a
majority has answered, but waits a short grace window for stragglers so the
response set usually holds more than a bare majority (that head-room is what
makes the combination rule's ``maxVotes + (D − |responseSet|) ≤ D/2`` test
useful in practice).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator

from repro.config import ProtocolConfig
from repro.net.node import Node
from repro.paxos import messages as m
from repro.paxos.ballot import Ballot

if TYPE_CHECKING:  # pragma: no cover
    from repro.wal.entry import LogEntry


@dataclass
class PhaseOutcome:
    """What a PREPARE or ACCEPT round yielded.

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
    # PREPARE
    # ------------------------------------------------------------------

    def _decisive(self, responses, chosen_is_terminal: bool) -> bool:
        """Whether more replies could still change the phase's outcome.

        The round is settled once a majority of positive replies is in hand,
        once so many *negative* replies arrived that a positive majority has
        become arithmetically impossible, or (prepare only) once any acceptor
        reported the instance already decided.  Without the negative rules a
        client talking to a partially-down deployment waits the full
        loss-detection timeout to learn what the replies it already holds
        prove — turning every such round into a ``timeout_ms`` stall.
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

    def prepare(self, ballot: Ballot) -> Generator:
        """Run one PREPARE round; returns a :class:`PhaseOutcome`.

        Completion rule: all services answered, or the outcome is already
        decided (see :meth:`_decisive`) plus the grace window, or the
        loss-detection timeout.
        """
        payload = m.PreparePayload(self.group, self.position, ballot)

        def enough(responses) -> bool:
            return self._decisive(responses, chosen_is_terminal=True)

        gather = self.node.request_many(
            self.services, m.PREPARE, payload,
            enough=enough,
            timeout_ms=self.config.timeout_ms,
            grace_ms=self.config.quorum_grace_ms,
        )
        responses = yield gather
        return self._summarize_prepare(responses)

    def _summarize_prepare(self, responses) -> PhaseOutcome:
        outcome = PhaseOutcome()
        for envelope in responses:
            reply: m.PrepareReply = envelope.payload
            outcome.replies.append((envelope.src, reply))
            if reply.success:
                outcome.successes += 1
            outcome.note_promised(reply.promised)
            if reply.chosen is not None and outcome.chosen is None:
                outcome.chosen = reply.chosen
        return outcome

    # ------------------------------------------------------------------
    # ACCEPT
    # ------------------------------------------------------------------

    def accept(self, ballot: Ballot, value: "LogEntry") -> Generator:
        """Run one ACCEPT round; returns a :class:`PhaseOutcome`."""
        payload = m.AcceptPayload(self.group, self.position, ballot, value)

        def enough(responses) -> bool:
            return self._decisive(responses, chosen_is_terminal=False)

        gather = self.node.request_many(
            self.services, m.ACCEPT, payload,
            enough=enough,
            timeout_ms=self.config.timeout_ms,
            grace_ms=0.0,  # nothing is learned from straggler SUCCESSes
        )
        responses = yield gather
        outcome = PhaseOutcome()
        for envelope in responses:
            reply: m.AcceptReply = envelope.payload
            outcome.replies.append((envelope.src, reply))
            if reply.success:
                outcome.successes += 1
            outcome.note_promised(reply.promised)
        return outcome

    # ------------------------------------------------------------------
    # APPLY
    # ------------------------------------------------------------------

    def apply(self, ballot: Ballot, value: "LogEntry") -> None:
        """Broadcast the decided value (fire-and-forget, Step 5)."""
        payload = m.ApplyPayload(self.group, self.position, ballot, value)
        for service in self.services:
            self.node.send(service, m.APPLY, payload)
