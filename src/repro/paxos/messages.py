"""Message payloads of the commit protocol (Figure 3).

Five message rounds decide one log position: PREPARE → LAST VOTE → ACCEPT →
SUCCESS → APPLY.  The payloads here correspond one-to-one; the LAST VOTE and
SUCCESS responses are the ``.response`` envelopes carrying
:class:`PrepareReply` and :class:`AcceptReply`.

LEARN is the catch-up request of §4.1 ("the Transaction Service executes a
Paxos instance for the missing log entry to learn the winning value"); we
give it an explicit read-only message rather than piggybacking on PREPARE so
that catch-up cannot disturb in-flight instances.

Every payload and reply is a :class:`typing.NamedTuple`: immutable, with
the ``repr`` and ``hash`` a frozen dataclass of the same fields has (both
hash the field tuple), built by one C tuple allocation instead of a
generated ``__init__`` per field.  A record therefore also equals a plain
tuple of the same fields; nothing compares one against a tuple.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from repro.paxos.ballot import Ballot

if TYPE_CHECKING:  # pragma: no cover
    from repro.wal.entry import LogEntry

#: Message type strings, used when registering node handlers.
PREPARE = "paxos.prepare"
ACCEPT = "paxos.accept"
APPLY = "paxos.apply"
LEARN = "paxos.learn"
LEADER_CLAIM = "leader.claim"


class PreparePayload(NamedTuple):
    """Step 1: a proposer asks for promises at *ballot*."""

    group: str
    position: int
    ballot: Ballot


class PrepareReply(NamedTuple):
    """Step 2: the acceptor's LAST VOTE (or refusal).

    ``promised`` is the acceptor's ``nextBal`` after handling the message —
    on refusal the proposer uses it to pick a higher ballot (Algorithm 1
    line 14 sends the current state back with the failure).

    ``chosen`` short-circuits the instance: if the acceptor already knows
    the decided value (its APPLY arrived), there is nothing left to vote on.
    """

    success: bool
    promised: Ballot
    last_ballot: Ballot
    last_value: "LogEntry | None"
    chosen: "LogEntry | None" = None


class AcceptPayload(NamedTuple):
    """Step 3: the proposer asks acceptors to vote for *value* at *ballot*."""

    group: str
    position: int
    ballot: Ballot
    value: "LogEntry"


class AcceptReply(NamedTuple):
    """Step 4: SUCCESS (vote recorded) or refusal with the promised ballot."""

    success: bool
    promised: Ballot


class ApplyPayload(NamedTuple):
    """Step 5: the decided value, written to the log (Algorithm 1 line 21)."""

    group: str
    position: int
    ballot: Ballot
    value: "LogEntry"


class LearnPayload(NamedTuple):
    """Catch-up: what does this replica know about (group, position)?"""

    group: str
    position: int


class LearnReply(NamedTuple):
    """The replica's knowledge: decided value if any, else its last vote."""

    chosen: "LogEntry | None"
    last_ballot: Ballot
    last_value: "LogEntry | None"


class LeaderClaimPayload(NamedTuple):
    """Fast-path arbitration (§4.1 optimization).

    The client local to the winner of position ``position - 1`` is the
    leader's designated site; the first client to claim a position with its
    leader may skip the prepare phase.
    """

    group: str
    position: int
    claimant: str


class LeaderClaimReply(NamedTuple):
    """Whether the claimant is first (fast path granted)."""

    granted: bool
