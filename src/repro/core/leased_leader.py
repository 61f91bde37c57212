"""EXTENSION: the long-term-leader design the paper sketches (§7, §8).

"One could envision ... using either the full Paxos algorithm or an atomic
broadcast protocol ...  The leader could act as the transaction manager,
check each new transaction against previously committed transactions ... to
determine if the transaction can be committed.  The leader could then assign
the transaction a position in the log and send this log entry to all
replicas.  Such a design would require fewer rounds of messaging per
transaction than in our proposed system, but a greater amount of work would
fall on a single site and could possibly be a performance bottleneck."
(§7) — and §8 names it as future work.

This module implements that sketch so the ablation benchmarks can compare
it against Paxos-CP:

* One datacenter (the group's home) hosts the **leader**.  Clients send
  their finished transaction to it in a single request.
* The leader performs a *fine-grained* conflict check — the transaction's
  read set against the writes committed after its read position (the same
  reads-from predicate Paxos-CP uses) — assigns the next log position, and
  replicates the entry with one ACCEPT round at its lease ballot
  (multi-Paxos steady state: no prepare needed while the lease holds).
* Total message rounds per commit: client→leader, leader→replicas,
  replicas→leader, leader→client — matching the §7 claim of fewer rounds.
* The leader serves **one request per transaction id**.  The network may
  duplicate the client's request (UDP); a second copy served on its own
  would take a second slot for the same transaction, or abort while the
  first copy commits.  A duplicate instead waits for the first copy's
  reply and returns it.  The table is volatile, like the rest of the
  leader's ordering state: a copy that arrives after a crash is served
  afresh by the next incarnation.

**Crash safety.**  The leader's ordering state (next position, recent
writes, per-group locks) is volatile; what survives a crash is durable and
small:

* the **lease incarnation** (``_meta/lease_epoch/<node>``) — bumped on every
  restart, it makes the lease ballot ``Ballot(LEASE_ROUND + incarnation,
  node)`` strictly outrank every ballot the previous incarnation ever used,
  so stale in-flight ACCEPTs from before the crash can never override the
  restarted leader;
* the **head intent** (``_meta/lease_head/<group>``) — written *before* the
  ACCEPT round for an assigned position, it upper-bounds the slots the
  previous incarnation may have touched, so recovery knows exactly how far
  to walk.

On restart the leader first **waits out the lease** it cannot prove expired
(``lease_ms`` from the restart instant): until then every commit request is
refused with :data:`~repro.model.AbortReason.SERVICE_UNAVAILABLE`, which is
what rules out a dual-leader window — the new incarnation serves nothing
while decisions of the old one could still be in flight.  The first commit
per group then runs a **prepare-fenced recovery walk** over the slots
between the locally-applied prefix and the durable head intent: each slot
is completed with a full synod round at the new incarnation's ballot
(already-decided values are learned, the highest-ballot vote is adopted,
and a slot no acceptor in the prepare quorum ever voted in is filled with
a no-op — the fence guarantees the old ballot can never reach a majority
there, and the fill keeps the log contiguous).  Only after the walk does
position assignment resume, from above the head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.model import AbortReason, Item, Transaction, TransactionStatus
from repro.paxos.ballot import Ballot
from repro.paxos.proposer import PhaseOutcome, SynodProposer, highest_vote
from repro.sim.events import Event
from repro.sim.sync import Lock
from repro.wal.entry import LogEntry

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.client import CommitContext, TransactionClient
    from repro.core.service import TransactionService

#: Message type for the single-round leader commit.
LEADER_COMMIT = "leader.commit"

#: Base of the lease ballot round: above anything client retry loops
#: generate.  The effective round is ``LEASE_ROUND + incarnation``, so each
#: restart outranks all of the previous incarnation's traffic.
LEASE_ROUND = 1_000_000


def lease_epoch_key(node_name: str) -> str:
    """Durable row holding a leader node's lease incarnation counter."""
    return f"_meta/lease_epoch/{node_name}"


def lease_head_key(group: str) -> str:
    """Durable row holding the highest position the leader ever assigned."""
    return f"_meta/lease_head/{group}"


@dataclass(frozen=True)
class LeaderCommitRequest:
    transaction: Transaction


@dataclass(frozen=True)
class LeaderCommitReply:
    status: TransactionStatus
    position: int | None = None
    reason: AbortReason | None = None


class GroupLeaderState:
    """Per-group ordering state at the leader site (volatile)."""

    def __init__(self, env) -> None:
        self.lock = Lock(env)
        self.next_position: int | None = None
        #: Whether the recovery walk for this group has completed this
        #: incarnation.  A fresh (never-crashed) leader's walk is empty —
        #: its head intent matches the applied prefix.
        self.recovered = False
        #: Writes of entries assigned but possibly not yet applied locally,
        #: keyed by position — consulted by the conflict check so pipelined
        #: commits see each other.
        self.recent_writes: dict[int, frozenset[Item]] = {}


class LeasedLeaderHost:
    """Leader-side state machine, crash-restart aware.

    All in-memory state here (``states``, the cached incarnation, the
    serve-after gate) is volatile and reset wholesale by
    :meth:`on_crash` / :meth:`on_restart`; everything recovery needs lives
    under the store's durable ``_meta/`` and ``_paxos/`` prefixes.
    """

    #: Re-send cadence for an assigned slot whose first ACCEPT round
    #: failed, and the attempt cap (generous: every fault schedule in the
    #: repo heals orders of magnitude sooner).
    SETTLE_SPACING_MS = 100.0
    MAX_SETTLE_ATTEMPTS = 64

    def __init__(self, service: "TransactionService") -> None:
        self.service = service
        self.states: dict[str, GroupLeaderState] = {}
        #: Requests being served, by tid: ``None`` until a duplicate copy
        #: arrives, then the event the copies wait on for the reply.
        self._serving: dict[str, Event | None] = {}
        #: The reply each served tid was given, for copies that arrive late.
        self._replies: dict[str, LeaderCommitReply] = {}
        self._incarnation: int | None = None
        #: Until this simulated instant, commit requests are refused — the
        #: restarted leader waits out any lease it cannot prove expired.
        self.serve_after_ms = 0.0

    # ------------------------------------------------------------------
    # Crash-restart hooks (driven by Cluster.crash_service/restart_service)
    # ------------------------------------------------------------------

    def on_crash(self) -> None:
        """Drop every piece of volatile leader state.

        Fresh :class:`GroupLeaderState` objects also replace the per-group
        locks: a lock whose holder was killed mid-critical-section would
        otherwise grant to (or starve behind) dead waiters.
        """
        self.states = {}
        self._serving = {}
        self._replies = {}
        self._incarnation = None

    def on_restart(self, now: float) -> None:
        """Bump the durable incarnation and start the lease wait-out."""
        store = self.service.store
        key = lease_epoch_key(self.service.node.name)
        incarnation = store.read_attribute(key, "incarnation", default=0) + 1
        store.write(key, {"incarnation": incarnation})
        self._incarnation = incarnation
        self.serve_after_ms = now + self.service.config.lease_ms

    def ballot(self) -> Ballot:
        """The lease ballot of the current incarnation."""
        if self._incarnation is None:
            self._incarnation = self.service.store.read_attribute(
                lease_epoch_key(self.service.node.name),
                "incarnation", default=0,
            )
        return Ballot(LEASE_ROUND + self._incarnation, self.service.node.name)

    # ------------------------------------------------------------------
    # Durable intents
    # ------------------------------------------------------------------

    def _write_head_intent(self, group: str, position: int) -> None:
        """Durably record *position* as assigned, before its ACCEPT round.

        Monotone and synchronous (no latency model): positions are assigned
        under the group lock in increasing order, and the write must be on
        disk before any replica can vote on the slot — otherwise a crash
        between assignment and broadcast would leave a slot recovery does
        not know to walk.
        """
        key = lease_head_key(group)
        store = self.service.store
        if position > store.read_attribute(key, "head", default=0):
            store.write(key, {"head": position})

    # ------------------------------------------------------------------
    # Recovery walk
    # ------------------------------------------------------------------

    def _recover_group(self, group: str, state: GroupLeaderState) -> Generator:
        """Complete every slot up to the durable head intent; returns bool.

        Runs under the group lock, once per (group, incarnation).  Each
        unknown slot gets a full synod round at the incarnation ballot: the
        prepare fences a majority against the previous incarnation, then
        the highest-ballot vote (if any) is re-proposed — so a value the
        old leader drove to a majority is preserved — and a slot with no
        vote in the fenced quorum is settled with a no-op fill (it can
        never decide at the old ballot once the fence holds).
        """
        service = self.service
        replica = service.replica(group)
        head = service.store.read_attribute(
            lease_head_key(group), "head", default=0
        )
        ballot = self.ballot()
        for slot in range(replica.read_position() + 1, head + 1):
            if replica.is_chosen(slot):
                continue
            proposer = SynodProposer(
                service.node, group, slot,
                service._peers or [service.node.name], service.config,
            )
            outcome = yield from proposer.round(ballot, adopt_or_fill)
            if outcome.kind not in ("chosen", "decided"):
                return False
            replica.record_chosen(slot, outcome.value)
        state.next_position = max(head, replica.read_position()) + 1
        state.recovered = True
        return True

    # ------------------------------------------------------------------
    # The commit handler
    # ------------------------------------------------------------------

    def state_for(self, group: str) -> GroupLeaderState:
        state = self.states.get(group)
        if state is None:
            state = GroupLeaderState(self.service.env)
            self.states[group] = state
        return state

    def on_leader_commit(self, msg) -> Generator:
        """Serve one commit request; a duplicate copy gets the same reply."""
        request: LeaderCommitRequest = msg.payload
        tid = request.transaction.tid
        reply = self._replies.get(tid)
        if reply is not None:
            return reply
        if tid in self._serving:
            waiting = self._serving[tid]
            if waiting is None:
                waiting = self._serving[tid] = Event(self.service.env)
            reply = yield waiting
            return reply
        self._serving[tid] = None
        reply = yield from self._serve(request.transaction)
        self._replies[tid] = reply
        waiting = self._serving.pop(tid)
        if waiting is not None:
            waiting.succeed(reply)
        return reply

    def _serve(self, txn: Transaction) -> Generator:
        """Check, order and replicate one transaction; returns the reply."""
        service = self.service
        if service.env.now < self.serve_after_ms:
            # Lease wait-out: the restarted leader must not serve while a
            # lease it cannot prove expired could still be honoured.
            return LeaderCommitReply(
                TransactionStatus.ABORTED,
                reason=AbortReason.SERVICE_UNAVAILABLE,
            )
        state = self.state_for(txn.group)
        yield state.lock.acquire()
        try:
            replica = service.replica(txn.group)
            if not state.recovered:
                recovered = yield from self._recover_group(txn.group, state)
                if not recovered:
                    return LeaderCommitReply(
                        TransactionStatus.ABORTED, reason=AbortReason.TIMEOUT
                    )
            # Fine-grained conflict check: the transaction's reads against
            # every write committed (or assigned) after its read position.
            for position in range(txn.read_position + 1, state.next_position):
                writes = state.recent_writes.get(position)
                if writes is None:
                    entry = replica.chosen_entry(position)
                    writes = entry.union_write_set() if entry else frozenset()
                    state.recent_writes[position] = writes
                if txn.read_set & writes:
                    return LeaderCommitReply(
                        TransactionStatus.ABORTED,
                        reason=AbortReason.PROMOTION_CONFLICT,
                    )
            position = state.next_position
            state.next_position = position + 1
            state.recent_writes[position] = txn.write_set
            self._write_head_intent(txn.group, position)
        finally:
            state.lock.release()

        entry = LogEntry.single(txn)
        ballot = self.ballot()
        proposer = SynodProposer(
            service.node, txn.group, position,
            service._peers or [service.node.name], service.config,
        )
        accept = yield from proposer.accept(ballot, entry)
        if accept.successes >= proposer.majority:
            proposer.apply(ballot, entry)
            return LeaderCommitReply(TransactionStatus.COMMITTED, position=position)
        # Could not replicate (e.g. partition): report a timeout abort.  The
        # slot is not reused — its head intent is durable — so a background
        # settle process keeps re-sending the ACCEPT until the slot decides
        # (the multi-Paxos leader's re-send; the value may land after the
        # client's timeout, which the lenient-timeout reading of L1 covers).
        # If this leader crashes first, the settle process dies with it and
        # the next incarnation's recovery walk fences and settles the slot.
        process = service.env.process(
            self._settle_slot(txn.group, position, ballot, entry),
            name=f"{service.node.name}:settle:{txn.group}:{position}",
            lane=service.lane,
        )
        service.node.adopt(process)
        return LeaderCommitReply(
            TransactionStatus.ABORTED, reason=AbortReason.TIMEOUT
        )

    def _settle_slot(self, group: str, position: int, ballot: Ballot,
                     entry: LogEntry) -> Generator:
        """Re-send the ACCEPT for an assigned slot until it decides.

        The value and ballot never change, so every re-send is idempotent
        Paxos traffic: the slot can only decide this entry (or a later
        incarnation's fenced settlement), never a second value.  Without
        this, a transient loss of the majority would leave a permanent gap
        in the log below already-decided positions — breaking (L3) log
        contiguity even though no safety rule was violated.
        """
        service = self.service
        replica = service.replica(group)
        proposer = SynodProposer(
            service.node, group, position,
            service._peers or [service.node.name], service.config,
        )
        for _attempt in range(self.MAX_SETTLE_ATTEMPTS):
            yield service.env.timeout(self.SETTLE_SPACING_MS)
            if replica.is_chosen(position):
                return
            accept = yield from proposer.accept(ballot, entry)
            if accept.successes >= proposer.majority:
                proposer.apply(ballot, entry)
                replica.record_chosen(position, entry)
                return


def adopt_or_fill(prepare: PhaseOutcome) -> LogEntry:
    """The recovery walk's value: the highest-ballot LAST VOTE, else a no-op.

    Where no acceptor in the fenced quorum voted, the old incarnation's
    value can no longer decide, so the classic multi-Paxos no-op keeps the
    log contiguous (L3) without applying anything.
    """
    vote = highest_vote(reply for _src, reply in prepare.replies)
    return LogEntry.noop() if vote is None else vote


def install_leased_leader(service: "TransactionService") -> LeasedLeaderHost:
    """Attach a :class:`LeasedLeaderHost` to a Transaction Service."""
    host = LeasedLeaderHost(service)
    service.lease_host = host
    service.node.on(LEADER_COMMIT, host.on_leader_commit)
    return host


class LeasedLeaderCommit:
    """Client side: one request to the leader decides the transaction."""

    name = "leased-leader"

    def __init__(self, client: "TransactionClient") -> None:
        self.client = client
        self.config = client.config

    def commit(self, context: "CommitContext") -> Generator:
        txn = context.transaction
        leader_service = self.client.service_in(
            context.home_dc, context.transaction.group
        )
        response = yield self.client.node.request(
            leader_service, LEADER_COMMIT, LeaderCommitRequest(txn),
            timeout_ms=self.config.timeout_ms,
        )
        if response is None:
            context.record_abort(AbortReason.TIMEOUT)
            return TransactionStatus.ABORTED
        reply: LeaderCommitReply = response.payload
        if reply.status is TransactionStatus.COMMITTED:
            context.record_commit(position=reply.position, entry=None)
            return TransactionStatus.COMMITTED
        context.record_abort(reply.reason or AbortReason.TIMEOUT)
        return TransactionStatus.ABORTED
