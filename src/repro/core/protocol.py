"""Shared machinery of the Paxos-based commit protocols.

Both basic Paxos (Algorithm 2) and Paxos-CP drive the same message skeleton
— leader check, prepare, accept, apply, with randomized backoff between
retries — and the same commit loop over ``read position + 1``, ``+ 2``, ….
They differ in exactly two places: the *value policy* applied between
prepare and accept (``choose_value``: ``findWinningVal`` for basic,
``enhancedFindWinningVal`` for CP) and whether a lost position ends the
transaction (``lost_position_ends``: always under 1SR for basic, only with
promotion switched off for CP).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Literal

from repro.config import IsolationLevel, ProtocolConfig
from repro.core.isolation import conflict_abort_reason
from repro.model import AbortReason, Item, Transaction, TransactionStatus
from repro.paxos import messages as m
from repro.paxos.ballot import Ballot, fast_path_ballot
from repro.paxos.proposer import PhaseOutcome, SynodProposer
from repro.wal.entry import LogEntry

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.client import CommitContext, TransactionClient


@dataclass(frozen=True)
class ValueDecision:
    """What ``choose_value`` decided to do with a prepare outcome.

    ``kind``:
      * ``"value"`` — run the accept phase with ``value``;
      * ``"promote"`` — the position is decided for ``winner`` (not
        containing us); stop competing here (§5: "it stops executing the
        commit protocol before sending accept messages").
    """

    kind: Literal["value", "promote"]
    value: LogEntry | None = None
    winner: LogEntry | None = None
    combined: bool = False


@dataclass
class PositionResult:
    """Outcome of competing for one log position.

    ``kind``:
      * ``"committed"`` — our transaction is in the decided entry;
      * ``"lost"`` — the position decided without us (``entry`` = winner);
      * ``"timeout"`` — could not assemble quorums before giving up.
    """

    kind: Literal["committed", "lost", "timeout"]
    entry: LogEntry | None = None
    fast_path: bool = False
    attempts: int = 0


class PaxosCommitBase:
    """The prepare/accept/apply skeleton and commit loop of both protocols."""

    #: Subclass marker used in metrics and logs.
    name = "paxos-base"

    def __init__(self, client: "TransactionClient") -> None:
        self.client = client
        self.config: ProtocolConfig = client.config
        self._rng = client.env.rng.stream(f"protocol.{client.node.name}")

    # ------------------------------------------------------------------
    # The two policy hooks
    # ------------------------------------------------------------------

    def choose_value(
        self,
        prepare: PhaseOutcome,
        own_entry: LogEntry,
        txn: Transaction,
        n_services: int,
    ) -> ValueDecision:
        """Decide the accept-phase value from the LAST VOTE responses."""
        raise NotImplementedError

    def lost_position_ends(self, isolation: IsolationLevel) -> bool:
        """Whether losing a position aborts the transaction outright
        (``lost_position``) instead of moving on to the next one."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # The commit loop
    # ------------------------------------------------------------------

    def commit(self, context: "CommitContext") -> Generator:
        """Compete for ``read position + 1``, ``+ 2``, … until committed or
        refused; fills in the outcome on *context*.

        Every lost position adds the winner's writes to the concurrent write
        set, and the run's isolation predicate
        (:func:`~repro.core.isolation.conflict_abort_reason`) decides whether
        the transaction may still commit further on: §5's reads-from rule
        under 1SR, first-committer-wins under SI.  Under si every protocol
        chases the log head, because snapshot validation is defined against
        the *final* commit position — giving up at the first loss would make
        abort rates measure Paxos luck, not isolation.  ``max_promotions``
        caps the chase for every protocol, and a move to the next position
        is reported as a promotion.
        """
        txn: Transaction = context.transaction
        isolation = self.client.isolation
        own_entry = LogEntry.single(txn)
        position = txn.read_position + 1
        leader_dc = context.leader_dc
        promotions = 0
        conflict_writes: set[Item] = set()

        while True:
            result = yield from self.decide_position(
                txn.group, position, txn, own_entry, leader_dc
            )
            if result.kind == "committed":
                context.record_commit(
                    position=position,
                    entry=result.entry,
                    fast_path=result.fast_path,
                    promotions=promotions,
                    combined=len(result.entry) > 1,
                )
                return TransactionStatus.COMMITTED
            if result.kind == "timeout":
                context.record_abort(AbortReason.TIMEOUT, promotions=promotions)
                return TransactionStatus.ABORTED
            if self.lost_position_ends(isolation):
                context.record_abort(AbortReason.LOST_POSITION, promotions=promotions)
                return TransactionStatus.ABORTED

            winner = result.entry
            conflict_writes |= winner.union_write_set()
            reason = conflict_abort_reason(isolation, txn, conflict_writes)
            if reason is not None:
                context.record_abort(reason, promotions=promotions)
                return TransactionStatus.ABORTED
            if (
                self.config.max_promotions is not None
                and promotions >= self.config.max_promotions
            ):
                context.record_abort(AbortReason.PROMOTION_CAP, promotions=promotions)
                return TransactionStatus.ABORTED

            promotions += 1
            position += 1
            # The winner's datacenter leads the next position (§4.1); 2PC
            # decision markers name no origin and defer to the home.
            leader_dc = winner.head_origin_dc(context.home_dc)

    # ------------------------------------------------------------------
    # Shared phases
    # ------------------------------------------------------------------

    def _backoff(self) -> Generator:
        """"Sleep for random time period" (Algorithm 2, lines 40 and 55)."""
        yield self.client.env.timeout(self._rng.uniform(0.0, self.config.retry_backoff_ms))

    def _claim_fast_path(self, group: str, position: int, leader_dc: str,
                         claimant: str) -> Generator:
        """Ask the position's leader whether we may skip the prepare phase.

        "Before executing the commit protocol, the Transaction Client checks
        with the leader to see if any other clients have begun the commit
        protocol for the log position.  If the Transaction Client is first,
        it can bypass the prepare phase." (§4.1)

        ``claimant`` is the transaction id, NOT the client name: a client's
        next transaction must not inherit the grant its previous transaction
        obtained for the same position (that inheritance — combined with
        ballot reuse — once let two different values share one ballot; see
        tests/integration/test_serializability_properties.py).
        """
        leader_service = self.client.service_in(leader_dc, group)
        if leader_service is None:
            return False
        payload = m.LeaderClaimPayload(group, position, claimant)
        reply = yield self.client.node.request(
            leader_service, m.LEADER_CLAIM, payload,
            timeout_ms=self.config.timeout_ms,
        )
        if reply is None:
            return False
        return bool(reply.payload.granted)

    def decide_position(
        self,
        group: str,
        position: int,
        txn: Transaction,
        own_entry: LogEntry,
        leader_dc: str | None,
    ) -> Generator:
        """Compete for one log position; returns a :class:`PositionResult`.

        Ballot identity: every ballot this method issues carries the
        *transaction id* as its proposer component.  Paxos requires that a
        proposer never issue two different values under one ballot; a
        client's consecutive transactions can compete for the same position
        (the APPLY of the previous one may still be in flight when the next
        begins), so the client *node* name is not a safe identity — the
        transaction id is.
        """
        proposer = SynodProposer(
            self.client.node, group, position,
            self.client.service_names(group), self.config,
        )
        identity = txn.tid
        attempts = 0

        # --- Fast path (§4.1 optimization) ---------------------------------
        if self.config.leader_fastpath and leader_dc is not None:
            granted = yield from self._claim_fast_path(
                group, position, leader_dc, claimant=identity
            )
            if granted:
                ballot = fast_path_ballot(identity)
                accept = yield from proposer.accept(ballot, own_entry)
                attempts += 1
                if accept.successes >= proposer.majority:
                    proposer.apply(ballot, own_entry)
                    return PositionResult(
                        "committed", own_entry, fast_path=True, attempts=attempts
                    )
                # Contention appeared: fall through to the full protocol.

        # --- Full protocol (Algorithm 2) ------------------------------------
        promoted: LogEntry | None = None

        def choose(prepare: PhaseOutcome) -> LogEntry | None:
            # Promotion declines the round: stop before sending accepts.
            nonlocal promoted
            decision = self.choose_value(prepare, own_entry, txn, len(proposer.services))
            if decision.kind == "promote":
                promoted = decision.winner
                return None
            return decision.value

        ballot = Ballot(1, identity)
        while attempts < self.config.max_commit_attempts:
            attempts += 1
            outcome = yield from proposer.round(ballot, choose)
            if outcome.kind in ("chosen", "decided"):
                return self._from_decided(outcome.value, txn, attempts)
            if outcome.kind == "declined":
                return PositionResult("lost", promoted, attempts=attempts)
            yield from self._backoff()
            ballot = ballot.next_round(identity, outcome.max_promised)
        return PositionResult("timeout", None, attempts=attempts)

    @staticmethod
    def _from_decided(entry: LogEntry, txn: Transaction, attempts: int) -> PositionResult:
        """Classify a decided entry: did our transaction make it in?

        "The Transaction Client then checks whether the winning value is its
        own transaction, and if so, it returns a commit status" (§4.1) —
        generalized to membership in the winning list for Paxos-CP.
        """
        if entry.contains(txn.tid):
            return PositionResult("committed", entry, attempts=attempts)
        return PositionResult("lost", entry, attempts=attempts)
