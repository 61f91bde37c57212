"""The acceptor role (Algorithm 1), run by every Transaction Service.

The acceptor's state for log position *P* is the triple ⟨nextBal,
ballotNumber, value⟩ stored in the local key-value store, initially
⟨NULL, NULL, ⊥⟩.  Every transition is performed through the store's atomic
``checkAndWrite`` — the same optimistic-retry discipline as Algorithm 1's
``keepTrying`` loop — so concurrent service processes handling messages for
the same position serialize through the store, never through Python-level
locks.

Two deliberate deviations from the paper's pseudocode, both documented in
DESIGN.md:

1. **ACCEPT acceptance rule.**  Algorithm 1 honours an ACCEPT only when its
   ballot *equals* ``nextBal``.  The §4.1 leader optimization (which the
   paper's own prototype enables) sends round-0 ACCEPTs to acceptors that
   never saw a prepare, so we use the standard Paxos rule instead: accept
   whenever the ballot is **at least** ``nextBal``.  This is safe for the
   usual reason — it never breaks a promise made to a higher ballot.

2. **The conditional write guards the whole state, not just ``nextBal``.**
   Algorithm 1's PREPARE handler re-reads the row and uses
   ``checkAndWrite(P.nextBal, propNum, P.nextBal, vNextBal)``, i.e. it only
   verifies that *nextBal* did not change between its read and its write.
   But an ACCEPT at exactly ``nextBal`` changes the *vote* (ballotNumber,
   value) without changing ``nextBal`` — so a concurrent ACCEPT can slip
   between the PREPARE handler's read and its write, and the prepare reply
   then reports a stale (possibly null) last vote.  A proposer that trusts
   that reply can propose its own value against an already-chosen one and
   split the replicas (we reproduced exactly this divergence before fixing
   it; see ``tests/paxos/test_acceptor.py``).  The fix keeps the single
   test-attribute discipline: a monotone ``seq`` attribute is bumped by
   every mutation and is the attribute all ``checkAndWrite`` calls test.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, NamedTuple

from repro.kvstore.row import RowVersion
from repro.kvstore.service import StoreAccessor
from repro.paxos.ballot import NULL_BALLOT, Ballot
from repro.paxos.messages import (
    AcceptPayload,
    AcceptReply,
    ApplyPayload,
    LearnPayload,
    LearnReply,
    PreparePayload,
    PrepareReply,
)
from repro.wal.log import ATTR_BALLOT, ATTR_CHOSEN, ATTR_NEXT_BAL, ATTR_VALUE, paxos_row_key

if TYPE_CHECKING:  # pragma: no cover
    from repro.wal.entry import LogEntry

#: Monotone per-row mutation counter; the attribute every conditional write
#: tests (see deviation 2 in the module docstring).
ATTR_SEQ = "seq"


class AcceptorState(NamedTuple):
    """Decoded Paxos row: ⟨nextBal, ballotNumber, value⟩ + chosen + seq.

    Every acceptor handler decodes one per store read, so decoding is one
    bound ``get`` on the row image and one tuple build.
    """

    next_bal: Ballot
    ballot: Ballot
    value: "LogEntry | None"
    chosen: bool
    seq: int | None

    @classmethod
    def from_version(cls, version: RowVersion | None) -> "AcceptorState":
        if version is None:
            return _NULL_STATE
        get = version.attributes.get
        return cls(
            get(ATTR_NEXT_BAL, NULL_BALLOT),
            get(ATTR_BALLOT, NULL_BALLOT),
            get(ATTR_VALUE),
            bool(get(ATTR_CHOSEN, False)),
            get(ATTR_SEQ),
        )

    @property
    def next_seq(self) -> int:
        return 1 if self.seq is None else self.seq + 1

    def learn_reply(self) -> LearnReply:
        """What this row tells a learner: the decided value, else its vote."""
        return LearnReply(self.value if self.chosen else None,
                          self.ballot, self.value)


#: The state of a row no handler has written yet: ⟨NULL, NULL, ⊥⟩.
_NULL_STATE = AcceptorState(NULL_BALLOT, NULL_BALLOT, None, False, None)


class Acceptor:
    """Algorithm 1, bound to one datacenter's store.

    Each handler formats its row key once and yields its own store read:
    a handler's whole cost is the store operations Algorithm 1 names.
    """

    def __init__(self, accessor: StoreAccessor) -> None:
        self.accessor = accessor

    # ------------------------------------------------------------------
    # PREPARE (Algorithm 1 lines 3–15)
    # ------------------------------------------------------------------

    def on_prepare(self, payload: PreparePayload) -> Generator:
        """Handle a PREPARE; returns a :class:`PrepareReply`."""
        key = paxos_row_key(payload.group, payload.position)
        accessor = self.accessor
        while True:
            state = AcceptorState.from_version((yield accessor.read(key)))
            if state.chosen:
                # The instance is over; tell the proposer the decided value.
                return PrepareReply(False, state.next_bal, state.ballot,
                                    state.value, state.value)
            if payload.ballot > state.next_bal:
                # Record the promise only if nothing changed since the read
                # (Algorithm 1 line 9, hardened per deviation 2).
                ok = yield accessor.check_and_write(
                    key, ATTR_SEQ, state.seq,
                    {ATTR_NEXT_BAL: payload.ballot, ATTR_SEQ: state.next_seq},
                )
                if ok:
                    return PrepareReply(True, payload.ballot, state.ballot,
                                        state.value)
                # Lost the race against a concurrent handler: retry
                # (keepTrying loop).
                continue
            return PrepareReply(False, state.next_bal, state.ballot,
                                state.value)

    # ------------------------------------------------------------------
    # ACCEPT (Algorithm 1 lines 16–19, with the fast-path relaxation)
    # ------------------------------------------------------------------

    def on_accept(self, payload: AcceptPayload) -> Generator:
        """Handle an ACCEPT; returns an :class:`AcceptReply`."""
        key = paxos_row_key(payload.group, payload.position)
        accessor = self.accessor
        while True:
            state = AcceptorState.from_version((yield accessor.read(key)))
            if state.chosen:
                return AcceptReply(False, state.next_bal)
            if payload.ballot < state.next_bal:
                return AcceptReply(False, state.next_bal)
            # Vote: record ⟨ballotNumber, value⟩, raising nextBal to the
            # accepted ballot (deviation 1: ballot ≥ nextBal is enough).
            ok = yield accessor.check_and_write(
                key, ATTR_SEQ, state.seq,
                {
                    ATTR_NEXT_BAL: payload.ballot,
                    ATTR_BALLOT: payload.ballot,
                    ATTR_VALUE: payload.value,
                    ATTR_SEQ: state.next_seq,
                },
            )
            if ok:
                return AcceptReply(True, payload.ballot)
            # State moved under us; re-evaluate rather than refuse blindly.
            continue

    # ------------------------------------------------------------------
    # APPLY (Algorithm 1 lines 20–21)
    # ------------------------------------------------------------------

    def on_apply(self, payload: ApplyPayload) -> Generator:
        """Handle an APPLY: write the decided value to the log.

        Idempotent: once chosen, later APPLYs (same value by Paxos safety)
        are no-ops.  Algorithm 1 line 21 writes unconditionally; we route the
        write through the same seq-guarded conditional write as every other
        mutation so that ``seq`` stays strictly monotone — otherwise an
        in-flight vote could land "after" the decision with a reused
        sequence number and clobber the chosen value.
        """
        key = paxos_row_key(payload.group, payload.position)
        accessor = self.accessor
        while True:
            state = AcceptorState.from_version((yield accessor.read(key)))
            if state.chosen:
                return None
            ok = yield accessor.check_and_write(
                key, ATTR_SEQ, state.seq,
                {
                    ATTR_BALLOT: payload.ballot,
                    ATTR_VALUE: payload.value,
                    ATTR_CHOSEN: True,
                    ATTR_SEQ: state.next_seq,
                },
            )
            if ok:
                return None

    # ------------------------------------------------------------------
    # LEARN (catch-up support)
    # ------------------------------------------------------------------

    def on_learn(self, payload: LearnPayload) -> Generator:
        """Report what this replica knows about a position (read-only)."""
        key = paxos_row_key(payload.group, payload.position)
        version = yield self.accessor.read(key)
        return AcceptorState.from_version(version).learn_reply()
