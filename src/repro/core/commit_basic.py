"""The basic Paxos commit protocol (§4.1, Algorithm 2) — Megastore's design.

Value policy: ``findWinningVal`` — adopt the highest-ballot LAST VOTE, and
propose the transaction's own single-entry value only when every response
is empty.  One transaction per log position.

Lost position: under 1SR it ends the transaction.  All transactions that
read at position *k* compete for position *k*+1, exactly one wins, and the
losers abort even when their operations do not conflict — the behaviour the
paper identifies as *concurrency prevention*: "If two transactions try to
commit to the same log position, one will be aborted, regardless of whether
the two transactions access the same data items."  Under si the shared
commit loop (:meth:`PaxosCommitBase.commit`) chases the log head instead.
"""

from __future__ import annotations

from repro.config import IsolationLevel
from repro.core.protocol import PaxosCommitBase, ValueDecision
from repro.paxos.proposer import PhaseOutcome, highest_vote
from repro.wal.entry import LogEntry


def find_winning_val(prepare: PhaseOutcome, own_entry: LogEntry) -> LogEntry:
    """Algorithm 2, lines 66–75.

    Among the LAST VOTEs in the (successful) responses, pick the value with
    the highest ballot; "only if all responses have null values can the
    client select its own value".
    """
    winning = highest_vote(reply for _src, reply in prepare.replies if reply.success)
    return own_entry if winning is None else winning


class BasicPaxosCommit(PaxosCommitBase):
    """Megastore's commit protocol: Paxos as concurrency *prevention*."""

    name = "paxos"

    def choose_value(self, prepare, own_entry, txn, n_services) -> ValueDecision:
        return ValueDecision(kind="value", value=find_winning_val(prepare, own_entry))

    def lost_position_ends(self, isolation: IsolationLevel) -> bool:
        return isolation == "1sr"
