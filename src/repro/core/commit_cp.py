"""Paxos-CP: Paxos with Combination and Promotion (§5).

Value policy: ``enhancedFindWinningVal``, two enhancements over the basic
protocol inside the same per-instance message budget:

* **Combination** — when the LAST VOTE responses prove that no value can
  have reached a majority (``maxVotes + (D − |responseSet|) ≤ D/2``), the
  proposer is free to pick any value, and picks the longest
  one-copy-serializable ordered list of transactions assembled from its own
  transaction plus the transactions found in the received votes
  (:mod:`repro.core.combine`).
* **Promotion** — when a single value has provably won the position
  (majority of votes) and ours is not in it, we stop competing for this
  position before sending accept messages.

Lost position: it ends the transaction only under 1SR with
``enable_promotion`` off.  Otherwise the shared commit loop
(:meth:`PaxosCommitBase.commit`) re-enters the protocol at the next
position unless the transaction read an item one of the winners wrote (the
check is cumulative over every position lost).

Safety refinement over the paper's prose: the paper promotes whenever
``maxVotes > D/2`` counting votes per value.  Votes for one value can be
spread across different ballots, in which case the value is *not* yet
guaranteed chosen, and promoting against the wrong presumed winner could
violate the conflict check.  We therefore require the majority to be at a
single ballot (which is the actual Paxos decision criterion) and otherwise
fall back to the basic rule — indistinguishable in practice because
re-proposals carry the winning value forward at one ballot, but provably
safe.  ``enhancedFindWinningVal``'s vote counting uses only successful
LAST VOTE responses, exactly as Algorithm 2's ``responseSet`` does.
"""

from __future__ import annotations

from collections import Counter

from repro.config import IsolationLevel, ProtocolConfig
from repro.model import Transaction
from repro.core.combine import combine
from repro.core.commit_basic import find_winning_val
from repro.core.protocol import PaxosCommitBase, ValueDecision
from repro.paxos.ballot import Ballot
from repro.paxos.proposer import PhaseOutcome
from repro.wal.entry import LogEntry


def enhanced_find_winning_val(
    prepare: PhaseOutcome,
    own_entry: LogEntry,
    txn: Transaction,
    n_services: int,
    config: ProtocolConfig,
) -> ValueDecision:
    """Algorithm 2, lines 76–87, with the safety refinement described above.

    Returns a :class:`ValueDecision`:
    ``combine`` → kind "value" with a combined entry;
    ``promote`` → kind "promote" with the winner;
    otherwise → kind "value" with ``findWinningVal``'s answer.
    """
    majority = n_services // 2 + 1
    votes: Counter[tuple] = Counter()
    ballot_votes: Counter[tuple[Ballot, tuple]] = Counter()
    values: dict[tuple, LogEntry] = {}
    responses = 0
    for _src, reply in prepare.replies:
        if not reply.success:
            continue
        responses += 1
        if reply.last_value is not None:
            key = reply.last_value.vote_key
            votes[key] += 1
            ballot_votes[(reply.last_ballot, key)] += 1
            values[key] = reply.last_value

    max_votes = max(votes.values(), default=0)
    missing = n_services - responses

    if config.enable_combination and max_votes + missing < majority:
        # No value can have a majority yet: free choice — combine.  Only
        # members of ordinary data entries are candidates: a 2PC prepare
        # entry (or decision marker) must win or lose *whole* — folding its
        # branch into a combined data entry would strip the atomic-commit
        # gating the apply path keys off its kind.
        candidates = [
            member for entry in values.values() if entry.kind == "data"
            for member in entry
        ]
        combined = combine(txn, candidates)
        if len(combined) > 1:
            return ValueDecision(
                kind="value", value=LogEntry.combined(combined), combined=True
            )
        return ValueDecision(kind="value", value=own_entry)

    if config.enable_promotion:
        for (ballot, key), count in ballot_votes.items():
            if count >= majority and not values[key].contains(txn.tid):
                # The position is decided for another value: promote.
                return ValueDecision(kind="promote", winner=values[key])

    return ValueDecision(kind="value", value=find_winning_val(prepare, own_entry))


class PaxosCPCommit(PaxosCommitBase):
    """The paper's protocol: true concurrency control over the log."""

    name = "paxos-cp"

    def choose_value(self, prepare, own_entry, txn, n_services) -> ValueDecision:
        return enhanced_find_winning_val(prepare, own_entry, txn, n_services, self.config)

    def lost_position_ends(self, isolation: IsolationLevel) -> bool:
        return isolation == "1sr" and not self.config.enable_promotion
