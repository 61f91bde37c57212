"""Ballot (proposal) numbers.

A proposal number "must be unique and should be larger than any previously
seen proposal number" (§4.1).  We use the classical construction: a pair of
a round counter and the proposer's globally unique name, ordered
lexicographically.  Distinct proposers can never produce equal ballots.

Round 0 is reserved for the leader fast path (§4.1 optimization): the single
client the per-position leader lets skip the prepare phase sends its ACCEPT
at round 0, which loses to any ballot from a prepare-phase competitor.
"""

from __future__ import annotations

from typing import NamedTuple

#: Round number used by the leader-granted prepare-skipping ACCEPT.
FAST_PATH_ROUND = 0


class Ballot(NamedTuple):
    """A totally ordered proposal number ``(round, proposer)``.

    A tuple, so ballots compare (and hash) as ``(round, proposer)`` in C —
    the order and hash of the frozen, ordered dataclass it replaced.
    """

    round: int
    proposer: str

    def next_round(self, proposer: str, at_least: "Ballot | None" = None) -> "Ballot":
        """The next ballot for *proposer*, above ``self`` and *at_least*.

        Implements ``nextPropNumber`` (Algorithm 2): the new round exceeds
        every round the proposer has seen.
        """
        floor = self.round
        if at_least is not None:
            floor = max(floor, at_least.round)
        return Ballot(floor + 1, proposer)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.round}.{self.proposer}"


#: The "never promised / never voted" ballot, smaller than every real ballot.
NULL_BALLOT = Ballot(-1, "")


def fast_path_ballot(proposer: str) -> Ballot:
    """The round-0 ballot a leader-granted proposer uses."""
    return Ballot(FAST_PATH_ROUND, proposer)
