"""The combination search (§5, "Combination").

When no value can yet have a majority, the proposer may choose any value —
Paxos-CP chooses an *ordered list* of transactions: "the client first adds
its own transaction.  It then tries adding every subset of transactions from
the received votes, in every order, to find the maximum length list of
proposed transactions that is one-copy serializable, i.e., no transaction in
the list reads a value written by any preceding transaction in the list.
... While this operation requires a combinatorial number of comparisons, in
practice, the number of transactions to compare is small, only two or three.
If the number of proposed transactions is large, a simple greedy approach
can be used, making one pass over the transaction list and adding each
compatible transaction to the winning value."

Both searches are implemented below; the protocol picks the exhaustive one
up to :data:`EXHAUSTIVE_LIMIT` candidates and the greedy one beyond.
"""

from __future__ import annotations

from itertools import combinations, permutations

from repro.model import Transaction, is_serializable_sequence

#: Up to this many distinct candidates the search is exhaustive over subsets
#: and orders; beyond it the greedy single pass of §5 is used.
EXHAUSTIVE_LIMIT = 4


def _dedupe(own: Transaction, candidates: list[Transaction]) -> list[Transaction]:
    """Unique candidates (by tid), excluding *own*, in deterministic order."""
    seen: set[str] = {own.tid}
    unique: list[Transaction] = []
    for txn in candidates:
        if txn.tid not in seen:
            seen.add(txn.tid)
            unique.append(txn)
    unique.sort(key=lambda txn: txn.tid)
    return unique


def best_combination(own: Transaction, candidates: list[Transaction]) -> list[Transaction]:
    """Exhaustive search: the longest valid ordered list containing *own*.

    Tries every subset of the (deduplicated) candidates, in every order,
    with *own* inserted at every slot, largest subsets first; returns the
    first valid list of maximum length.  Deterministic for a given input.
    """
    others = _dedupe(own, candidates)
    for size in range(len(others), -1, -1):
        for subset in combinations(others, size):
            for order in permutations(subset):
                for slot in range(len(order) + 1):
                    candidate = list(order[:slot]) + [own] + list(order[slot:])
                    if is_serializable_sequence(candidate):
                        return candidate
    # len-1 list [own] is always valid, so we never reach here.
    return [own]  # pragma: no cover - defensive


def greedy_combination(own: Transaction, candidates: list[Transaction]) -> list[Transaction]:
    """One-pass greedy: start from [own], append each compatible candidate."""
    result = [own]
    for txn in _dedupe(own, candidates):
        if is_serializable_sequence(result + [txn]):
            result.append(txn)
    return result


def combine(own: Transaction, candidates: list[Transaction]) -> list[Transaction]:
    """Pick the search strategy the way the protocol does."""
    others = _dedupe(own, candidates)
    if len(others) <= EXHAUSTIVE_LIMIT:
        return best_combination(own, others)
    return greedy_combination(own, others)
