"""Scaling guard: the serializability oracle's graph must stay linear in N.

The textbook MVSG has one edge per (read, other version) pair, so on the
paper's contended Figure 7 cell — one hot row, every attribute rewritten
again and again — its edges *per transaction* grow with the run length.
The chained graph the oracle runs on has O(reads + versions) edges, flat
per transaction.  Edge counts are exact and machine-independent, so this is
a tier-1 guard, not a timing benchmark.
"""

from __future__ import annotations

from repro.serializability.graph import ChainedMVSG
from repro.serializability.history import MVHistory
from tests.helpers import fig7_history_inputs
from tests.serializability.explicit_mvsg import build_mvsg


def edges_per_committed_txn(n_transactions: int) -> tuple[float, float, int]:
    """(chained, explicit) MVSG edges per committed transaction of one
    Figure 7 cell, and the raw explicit count."""
    history = MVHistory.from_log(*fig7_history_inputs(n_transactions))
    chained = ChainedMVSG(history).edge_count
    explicit = build_mvsg(history).number_of_edges()
    return chained / len(history), explicit / len(history), explicit


def test_chained_mvsg_edges_per_transaction_are_flat_in_run_length():
    small_chained, small_explicit, small_explicit_edges = edges_per_committed_txn(300)
    large_chained, large_explicit, _ = edges_per_committed_txn(1200)
    # Measured: chained 28.4 -> 31.1 edges/txn (it tends to 7 per read from
    # below), explicit 30.9 -> 113.9 (3.7x for 4x the transactions).
    assert large_chained <= 1.15 * small_chained
    assert large_chained <= 7 * 5
    assert large_explicit >= 3.5 * small_explicit
    # The reference construction itself did not change.
    assert small_explicit_edges == 5813
