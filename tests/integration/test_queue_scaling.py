"""Scaling guard: queue pumps must not make a run superlinear in its length.

A pump that rediscovers the head of its sender log by walking it from
position 0 on every poll costs O(log length) per poll and O(N²) per run —
the home datacenter's store reads *per transaction* then grow with N.  With
incremental log heads they are flat.  Store read counts are exact and
machine-independent, so this is a tier-1 guard, not a timing benchmark.
"""

from __future__ import annotations

from repro.harness.experiment import prepare_run
from tests.helpers import xgroup_mix_spec


def run_phase_reads_per_txn(n_transactions: int) -> dict[str, float]:
    cluster, _drivers = prepare_run(xgroup_mix_spec(n_transactions), seed=0)
    cluster.run()
    return {
        dc: store.op_counts["read"] / n_transactions
        for dc, store in cluster.stores.items()
    }


def test_home_store_reads_per_transaction_are_flat_in_run_length():
    small = run_phase_reads_per_txn(300)
    large = run_phase_reads_per_txn(1200)
    # Every group is homed in V1, so all eight pumps poll that store.
    # Walking pumps measured 336 -> 587 reads/txn here (1.75x); incremental
    # heads 36.5 -> 31.6.
    assert large["V1"] <= 1.1 * small["V1"]
    assert small["V1"] < 100
    # The other replicas never host a pump: a handful of acceptor reads.
    for dc in ("V2", "V3"):
        assert large[dc] <= 1.1 * small[dc] < 10
