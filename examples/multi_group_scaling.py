#!/usr/bin/env python3
"""Sharding the transaction layer: 1 entity group vs. 8.

The paper partitions the datastore into entity groups, "and each group has
its own transaction log" (§2).  A single group serializes every commit
through one replicated log; with eight groups the same offered load spreads
over eight independent logs, so transactions stop competing for log
positions they never conflicted on in the first place.

This example runs the identical contended workload against both layouts
and prints the committed-throughput ratio.  Per-group invariants — (R1),
(L1)-(L3), read-only consistency, and the MVSG one-copy-serializability
oracle — are checked for every group in both runs.

Run:  PYTHONPATH=src python examples/multi_group_scaling.py
"""

from repro import Cluster, ClusterConfig, PlacementConfig, WorkloadConfig, WorkloadDriver


def run_layout(n_groups: int) -> float:
    """Run the contended workload on *n_groups* groups; returns txn/s."""
    # One single-row entity group per group, split by range assignment.
    placement = PlacementConfig.ranged(n_groups)
    cluster = Cluster(ClusterConfig(cluster_code="VVV", seed=11, placement=placement))
    workload = WorkloadConfig(
        n_transactions=160,
        n_rows=max(1, n_groups),
        n_threads=8,
        target_rate_per_thread=8.0,
    )
    driver = WorkloadDriver(cluster, workload, "paxos-cp")
    driver.install_data()
    driver.start()
    cluster.run()

    outcomes = driver.result.outcomes
    # Raises InvariantViolation unless every group's log passes the checks.
    cluster.check_invariants_all(outcomes, cluster.settle())

    commits = sum(1 for outcome in outcomes if outcome.committed)
    duration_s = max(outcome.end_time for outcome in outcomes) / 1000.0
    throughput = commits / duration_s
    print(f"{n_groups} group{'s' if n_groups > 1 else ''}:")
    print(f"  groups with transactions: {len(cluster.groups)}")
    print(f"  committed:                {commits}/{len(outcomes)}")
    print(f"  committed throughput:     {throughput:.2f} txn/s")
    print(f"  invariants per group:     OK ({', '.join(cluster.groups)})")
    return throughput


def main() -> None:
    single = run_layout(1)
    print()
    sharded = run_layout(8)
    assert sharded > single
    print()
    print(
        f"8-group layout commits {sharded / single:.2f}x the throughput of the "
        f"single log: independent group logs remove cross-group contention."
    )


if __name__ == "__main__":
    main()
