"""End-to-end multi-group runs: independent logs, per-group serializability.

Satellite coverage for the sharded transaction layer: (a) transactions fan
out over many entity groups, (b) every group's history independently passes
the §3 invariant suite and the MVSG one-copy-serializability oracle, and
(c) group logs never interleave — each is its own contiguous position
sequence and no transaction appears in more than one group's log.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.config import ClusterConfig, PlacementConfig, StoreConfig, WorkloadConfig
from repro.serializability.checker import is_one_copy_serializable
from repro.serializability.history import MVHistory
from repro.wal.invariants import InvariantViolation, global_log
from repro.workload.driver import WorkloadDriver
from tests.helpers import committed, txn


def sharded_cluster(n_groups: int, seed: int = 0, instant: bool = True) -> Cluster:
    return Cluster(ClusterConfig(
        cluster_code="VVV",
        seed=seed,
        store=StoreConfig.instant() if instant else StoreConfig(),
        jitter=0.0 if instant else 0.08,
        placement=PlacementConfig(
            n_groups=n_groups, assignment="range", key_universe=n_groups,
        ),
    ))


def run_workload(cluster: Cluster, n_groups: int, protocol: str = "paxos-cp",
                 n_transactions: int = 24, **overrides):
    workload = WorkloadConfig(
        n_transactions=n_transactions,
        ops_per_transaction=4,
        n_attributes=10,
        n_rows=n_groups,
        n_threads=3,
        target_rate_per_thread=20.0,
        stagger_ms=5.0,
        **overrides,
    )
    driver = WorkloadDriver(cluster, workload, protocol)
    driver.install_data()
    driver.start()
    cluster.run()
    return driver


class TestMultiGroupRuns:
    def test_transactions_fan_out_over_groups(self):
        cluster = sharded_cluster(4)
        driver = run_workload(cluster, 4, n_transactions=40)
        groups_hit = {o.transaction.group for o in driver.result.outcomes}
        assert len(groups_hit) > 1
        assert groups_hit <= set(cluster.placement.groups)

    def test_every_group_history_is_one_copy_serializable(self):
        cluster = sharded_cluster(4)
        driver = run_workload(cluster, 4, n_transactions=40)
        cluster.check_invariants_all(driver.result.outcomes, cluster.settle())
        # Belt and braces: run the MVSG oracle per group directly.
        for group in cluster.groups:
            history = MVHistory.from_log(
                global_log(cluster.replicas(group)),
                cluster.initial_image_for(group),
            )
            ok, cycle = is_one_copy_serializable(history)
            assert ok, (group, cycle)

    def test_group_logs_never_interleave(self):
        cluster = sharded_cluster(4)
        driver = run_workload(cluster, 4, n_transactions=40)
        logs = cluster.finalize_all()
        seen_tids: dict[str, str] = {}
        for group, log in logs.items():
            # Each group's log is its own contiguous sequence from 1.
            assert sorted(log) == list(range(1, len(log) + 1)), group
            for entry in log.values():
                for txn in entry.transactions:
                    assert txn.group == group
                    assert seen_tids.setdefault(txn.tid, group) == group, (
                        f"{txn.tid} logged in {seen_tids[txn.tid]} and {group}"
                    )
        committed = [o for o in driver.result.outcomes if o.committed
                     and not o.transaction.is_read_only]
        assert {o.transaction.tid for o in committed} <= set(seen_tids)

    def test_per_datacenter_multi_group_mode(self):
        cluster = sharded_cluster(2)
        workload = WorkloadConfig(
            n_transactions=12, ops_per_transaction=3, n_attributes=10,
            n_rows=2, n_threads=2, target_rate_per_thread=20.0, stagger_ms=5.0,
        )
        drivers = WorkloadDriver.per_datacenter(
            cluster, workload, "paxos-cp", shared_group=False,
        )
        drivers[0].install_data()
        for driver in drivers:
            driver.start()
        cluster.run()
        outcomes = [o for d in drivers for o in d.result.outcomes]
        assert len(outcomes) == 12 * 3
        cluster.check_invariants_all(outcomes, cluster.settle())

    def test_ghost_commit_on_a_mixed_run_is_named(self):
        """A planted committed-but-unlogged transaction on a 2PC + queue
        multi-group run surfaces from check_invariants_all by its tid."""
        cluster = Cluster(ClusterConfig(
            placement=PlacementConfig.ranged(4), seed=4,
        ))
        driver = WorkloadDriver(
            cluster,
            WorkloadConfig(
                n_transactions=16, n_rows=4, n_threads=2,
                target_rate_per_thread=6.0,
                cross_group_fraction=0.2, queue_fraction=0.2,
            ),
            "paxos-cp",
            datacenter=cluster.topology.names[0],
        )
        driver.install_data()
        driver.start()
        cluster.start_queue_pumps()
        cluster.run()
        ghost = committed(txn("ghost", writes={"a": "v"}, group="group-1"), 1)
        with pytest.raises(InvariantViolation) as raised:
            cluster.check_invariants_all(
                driver.result.outcomes + [ghost], cluster.settle()
            )
        assert any("ghost" in v for v in raised.value.violations)

    def test_multi_group_requires_sharded_placement(self):
        cluster = Cluster(ClusterConfig(store=StoreConfig.instant()))
        with pytest.raises(ValueError):
            WorkloadDriver(cluster, WorkloadConfig(), "paxos", multi_group=True)

    def test_single_group_workload_must_fit_its_group(self):
        # Rows spanning groups on a sharded cluster fail at construction,
        # not with CrossGroupTransaction mid-run.
        cluster = sharded_cluster(4)
        workload = WorkloadConfig(n_rows=4, n_attributes=10, group="group-0")
        with pytest.raises(ValueError, match="route to other groups"):
            WorkloadDriver(cluster, workload, "paxos", multi_group=False)

    def test_zipfian_group_choice_skews_to_group_0(self):
        cluster = sharded_cluster(4)
        driver = run_workload(
            cluster, 4, n_transactions=60,
            group_distribution="zipfian", group_zipfian_theta=0.99,
        )
        counts: dict[str, int] = {}
        for outcome in driver.result.outcomes:
            group = outcome.transaction.group
            counts[group] = counts.get(group, 0) + 1
        assert counts["group-0"] == max(counts.values())


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    n_groups=st.sampled_from([2, 3, 8]),
    protocol=st.sampled_from(["paxos", "paxos-cp"]),
)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_multi_group_workloads_stay_serializable(seed, n_groups, protocol):
    cluster = sharded_cluster(n_groups, seed=seed, instant=False)
    driver = run_workload(cluster, n_groups, protocol=protocol, n_transactions=15)
    assert len(driver.result.outcomes) == 15
    cluster.check_invariants_all(driver.result.outcomes, cluster.settle())
