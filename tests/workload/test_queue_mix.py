"""The --queue-fraction workload mix: plan generation and driver wiring."""

from __future__ import annotations

import random

import pytest

from repro.cluster import Cluster
from repro.config import ClusterConfig, PlacementConfig, StoreConfig, WorkloadConfig
from repro.model import Placement
from repro.workload.driver import WorkloadDriver
from repro.workload.ycsb import YcsbWorkload


def placement(n_groups: int = 4) -> Placement:
    return Placement(PlacementConfig(
        n_groups=n_groups, assignment="range", key_universe=n_groups,
    ))


def generator(seed: int = 7, **overrides) -> YcsbWorkload:
    config = WorkloadConfig(
        n_rows=4, n_attributes=10, ops_per_transaction=6, **overrides
    )
    return YcsbWorkload(config, random.Random(seed), placement=placement())


class TestQueuePlans:
    def test_queue_plans_stay_single_group_with_remote_writes(self):
        workload = generator(queue_fraction=1.0)
        for _draw in range(25):
            plan = workload.next_transaction_plan()
            assert len(plan.groups) == 1
            home = plan.home_group
            for op in plan.ops:
                assert workload.placement.group_of(op.row) == home
            assert plan.queue_ops, "a span-2 queue plan must defer something"
            for group, op in plan.queue_ops:
                assert group != home
                assert workload.placement.group_of(op.row) == group
                assert op.kind == "write", "remote reads cannot be deferred"

    def test_zero_queue_fraction_preserves_the_rng_stream(self):
        # The queue coin is only tossed when the knob is on: fraction-0
        # plans replay the pre-queue generator draw for draw.
        with_knob = generator(queue_fraction=0.0, cross_group_fraction=0.5)
        legacy = generator(queue_fraction=0.0, cross_group_fraction=0.5)
        stream = [with_knob.next_transaction_plan() for _draw in range(40)]
        spec_stream = [legacy.next_transaction_spec() for _draw in range(40)]
        assert [(p.groups, list(p.ops)) for p in stream] == spec_stream
        assert all(not p.queue_ops for p in stream)

    def test_mixed_fractions_produce_all_three_shapes(self):
        workload = generator(cross_group_fraction=0.3, queue_fraction=0.4)
        shapes = {"2pc": 0, "queue": 0, "single": 0}
        for _draw in range(120):
            plan = workload.next_transaction_plan()
            if len(plan.groups) > 1:
                shapes["2pc"] += 1
                assert not plan.queue_ops, "2PC plans never defer writes"
            elif plan.queue_ops:
                shapes["queue"] += 1
            else:
                shapes["single"] += 1
        assert all(count > 0 for count in shapes.values()), shapes

    def test_fraction_validation(self):
        with pytest.raises(ValueError, match="queue_fraction"):
            WorkloadConfig(queue_fraction=1.5)


class TestDriverWiring:
    def cluster(self, n_groups: int = 4) -> Cluster:
        return Cluster(ClusterConfig(
            store=StoreConfig.instant(), jitter=0.0,
            placement=PlacementConfig(
                n_groups=n_groups, assignment="range", key_universe=n_groups,
            ),
        ))

    def test_queue_fraction_requires_multi_group(self):
        cluster = Cluster(ClusterConfig(store=StoreConfig.instant()))
        workload = WorkloadConfig(queue_fraction=0.5)
        with pytest.raises(ValueError, match="queue_fraction"):
            WorkloadDriver(cluster, workload, "paxos")

    def test_queue_fraction_rejects_the_leased_leader(self):
        workload = WorkloadConfig(n_rows=4, n_attributes=10, queue_fraction=0.5)
        with pytest.raises(ValueError, match="leased"):
            WorkloadDriver(self.cluster(), workload, "leased-leader")

    def test_queue_mix_runs_and_passes_all_invariants(self):
        cluster = self.cluster()
        workload = WorkloadConfig(
            n_transactions=24, ops_per_transaction=4, n_attributes=8,
            n_rows=4, n_threads=3, target_rate_per_thread=20.0,
            stagger_ms=5.0, queue_fraction=0.5,
        )
        driver = WorkloadDriver(cluster, workload, "paxos-cp")
        driver.install_data()
        driver.start()
        cluster.start_queue_pumps(poll_ms=10)
        cluster.run()
        outcomes = driver.result.outcomes
        assert len(outcomes) == 24
        sends = [o for o in outcomes if o.transaction.sends]
        assert sends, "the mix produced no queue transactions"
        # Exactly-once delivery, sender order, §3 per group, global 1SR.
        run = cluster.settle()
        cluster.check_invariants_all(outcomes, run)
        stats = cluster.queue_stats(run)
        committed_sends = sum(
            len(o.transaction.sends) for o in sends if o.committed
        )
        assert stats.sends == committed_sends
        assert stats.applied_online + stats.drained_offline == stats.sends
