"""Satellite behaviours around the sharded simulation subsystem.

``--jobs`` normalisation, the pinned workload distribution, and the
lane-profile surfacing.
"""

from __future__ import annotations

from repro.cluster import Cluster
from repro.config import ClusterConfig, PlacementConfig, WorkloadConfig
from repro.harness.parallel import resolve_jobs
from repro.harness.profiling import format_lane_profile
from repro.workload.driver import WorkloadDriver


class TestResolveJobsClamp:
    def test_plain_jobs_unchanged(self):
        assert resolve_jobs(3) == 3


def thread_of(outcome) -> int:
    """The driver thread behind an outcome (its client is named after it)."""
    return int(outcome.transaction.origin.rsplit(":", 1)[1])


class TestPinnedDriver:
    def make(self, shards=3, threads=6):
        cluster = Cluster(ClusterConfig(
            placement=PlacementConfig.ranged(6), shards=shards,
        ))
        driver = WorkloadDriver(
            cluster,
            WorkloadConfig(
                n_transactions=threads * 2, n_rows=6, n_threads=threads,
                target_rate_per_thread=10.0, group_distribution="pinned",
            ),
            "paxos",
            datacenter=cluster.topology.names[0],
        )
        return cluster, driver

    def test_threads_round_robin_over_groups(self):
        _cluster, driver = self.make()
        assert driver.pinned
        assert driver.thread_group(0) == "group-0"
        assert driver.thread_group(5) == "group-5"

    def test_thread_lanes_follow_shard_map(self):
        cluster, driver = self.make()
        driver.start()
        for index in range(driver.workload.n_threads):
            client = cluster.network.node(f"cli:V1:ycsb0:{index}")
            assert client.lane == cluster.shard_map.lane_of(
                driver.thread_group(index))

    def test_outcomes_merge_in_thread_order(self):
        cluster, driver = self.make(threads=3)
        driver.install_data()
        driver.start()
        cluster.run()
        outcomes = driver.result.outcomes
        assert len(outcomes) == driver.workload.n_transactions
        threads = [thread_of(outcome) for outcome in outcomes]
        assert threads == sorted(threads) and set(threads) == {0, 1, 2}

    def test_every_transaction_stays_in_its_group(self):
        cluster, driver = self.make(threads=3)
        driver.install_data()
        driver.start()
        cluster.run()
        for outcome in driver.result.outcomes:
            expected = driver.thread_group(thread_of(outcome))
            assert outcome.transaction.group == expected


class TestLaneProfileFormatting:
    def test_format_lane_profile(self):
        text = format_lane_profile({
            "events": [10, 90, 80],
            "utilization": [10 / 180, 90 / 180, 80 / 180],
        })
        lines = text.splitlines()
        assert lines[1].split() == ["lane", "events", "util"]
        assert lines[2].split() == ["shared", "10", "5.6%"]
        assert lines[4].split() == ["2", "80", "44.4%"]
