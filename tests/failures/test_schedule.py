"""Tests for declarative fault schedules: config, materialization, install."""

import pytest

from repro.config import (
    ClusterConfig,
    FaultProfile,
    FaultScheduleConfig,
    LossWindow,
    OutageWindow,
    PartitionWindow,
    PlacementConfig,
)
from repro.cluster import Cluster
from repro.errors import FaultScheduleError
from repro.failures.injector import FailureInjector
from repro.failures.schedule import install_fault_schedule, materialize
from tests.conftest import make_cluster


class TestConfigValidation:
    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            OutageWindow("V1", -1.0, 100.0)
        with pytest.raises(ValueError):
            OutageWindow("V1", 0.0, -1.0)

    def test_partition_needs_distinct_datacenters(self):
        with pytest.raises(ValueError):
            PartitionWindow("V1", "V1", 0.0, 100.0)

    def test_loss_probability_range(self):
        with pytest.raises(ValueError):
            LossWindow(1.5, 0.0, 100.0)

    def test_cell_suffix(self):
        assert FaultScheduleConfig().cell_suffix() == ""
        schedule = FaultScheduleConfig(
            outages=(OutageWindow("V1", 0.0, 100.0),),
            loss_windows=(
                LossWindow(0.1, 0.0, 50.0), LossWindow(0.2, 60.0, 50.0),
            ),
        )
        assert schedule.cell_suffix() == "/faults-1o2l"

    def test_is_empty(self):
        assert FaultScheduleConfig().is_empty()
        assert not FaultScheduleConfig(
            profile=FaultProfile(1000.0, 100.0, 5000.0)
        ).is_empty()


class TestMaterialize:
    def profiled(self, seed: int) -> FaultScheduleConfig:
        cluster = make_cluster(seed=seed)
        schedule = FaultScheduleConfig(
            profile=FaultProfile(mttf_ms=400.0, mttr_ms=150.0, horizon_ms=5000.0)
        )
        return materialize(schedule, cluster)

    def test_deterministic_per_seed(self):
        assert self.profiled(7) == self.profiled(7)
        assert self.profiled(7) != self.profiled(8)

    def test_expansion_is_profile_free_and_majority_preserving(self):
        expanded = self.profiled(3)
        assert expanded.profile is None
        assert expanded.outages  # mttf << horizon: something fired
        home = make_cluster().home_dc
        for outage in expanded.outages:
            assert outage.datacenter != home  # spare_home default
            assert 0.0 <= outage.start_ms < 5000.0
            assert outage.start_ms + outage.duration_ms <= 5000.0 + 1e-9

    def test_fixed_schedule_passes_through(self):
        cluster = make_cluster()
        schedule = FaultScheduleConfig(outages=(OutageWindow("V2", 10.0, 20.0),))
        assert materialize(schedule, cluster) is schedule


class TestInstallValidation:
    def test_unknown_datacenter_rejected(self):
        cluster = make_cluster()
        schedule = FaultScheduleConfig(outages=(OutageWindow("X9", 0.0, 10.0),))
        with pytest.raises(FaultScheduleError, match="unknown datacenter"):
            install_fault_schedule(cluster, schedule)

    def test_unknown_partition_datacenter_rejected(self):
        cluster = make_cluster()
        schedule = FaultScheduleConfig(
            partitions=(PartitionWindow("V1", "X9", 0.0, 10.0),)
        )
        with pytest.raises(FaultScheduleError, match="unknown datacenter"):
            install_fault_schedule(cluster, schedule)

    def test_records_fault_windows(self):
        cluster = make_cluster()
        schedule = FaultScheduleConfig(
            outages=(OutageWindow("V2", 300.0, 100.0),),
            loss_windows=(LossWindow(0.2, 100.0, 50.0),),
        )
        installed = install_fault_schedule(cluster, schedule)
        assert cluster.fault_windows == [(100.0, 150.0), (300.0, 400.0)]
        assert len(installed) == 2


class TestInjectorEdgeCases:
    def test_past_time_fault_fires_immediately(self):
        """A fault declared at an already-elapsed time fires now, never drops."""
        cluster = make_cluster()
        cluster.env.run(until=500.0)
        injector = FailureInjector(cluster)
        injector.outage("V2", start_ms=100.0, duration_ms=10_000.0)
        cluster.env.run(until=501.0)
        assert cluster.network.is_down("V2")

    def test_zero_duration_window_is_a_visible_noop(self):
        cluster = make_cluster()
        injector = FailureInjector(cluster)
        injector.outage("V2", start_ms=100.0, duration_ms=0.0)
        cluster.env.run(until=200.0)
        assert not cluster.network.is_down("V2")
        descriptions = [entry for _, entry in injector.log]
        assert descriptions == ["outage start V2", "outage end V2"]

    def test_overlapping_outages_refcount(self):
        """The first window's end must not revive a DC a second holds down."""
        cluster = make_cluster()
        injector = FailureInjector(cluster)
        injector.outage("V2", start_ms=100.0, duration_ms=200.0)   # ends 300
        injector.outage("V2", start_ms=200.0, duration_ms=400.0)   # ends 600
        cluster.env.run(until=450.0)
        assert cluster.network.is_down("V2")  # first window ended, second open
        cluster.env.run(until=700.0)
        assert not cluster.network.is_down("V2")

    def test_midrun_cross_lane_kill_raises_typed_error(self):
        """On a sharded kernel a mid-run cross-lane kill is a typed error."""
        cluster = Cluster(ClusterConfig(
            cluster_code="VVV", seed=0,
            placement=PlacementConfig(
                n_groups=2, assignment="range", key_universe=2,
            ),
            shards=2, engine="sharded",
        ))
        injector = FailureInjector(cluster)

        def sleeper():
            yield cluster.env.timeout(1_000.0)

        victim = cluster.env.process(sleeper(), name="victim", lane=1)

        def attacker():
            yield cluster.env.timeout(10.0)
            injector.kill_process_at(victim, 50.0)

        cluster.env.process(attacker(), name="attacker", lane=0)
        with pytest.raises(FaultScheduleError, match="cross-lane"):
            cluster.env.run(until=2_000.0)

    def test_paused_cross_lane_kill_is_allowed(self):
        """Declaring the same kill while paused (no ambient lane) is fine."""
        cluster = Cluster(ClusterConfig(
            cluster_code="VVV", seed=0,
            placement=PlacementConfig(
                n_groups=2, assignment="range", key_universe=2,
            ),
            shards=2, engine="sharded",
        ))
        injector = FailureInjector(cluster)

        def sleeper():
            yield cluster.env.timeout(1_000.0)

        victim = cluster.env.process(sleeper(), name="victim", lane=1)
        injector.kill_process_at(victim, 50.0)
        cluster.env.run(until=2_000.0)
        assert not victim.is_alive
