"""Digest equality: the lane-by-lane drain against the single heap.

For a fixed deployment layout (``shards``) both ``engine`` values must
produce field-identical metrics, logs, and outcomes.  They only take
different paths when the run's lanes are independent — group-pinned
threads, no 2PC or queue traffic — so that is the regime swept here:
seeds × protocols (basic Paxos, Paxos-CP, leased leader) × shard counts
(1, 4, n_groups) × faults (none; two overlapping crash windows overlapped
by an outage, then a partition and a loss episode).  The cross-traffic
cells (2PC, queues, both, roaming clients) show every sharded *deployment*
layout still passing its invariants on the single heap, whichever value was
asked for.

Workloads are sized for CI; the full-scale equivalent is the ledger's
``sharded_64g`` workload (``python -m benchmarks.ledger --verify`` compares
the two drains' digests at 64 groups).
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.config import (
    ClusterConfig,
    CrashWindow,
    FaultScheduleConfig,
    LossWindow,
    OutageWindow,
    PartitionWindow,
    PlacementConfig,
    ProtocolConfig,
    WorkloadConfig,
)
from repro.cluster import Cluster
from repro.errors import InvalidExperimentSpec
from repro.failures.schedule import install_fault_schedule
from repro.harness.experiment import ExperimentSpec, prepare_run, run_once
from repro.harness.metrics import RunMetrics
from repro.harness.parallel import metrics_digest
from repro.workload.driver import WorkloadDriver

N_GROUPS = 6
SHARD_COUNTS = (1, 4, N_GROUPS)

#: V3 crashes twice over (the second window opens inside the first) and V2
#: is cut off before V3 is back: quorum is lost for a stretch in every lane.
FAULTS = FaultScheduleConfig(
    crashes=(
        CrashWindow("V3", 300.0, 400.0),
        CrashWindow("V3", 500.0, 500.0),
    ),
    outages=(OutageWindow("V2", 800.0, 700.0),),
    partitions=(PartitionWindow("V1", "V3", 2000.0, 700.0),),
    loss_windows=(LossWindow(0.05, 3000.0, 600.0),),
)


def base_spec(engine: str, shards: int, **workload) -> ExperimentSpec:
    defaults = dict(
        n_transactions=36, n_rows=N_GROUPS, n_threads=4,
        target_rate_per_thread=4.0,
    )
    defaults.update(workload)
    return ExperimentSpec(
        name="digest-cell",
        cluster=ClusterConfig(
            placement=PlacementConfig.ranged(N_GROUPS),
            shards=shards,
            engine=engine,  # type: ignore[arg-type]
        ),
        workload=WorkloadConfig(**defaults),
        protocol="paxos-cp",
    )


def fingerprint(cluster: Cluster, driver: WorkloadDriver) -> str:
    """A stable digest of everything a run decided.

    Outcomes (through ``RunMetrics``, every field), the settled per-group
    logs entry by entry, and the resolved 2PC decision map.
    """
    outcomes = driver.result.outcomes
    logs, decisions = run = cluster.settle()
    cluster.check_invariants_all(outcomes, run)
    metrics = RunMetrics.from_outcomes(outcomes, protocol="x")
    payload = [repr(metrics), repr(sorted(decisions.items()))]
    for group in sorted(logs):
        for position in sorted(logs[group]):
            payload.append(f"{group}@{position}:{logs[group][position]!r}")
    return hashlib.sha256("\n".join(payload).encode()).hexdigest()


def run_world(engine: str, shards: int, seed: int, protocol: str,
              cross: float = 0.0, queue: float = 0.0,
              faults: bool = False) -> tuple[str, bool]:
    """One bare-``Cluster`` run: its fingerprint, and whether the kernel
    drained it lane by lane.

    Mirrors ``prepare_run``: threads are pinned to their groups unless the
    cell carries cross-group traffic, and a pinned cell on a multi-lane
    deployment marks its lanes independent before the run.
    """
    cluster = Cluster(ClusterConfig(
        placement=PlacementConfig.ranged(N_GROUPS),
        shards=shards,
        engine=engine,  # type: ignore[arg-type]
        seed=seed,
        protocol=ProtocolConfig(retry_attempts=6, retry_backoff_cap_ms=320.0),
    ))
    driver = WorkloadDriver(
        cluster,
        WorkloadConfig(
            n_transactions=30, n_rows=N_GROUPS, n_threads=3,
            target_rate_per_thread=4.0,
            cross_group_fraction=cross, queue_fraction=queue,
            group_distribution="uniform" if cross or queue else "pinned",
        ),
        protocol,  # type: ignore[arg-type]
        datacenter=cluster.topology.names[0],
    )
    driver.install_data()
    driver.start()
    if queue > 0:
        cluster.start_queue_pumps()
    if faults:
        install_fault_schedule(cluster, FAULTS)
    if not (cross or queue or cluster.shard_map.single_lane):
        cluster.env.sim.independent_lanes = True
    cluster.run()
    return fingerprint(cluster, driver), cluster.lane_profile() is not None


class TestEngineDigestEquality:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("seed", (0, 11))
    @pytest.mark.parametrize("scenario", (
        ("paxos", dict()),
        ("paxos-cp", dict()),
        ("leased-leader", dict()),
        ("paxos-cp", dict(cross=0.25)),
        ("paxos-cp", dict(queue=0.25)),
        ("paxos-cp", dict(cross=0.2, queue=0.2)),
    ), ids=("basic", "cp", "leased", "2pc", "queues", "chatty"))
    def test_global_vs_sharded(self, shards, seed, scenario):
        protocol, traffic = scenario
        reference, heap_by_lane = run_world(
            "global", shards, seed, protocol, **traffic)
        digest, by_lane = run_world(
            "sharded", shards, seed, protocol, **traffic)
        assert digest == reference
        # Without cross-lane traffic the comparison is between two different
        # drains wherever the deployment has lanes at all; with it, both
        # values are the single heap and the cell shows that layout (lanes
        # holding one group or several) passing its invariants.
        assert not heap_by_lane
        assert by_lane == (shards > 1 and not traffic)

    @pytest.mark.parametrize("shards", (1, 4))
    def test_fault_injection_digest(self, shards):
        for protocol in ("paxos", "paxos-cp", "leased-leader"):
            for seed in (5, 9):
                cell = (protocol, seed)
                reference, _ = run_world("global", shards, seed, protocol,
                                         faults=True)
                digest, by_lane = run_world("sharded", shards, seed, protocol,
                                            faults=True)
                assert digest == reference, cell
                assert by_lane == (shards > 1), cell

    def test_fault_injection_with_queue_traffic(self):
        _digest, by_lane = run_world("sharded", N_GROUPS, 9, "paxos-cp",
                                     queue=0.3, faults=True)
        assert not by_lane


class TestRunOnceEngines:
    """run_once-level equality, through ``prepare_run``'s own declaration."""

    @pytest.mark.parametrize("dist", ("uniform", "pinned"))
    def test_sharded_matches_global(self, dist):
        a = run_once(base_spec("global", 4, group_distribution=dist), seed=2)
        b = run_once(base_spec("sharded", 4, group_distribution=dist), seed=2)
        assert metrics_digest([a]) == metrics_digest([b])
        assert a.lane_profile is None
        # Roaming (uniform) clients message every lane from lane 0.
        assert (b.lane_profile is not None) == (dist == "pinned")

    def test_pinned_run_decomposes(self):
        result = run_once(base_spec("sharded", N_GROUPS,
                                    group_distribution="pinned"), seed=2)
        profile = result.lane_profile
        assert profile is not None and sorted(profile) == ["events", "utilization"]
        # Four pinned threads: lanes 1-4 did all the work, nothing else ran.
        assert [count > 0 for count in profile["events"]] == \
            [False, True, True, True, True, False, False]
        assert sum(profile["utilization"]) == pytest.approx(1.0)


class TestIndependentLanes:
    """``prepare_run`` marks the lanes independent exactly on multi-lane,
    group-pinned cells without 2PC or queue traffic — the only cells whose
    actors never leave their group's lane — so ``engine="sharded"`` drains
    those lane by lane and every other cell through the single heap.  A
    wrongly marked cell would raise "lane isolation violated" here."""

    @pytest.mark.parametrize("protocol", ("paxos", "paxos-cp", "leased-leader"))
    @pytest.mark.parametrize("shards", (1, 4, N_GROUPS))
    def test_lane_by_lane_exactly_on_pinned_cells_without_cross_traffic(
        self, shards, protocol,
    ):
        ran = 0
        for dist in ("uniform", "pinned"):
            for cross in (0.0, 0.2):
                for queue in (0.0, 0.2):
                    for per_dc in (False, True):
                        cell = (dist, cross, queue, per_dc)
                        try:
                            spec = replace(
                                base_spec("sharded", shards,
                                          n_transactions=6, n_threads=2,
                                          group_distribution=dist,
                                          cross_group_fraction=cross,
                                          queue_fraction=queue),
                                protocol=protocol,
                                per_datacenter_instances=per_dc,
                                check_invariants=False,
                            )
                        except InvalidExperimentSpec:
                            assert protocol == "leased-leader", cell
                            continue
                        cluster, drivers = prepare_run(spec, seed=3)
                        cluster.run()
                        independent = (shards > 1 and dist == "pinned"
                                       and not cross and not queue)
                        assert (cluster.env.sim.lane_events is not None) \
                            == independent, cell
                        assert all(driver.result.outcomes for driver in drivers)
                        ran += 1
        assert ran == (4 if protocol == "leased-leader" else 16)
