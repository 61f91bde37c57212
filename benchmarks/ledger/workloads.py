"""The ledger's six named workloads.

Every workload is one :class:`~repro.harness.experiment.ExperimentSpec` on
the ``VVV`` cluster with 50 % reads; only the seed varies between runs.
The sizes are the full-scale ones — ``scale`` shrinks the transaction
budget (and the open-loop horizon) for the smoke tests, never the shape.

``why`` is the one-line reason the workload is in the set (also recorded
in ``BENCHMARK.json``); ``cell_s`` is the measured wall time of one
untraced cell in a fresh child process on the 2-core reference box, child
start-up included.  The runner turns ``--seconds`` into a *fixed* number
of cells with it, so a run's simulated metrics are a pure function of
``(seed, seconds)`` and never of how fast the host happened to be.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.config import (
    ClusterConfig,
    CrashWindow,
    FaultScheduleConfig,
    OutageWindow,
    PlacementConfig,
    ProtocolConfig,
    WorkloadConfig,
)
from repro.harness.experiment import ExperimentSpec


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cell_s: float
    spec: ExperimentSpec

    def scaled(self, scale: float) -> ExperimentSpec:
        """The same cell at ``scale`` × the transaction budget, with the
        fault schedule compressed to match so it still falls inside the run."""
        if scale == 1.0:
            return self.spec
        load = self.spec.workload
        if load.open_loop:
            load = replace(load, open_duration_ms=load.open_duration_ms * scale)
        else:
            load = replace(load, n_transactions=max(1, round(load.n_transactions * scale)))
        faults = self.spec.cluster.faults
        faults = replace(
            faults,
            outages=tuple(
                replace(w, start_ms=w.start_ms * scale, duration_ms=w.duration_ms * scale)
                for w in faults.outages
            ),
            crashes=tuple(
                replace(w, start_ms=w.start_ms * scale,
                        restart_after_ms=w.restart_after_ms * scale)
                for w in faults.crashes
            ),
        )
        cluster = replace(self.spec.cluster, faults=faults)
        return replace(self.spec, workload=load, cluster=cluster)


#: The paper's Figure 7 contended cell: one entity group, one row of 100
#: attributes, 4 closed-loop threads × 4 txn/s.  Shared by both fig7
#: workloads so they stay the paper's like-for-like pair.
_FIG7 = WorkloadConfig(
    n_transactions=3000, n_rows=1, n_attributes=100,
    n_threads=4, target_rate_per_thread=4.0,
)

_ALL = (
    Workload(
        "fig7_paxos",
        "basic Paxos on the paper's contended Figure 7 cell: the control "
        "where combination/promotion never run and sim+net dominate",
        2.7,
        ExperimentSpec("fig7_paxos", ClusterConfig("VVV"), _FIG7, "paxos"),
    ),
    Workload(
        "fig7_paxos_cp",
        "the same cell under Paxos-CP: the only workload where "
        "combine/promotion and the offline checkers do heavy work",
        5.3,
        ExperimentSpec("fig7_paxos_cp", ClusterConfig("VVV"), _FIG7, "paxos-cp"),
    ),
    Workload(
        "xgroup_mix",
        "8 groups with 20% 2PC and 20% queue sends: the only workload that "
        "enters commit_2pc, queues and pumps; wal+kvstore weigh most here",
        5.8,
        ExperimentSpec(
            "xgroup_mix",
            ClusterConfig(
                "VVV", placement=PlacementConfig.ranged(8, 8),
                protocol=ProtocolConfig(queue_poll_ms=50.0),
            ),
            WorkloadConfig(
                n_transactions=2000, n_rows=8, n_threads=8,
                target_rate_per_thread=8.0,
                cross_group_fraction=0.2, cross_group_span=2,
                queue_fraction=0.3,
            ),
            "paxos-cp",
        ),
    ),
    Workload(
        "openloop_knee",
        "open-loop Poisson arrivals below the saturation knee: queueing "
        "shows in the tail; bypasses the checkers, so a checker change "
        "must not move it",
        2.0,
        ExperimentSpec(
            "openloop_knee",
            ClusterConfig("VVV", placement=PlacementConfig.ranged(8, 64)),
            WorkloadConfig(
                open_loop=True, arrival="poisson", offered_load=28.0,
                open_duration_ms=60_000.0, pool_size=64, max_pending=4,
                n_users=1_000_000, n_rows=64,
            ),
            "paxos-cp",
            check_invariants=False,
        ),
    ),
    Workload(
        "crash_recovery",
        "a minority crash, then an outage overlapped by a crash (quorum "
        "lost 5 s) with client retries: the only run of failures, WAL "
        "replay and catch-up",
        4.2,
        ExperimentSpec(
            "crash_recovery",
            ClusterConfig(
                "VVV",
                protocol=ProtocolConfig(
                    retry_attempts=6, retry_backoff_cap_ms=640.0
                ),
                faults=FaultScheduleConfig(
                    outages=(OutageWindow("V2", 80_000, 15_000),),
                    crashes=(
                        CrashWindow("V3", 30_000, 15_000),
                        CrashWindow("V3", 85_000, 5_000),
                    ),
                ),
            ),
            WorkloadConfig(
                n_transactions=3000, ops_per_transaction=4, n_attributes=16,
                n_threads=8, target_rate_per_thread=4.0,
            ),
            "paxos-cp",
        ),
    ),
    Workload(
        "sharded_64g",
        "64 uncontended groups on the in-process laned engine: abort "
        "handling idles, so sim+net are the cost and the horizon "
        "machinery is on the path",
        3.1,
        ExperimentSpec(
            "sharded_64g",
            ClusterConfig(
                "VVV", placement=PlacementConfig.ranged(64, 64),
                shards=8, engine="sharded",
            ),
            WorkloadConfig(
                n_transactions=3200, n_rows=64, n_threads=64,
                target_rate_per_thread=1.0, group_distribution="pinned",
            ),
            "paxos-cp",
        ),
    ),
)

WORKLOADS: dict[str, Workload] = {workload.name: workload for workload in _ALL}
