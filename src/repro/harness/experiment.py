"""Executing one experiment cell.

A *cell* is (cluster config × workload config × protocol).  ``run_once``
builds a fresh cluster, preloads the entity group, starts the workload
instance(s), drains the simulation, settles the run, optionally runs the
full §3 invariant suite over it, and returns metrics.  ``run_cell`` repeats with
distinct seeds and averages, which is what the paper does ("We have
performed each experiment several times with similar results, and we
present the average here").
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field, replace

from repro.cluster import Cluster
from repro.config import (
    ClusterConfig,
    Combination,
    ProtocolName,
    WorkloadConfig,
    check_choices,
    check_combination,
)
from repro.errors import InvalidExperimentSpec
from repro.harness.metrics import (
    RunMetrics,
    aggregate_metrics,
    availability_report,
    fmean,
)
from repro.model import TransactionOutcome
from repro.sim.env import collector_paused
from repro.workload.driver import WorkloadDriver


@dataclass(frozen=True)
class ExperimentSpec:
    """One cell of an experiment grid.

    Construction checks the whole axis combination against the one
    compatibility table (:data:`repro.config.COMBINATION_RULES`), so a
    misconfigured cell raises :class:`~repro.errors.InvalidExperimentSpec`
    the moment the grid is *built* — long before any cluster exists —
    instead of minutes into a sweep.  ``dataclasses.replace`` re-runs the
    check, so derived specs (``scaled`` and friends) cannot dodge it.
    """

    name: str
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    protocol: ProtocolName = "paxos"
    per_datacenter_instances: bool = False
    check_invariants: bool = True

    def __post_init__(self) -> None:
        check_choices(self, InvalidExperimentSpec)
        check_combination(Combination.of(
            self.cluster, self.workload, self.protocol,
            per_datacenter=self.per_datacenter_instances,
        ))

    def scaled(self, n_transactions: int) -> "ExperimentSpec":
        """The same cell with a smaller transaction budget (for CI runs)."""
        return replace(self, workload=replace(self.workload, n_transactions=n_transactions))


@dataclass
class ExperimentResult:
    """Metrics for one cell (plus per-instance breakdown for Figure 8)."""

    spec: ExperimentSpec
    metrics: RunMetrics
    per_instance: dict[str, RunMetrics] = field(default_factory=dict)
    outcomes: list[TransactionOutcome] = field(default_factory=list)
    #: Per-lane processed events and utilization of a lane-by-lane run
    #: (:meth:`repro.cluster.Cluster.lane_profile`); ``None`` when the run
    #: went through the single heap.  Excluded from ``metrics_digest`` — it
    #: describes the execution, not the result.
    lane_profile: dict | None = None


def prepare_run(spec: ExperimentSpec, seed: int) -> tuple[Cluster, list[WorkloadDriver]]:
    """Build one cell's world: cluster, preloaded data, started drivers.

    A pure function of ``(spec, seed)``.

    Axis combinations are the spec's own construction-time business — any
    spec that reaches this function already passed the compatibility table.
    """
    cluster = Cluster(replace(spec.cluster, seed=seed))
    # A single client instance runs in the first Virginia zone if the
    # cluster has one, else the first datacenter — the paper's load
    # generator ran in Virginia.
    virginia = [dc for dc in cluster.topology.names if dc.startswith("V")]
    datacenter = virginia[0] if virginia else cluster.topology.names[0]
    if spec.workload.open_loop:
        from repro.workload.openloop import OpenLoopDriver

        drivers = [OpenLoopDriver(
            cluster, spec.workload, spec.protocol, datacenter=datacenter,
        )]
    elif spec.per_datacenter_instances:
        # On a sharded placement the per-DC instances fan out over the
        # groups; on the classic single-group deployment they share the one
        # entity group (the Figure-8 experiment).
        drivers = WorkloadDriver.per_datacenter(
            cluster, spec.workload, spec.protocol,
            shared_group=cluster.placement.n_groups == 1,
        )
    else:
        drivers = [WorkloadDriver(cluster, spec.workload, spec.protocol,
                                  datacenter=datacenter)]
    drivers[0].install_data()
    for driver in drivers:
        driver.start()
    if spec.workload.queue_fraction > 0:
        cluster.start_queue_pumps()
    if not spec.cluster.faults.is_empty():
        from repro.failures.schedule import install_fault_schedule

        install_fault_schedule(cluster, spec.cluster.faults)
    workload = spec.workload
    if (not cluster.shard_map.single_lane
            and workload.group_distribution == "pinned"
            and workload.cross_group_fraction == 0
            and workload.queue_fraction == 0):
        # Group-pinned threads without 2PC or queue traffic never leave
        # their group's lane, and groups that share no transaction never
        # interact: the lanes are independent, which is what lets
        # ``engine="sharded"`` drain big scaling runs lane by lane.
        cluster.env.sim.independent_lanes = True
    return cluster, drivers


def finish_run(
    spec: ExperimentSpec, cluster: Cluster, drivers: "list[WorkloadDriver]",
) -> ExperimentResult:
    """Offline phase of one cell: settle, verify invariants, aggregate.

    The cycle collector stays paused here for the reason it is paused in
    :meth:`Environment.run <repro.sim.env.Environment.run>`: finalizing,
    checking and aggregating build large live structures (merged logs,
    histories, the serialization graph) and free next to no cycles, so a
    collection in here would only re-walk them.
    """
    with collector_paused():
        return _finish_run(spec, cluster, drivers)


def _finish_run(
    spec: ExperimentSpec, cluster: Cluster, drivers: "list[WorkloadDriver]",
) -> ExperimentResult:
    # One end state for every run, checked or not: the check only reads it.
    run = cluster.settle()
    # Bind each driver's result once: on pinned drivers ``result`` is a
    # property that merges the per-thread outcome lists on every access.
    results = [driver.result for driver in drivers]
    outcomes = [outcome for result in results for outcome in result.outcomes]
    if spec.check_invariants:
        cluster.check_invariants_all(outcomes, run)
    queue = None
    if spec.workload.queue_fraction > 0:
        queue = cluster.queue_stats(run)
    # Group logs are independent position sequences, so the merged view
    # the aggregate statistics read keys by (group, position).
    log = {
        (group, position): entry
        for group, group_log in run.logs.items()
        for position, entry in group_log.items()
    }
    loops = [driver for driver in drivers if hasattr(driver, "open_loop_stats")]
    metrics = RunMetrics.from_outcomes(
        outcomes, protocol=spec.protocol, log=log, queue=queue,
        open_loop=loops[0].open_loop_stats() if loops else None,
    )
    per_instance = {
        driver.datacenter: RunMetrics.from_outcomes(
            result.outcomes, protocol=spec.protocol,
        )
        for driver, result in zip(drivers, results)
    }
    metrics.anomalies = cluster.anomaly_counts(run)
    # Network drop counters by cause.
    net = cluster.network.stats
    metrics.dropped_messages = {
        "loss": net.dropped_loss,
        "outage": net.dropped_outage,
        "partition": net.dropped_partition,
    }
    if cluster.fault_windows:
        metrics.availability = availability_report(
            metrics.timeline, cluster.fault_windows
        )
    if cluster.crash_records:
        metrics.node_crashes = len(cluster.crash_records)
        restarted = [
            record for record in cluster.crash_records
            if record.restart_ms is not None
        ]
        metrics.node_restarts = len(restarted)
        if restarted:
            metrics.crash_downtime_ms = fmean(
                record.restart_ms - record.crash_ms for record in restarted
            )
    return ExperimentResult(
        spec=spec, metrics=metrics, per_instance=per_instance,
        outcomes=outcomes, lane_profile=cluster.lane_profile(),
    )


def run_once(spec: ExperimentSpec, seed: int = 0) -> ExperimentResult:
    """Execute one cell once with one seed.

    The finished cluster is one large reference cycle, and
    :meth:`Environment.run <repro.sim.env.Environment.run>` pauses the
    cycle collector: collect it here, where it is dropped, so a process
    that runs cells back to back never carries a dead cluster through the
    next cell's run.
    """
    cluster, drivers = prepare_run(spec, seed)
    cluster.run()
    result = finish_run(spec, cluster, drivers)
    del cluster, drivers
    gc.collect()
    return result


def aggregate_cell(spec: ExperimentSpec, runs: list[ExperimentResult]) -> ExperimentResult:
    """Average per-trial results into the cell's reported result.

    Shared by the serial and parallel paths — the trials must arrive in
    trial order (seed ``base_seed``, ``base_seed + 1``, ...), and then the
    aggregation is deterministic, which is what makes ``--jobs N`` runs
    bit-identical to serial ones.
    """
    merged = aggregate_metrics([run.metrics for run in runs])
    per_instance: dict[str, RunMetrics] = {}
    for dc in runs[0].per_instance:
        per_instance[dc] = aggregate_metrics([run.per_instance[dc] for run in runs])
    return ExperimentResult(
        spec=spec, metrics=merged, per_instance=per_instance,
        outcomes=list(runs[0].outcomes),
        lane_profile=runs[0].lane_profile,
    )


def run_cell(
    spec: ExperimentSpec, trials: int = 3, base_seed: int = 0,
    jobs: int | None = 1,
) -> ExperimentResult:
    """Execute one cell for several seeds and average the metrics.

    ``jobs`` fans the trials out over worker processes (see
    :func:`repro.harness.parallel.run_cells`); the default of 1 runs them
    inline, and both produce bit-identical results.
    """
    if jobs != 1:
        from repro.harness.parallel import run_cells

        return run_cells([spec], trials=trials, base_seed=base_seed, jobs=jobs)[0]
    if trials < 1:
        raise ValueError("need at least one trial")
    runs = [run_once(spec, seed=base_seed + trial) for trial in range(trials)]
    return aggregate_cell(spec, runs)
