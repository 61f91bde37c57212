"""One cell of one workload, measured in this (fresh) process.

The runner spawns ``python cell.py '<job json>'`` once per timed repeat,
one at a time, and reads the record this prints as its last line.  A fresh
process per cell means set-up (importing ``repro`` + ``prepare_run``), peak
RSS and allocator state are paid and measured per cell, never inherited.

Everything is measured from outside: timers (and, for the traced cell,
``cProfile``) around ``prepare_run`` / ``Cluster.run`` / ``finish_run``,
and counters read off public result objects afterwards.
"""

from __future__ import annotations

import cProfile
import gc
import json
import math
import pstats
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.ledger.tracer import (  # noqa: E402
    LAYERS,
    Spans,
    function_row,
    self_time_by_layer,
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _applicable(value: float) -> float:
    """NaN marks "does not apply to this cell"; the ledger prints 0 for it."""
    if math.isinf(value):
        raise RuntimeError("a metric is infinite: the run never recovered")
    return 0.0 if math.isnan(value) else value


def sim_end_to_end(metrics, outcomes, attempted: int) -> dict[str, float]:
    """The simulated-clock end-to-end metrics of one finished cell."""
    from repro.harness.metrics import LatencySummary

    # Percentiles from the retained outcomes, not RunMetrics: open-loop
    # metrics are histogram-built and quantised to 9 % buckets.  An
    # open-loop outcome's latency runs from the arrival's due time.
    latency = LatencySummary.exact(
        outcome.latency_ms for outcome in outcomes if outcome.committed
    )
    goodput = metrics.goodput_per_s if metrics.open_loop else _ratio(
        metrics.commits, metrics.duration_ms / 1000.0
    )
    return {
        "commit_ratio": _ratio(metrics.commits, attempted),
        "goodput_per_sim_s": goodput,
        "commit_latency_p50_ms": latency.p50_ms,
        "commit_latency_p95_ms": latency.p95_ms,
        "commit_latency_p99_ms": latency.p99_ms,
    }


def counters(metrics, network, lane_profile, attempted: int, events: int) -> dict[str, float]:
    """Deterministic per-layer counters: exact for a given seed."""
    commits = metrics.commits
    by_type = network.by_type
    aborts = metrics.aborts_by_reason
    log, queue, loop = metrics.log, metrics.queue, metrics.open_loop
    report = metrics.availability
    paxos_requests = sum(
        count for kind, count in by_type.items()
        if kind.startswith("paxos.") and not kind.endswith(".response")
    )
    promotions = sum(r * count for r, count in metrics.commits_by_round.items())
    lanes = lane_profile or {}
    return {
        "sim.events_per_txn": _ratio(events, attempted),
        "sim.lane_windows": lanes.get("windows", 0),
        "sim.barrier_stalls": sum(lanes.get("barrier_stalls", ())),
        # Lane 0 holds only shared clients (none when threads are pinned).
        "sim.lane_utilization_min": min(lanes.get("utilization", (0, 0))[1:]),
        "net.msgs_per_txn": _ratio(network.sent, attempted),
        "net.msgs_per_commit": _ratio(network.sent, commits),
        "net.dropped_per_txn": _ratio(network.dropped, attempted),
        "paxos.prepares_per_commit": _ratio(by_type.get("paxos.prepare", 0), commits),
        "paxos.accepts_per_commit": _ratio(by_type.get("paxos.accept", 0), commits),
        "paxos.applies_per_commit": _ratio(by_type.get("paxos.apply", 0), commits),
        "paxos.claims_per_txn": _ratio(by_type.get("leader.claim", 0), attempted),
        "paxos.msgs_per_position": _ratio(paxos_requests, log.positions),
        "core.round0_commit_share": _ratio(metrics.commits_by_round.get(0, 0), commits),
        "core.promotions_per_commit": _ratio(promotions, commits),
        "core.max_promotions": metrics.max_promotions,
        "core.combined_txn_share": _ratio(log.combined_transactions, commits),
        "core.lost_position_ratio": _ratio(aborts.get("lost_position", 0), attempted),
        "core.promotion_conflict_ratio": _ratio(aborts.get("promotion_conflict", 0), attempted),
        "core.timeout_ratio": _ratio(aborts.get("timeout", 0), attempted),
        "core.twopc_commit_ratio": _ratio(
            metrics.cross_group_commits, metrics.cross_group_transactions
        ),
        "core.twopc_latency_p50_ms": _applicable(metrics.cross_commit_latency.p50_ms),
        "core.queue_sends_per_txn": _ratio(metrics.queue_sends, attempted),
        "core.queue_mean_lag_ms": _applicable(queue.mean_lag_ms),
        "core.queue_applied_online_share": _ratio(queue.applied_online, queue.sends),
        "wal.positions_per_commit": _ratio(log.positions, commits),
        "wal.noop_entries_per_commit": _ratio(log.noop_entries, commits),
        "workload.offered": loop.offered if loop else 0,
        "workload.refused_ratio": _ratio(loop.dropped, loop.offered) if loop else 0.0,
        "workload.queue_wait_p99_ms": _applicable(loop.queue_wait.p99_ms) if loop else 0.0,
        "workload.peak_pending": loop.peak_pending if loop else 0,
        "failures.node_crashes": metrics.node_crashes,
        "failures.crash_downtime_ms": _applicable(metrics.crash_downtime_ms),
        "failures.zero_windows": report.zero_windows if report else 0,
        "failures.fault_min_goodput_per_s": (
            _applicable(report.fault_min_goodput_per_s) if report else 0.0
        ),
        "failures.unavailable_ms": report.unavailable_ms if report else 0.0,
        "failures.recovery_ms": _applicable(report.recovery_ms) if report else 0.0,
    }


def traced_layers(table, attempted: int, host_s: float) -> dict[str, float]:
    """Per-layer attribution read off the traced cell's profile table."""
    self_time = self_time_by_layer(table)
    total = sum(self_time.values())
    out = {f"{layer}.self_share": _ratio(self_time[layer], total) for layer in LAYERS}
    store_ops = sum(
        function_row(table, "kvstore/store.py", name)[0]
        for name in ("read", "write", "check_and_write")
    )
    check_s = function_row(table, "cluster.py", "check_invariants_all")[1]
    out.update({
        "core.combine_calls_per_txn": _ratio(
            function_row(table, "core/combine.py", "combine")[0], attempted
        ),
        "wal.records_per_txn": _ratio(
            function_row(table, "wal/log.py", "record_chosen")[0], attempted
        ),
        "wal.finalize_s": function_row(table, "cluster.py", "finalize_all")[1],
        "kvstore.ops_per_txn": _ratio(store_ops, attempted),
        "check.host_s": check_s,
        "check.us_per_txn": _ratio(check_s * 1e6, attempted),
        "check.host_share": _ratio(check_s, host_s),
        "harness.aggregate_s": (
            function_row(table, "harness/metrics.py", "from_outcomes")[1]
            + function_row(table, "harness/metrics.py", "from_aggregate")[1]
        ),
    })
    return out


def run_cell(job: dict) -> dict:
    """Run one cell and return its record (see the runner for the fields)."""
    from benchmarks.ledger.workloads import WORKLOADS
    from repro.harness.experiment import finish_run, prepare_run
    from repro.harness.parallel import metrics_digest

    spec = WORKLOADS[job["workload"]].scaled(job["scale"])
    if job["engine"]:
        spec = replace(spec, cluster=replace(spec.cluster, engine=job["engine"]))
    spans = Spans()
    profiler = cProfile.Profile() if job["trace"] else None
    gc.collect()
    with spans.span("cell") as cell:
        if profiler:
            profiler.enable()
        with spans.span("prepare_run"):
            cluster, drivers = prepare_run(spec, job["seed"])
        # Set-up ends where the simulation starts; CPU seconds since the
        # interpreter started, so imports and interpreter boot are inside.
        setup_s = time.process_time()
        if job["setup_only"]:
            return {"setup_s": setup_s}
        with spans.span("cluster.run"):
            cluster.run()
        events = cluster.env.sim.processed_events
        with spans.span("finish_run"):
            result = finish_run(spec, cluster, drivers)
        if profiler:
            profiler.disable()
    metrics = result.metrics
    loop = metrics.open_loop
    attempted = loop.offered if loop else metrics.n_transactions
    host_s = cell["cpu_s"]
    record = {
        "workload": job["workload"],
        "seed": job["seed"],
        "digest": metrics_digest([result]),
        "attempted": attempted,
        # An abort is an answer; only an arrival that never got a decision
        # (refused by admission control) counts as failed.
        "failed": attempted - metrics.n_transactions,
        "commits": metrics.commits,
        "setup_s": setup_s,
        "host_s": host_s,
        "wall_s": cell["wall_s"],
        "phase_s": {row["name"]: row["cpu_s"] for row in spans.rows},
        "events": events,
        "end_to_end": {
            "host_us_per_txn": host_s * 1e6 / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **sim_end_to_end(metrics, result.outcomes, attempted),
        },
        "counters": counters(
            metrics, cluster.network.stats, result.lane_profile, attempted, events
        ),
        "spans": spans.rows,
    }
    if profiler:
        record["traced"] = traced_layers(
            pstats.Stats(profiler).stats, attempted, host_s
        )
    return record


def run_micro() -> dict:
    from benchmarks.ledger import micro

    return {
        "sim.chain_events_per_s": micro.chain_events_per_s(),
        "net.pingpong_msgs_per_s": micro.pingpong_msgs_per_s(),
    }


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    print(json.dumps(run_micro() if job.get("micro") else run_cell(job)))
