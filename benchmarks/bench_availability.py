"""Availability under fire: commit paths through a minority-DC outage.

The paper's §1 motivation is exactly this scenario — a datacenter drops
off the network and the replicated transaction tier must keep accepting
commits.  This benchmark runs each commit path (basic Paxos, Paxos-CP,
the 2PC cross-group layer, and the asynchronous queue mix) through a
declarative fault schedule: a majority-preserving outage of one non-home
datacenter, with the client retry policy on (capped exponential backoff
and a per-transaction deadline).  A fifth cell drives the same fault
open-loop — arrivals do not pause for the fault, so it measures the
*brown-out* shape: goodput must shed during the window and climb back
out, not collapse.

Reported per cell: the standard metrics plus the availability columns —
pre-fault baseline goodput, worst in-fault window, zero-commit windows
(derived unavailability), and recovery time (first window back above 50%
of the pre-fault baseline).

Acceptance (asserted, ``--smoke`` included):

* every cell observed the fault (outage-dropped messages > 0);
* the single-group Paxos and Paxos-CP cells never lose a full window —
  a majority-preserving outage must not zero their goodput;
* recovery time is finite and reported for every cell (no cell ends the
  run still below half its pre-fault goodput);
* the open-loop brown-out cell sheds rather than collapses: no
  zero-commit window, finite recovery;
* the fault-scheduled Paxos-CP cell is metrics-digest-identical between
  ``--jobs 1`` and ``--jobs 2``.

Also runnable as a script (CI uses ``--smoke``):

    PYTHONPATH=src python benchmarks/bench_availability.py --smoke
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

if __package__ in (None, ""):  # script mode: put the repo root on sys.path
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import (
    FULL_SCALE,
    RESULTS_DIR,
    TRIALS,
    add_runner_arguments,
    default_jobs,
    run_benchmark_main,
)
from repro.config import (
    ClusterConfig,
    CrashWindow,
    FaultScheduleConfig,
    OutageWindow,
    PlacementConfig,
    ProtocolConfig,
    WorkloadConfig,
)
from repro.harness.experiment import ExperimentResult, ExperimentSpec
from repro.harness.parallel import metrics_digest, run_cells
from repro.harness.report import format_availability, format_cells

CLUSTER = "VVV"
#: The outage victim: the *last* datacenter — never the home (first) one,
#: so the surviving pair keeps a majority of three.
VICTIM_INDEX = -1
N_THREADS = 4
RATE_PER_THREAD = 8.0
N_TRANSACTIONS = 200 if FULL_SCALE else 120
SMOKE_TRANSACTIONS = 80
#: (start_ms, duration_ms) of the outage window.
FAULT = (2000.0, 1500.0)
SMOKE_FAULT = (1000.0, 600.0)

#: Open-loop brown-out cell.
OPEN_OFFERED = 48.0
OPEN_POOL = 16
OPEN_DURATION_MS = 6_000.0
SMOKE_OPEN_DURATION_MS = 3_000.0

#: The client-side robustness policy every cell runs with: three retries,
#: exponential backoff growing past the historic flat 40 ms, and a
#: per-transaction deadline so no retry loop outlives the fault by much.
RETRY = dict(retry_attempts=3, retry_backoff_cap_ms=320.0, deadline_ms=8_000.0)


def victim_datacenter() -> str:
    from repro.net.topology import cluster_preset

    return cluster_preset(CLUSTER).names[VICTIM_INDEX]


def fault_schedule(fault: tuple[float, float],
                   kind: str = "outage") -> FaultScheduleConfig:
    """The cell's declarative fault: one majority-preserving window.

    ``kind="outage"`` severs the victim's network with memory intact;
    ``kind="crash"`` kills the victim's replicas outright — volatile state
    erased, restart recovering purely from durable state — so the crash
    cells measure the cost of amnesia plus WAL replay, not just of lost
    connectivity.
    """
    start_ms, duration_ms = fault
    if kind == "crash":
        return FaultScheduleConfig(
            crashes=(CrashWindow(victim_datacenter(), start_ms, duration_ms),)
        )
    return FaultScheduleConfig(
        outages=(OutageWindow(victim_datacenter(), start_ms, duration_ms),)
    )


def closed_loop_spec(
    label: str, protocol: str, fault: tuple[float, float],
    n_transactions: int, n_groups: int = 1,
    cross_group_fraction: float = 0.0, queue_fraction: float = 0.0,
    fault_kind: str = "outage",
) -> ExperimentSpec:
    faults = fault_schedule(fault, kind=fault_kind)
    return ExperimentSpec(
        name=f"avail/{label}{faults.cell_suffix()}",
        cluster=ClusterConfig(
            cluster_code=CLUSTER,
            protocol=ProtocolConfig(**RETRY),
            placement=PlacementConfig.ranged(
                n_groups, key_universe=max(n_groups, 1)
            ),
            faults=faults,
        ),
        workload=WorkloadConfig(
            n_transactions=n_transactions,
            ops_per_transaction=4,
            n_attributes=16,
            n_rows=max(n_groups, 1),
            n_threads=N_THREADS,
            target_rate_per_thread=RATE_PER_THREAD,
            cross_group_fraction=cross_group_fraction,
            queue_fraction=queue_fraction,
        ),
        protocol=protocol,  # type: ignore[arg-type]
    )


def brownout_spec(fault: tuple[float, float],
                  duration_ms: float) -> ExperimentSpec:
    faults = fault_schedule(fault)
    return ExperimentSpec(
        name=f"avail/brownout{faults.cell_suffix()}",
        cluster=ClusterConfig(
            cluster_code=CLUSTER,
            protocol=ProtocolConfig(**RETRY),
            faults=faults,
        ),
        workload=WorkloadConfig(
            open_loop=True,
            arrival="poisson",
            n_users=100_000,
            offered_load=OPEN_OFFERED,
            pool_size=OPEN_POOL,
            open_duration_ms=duration_ms,
        ),
        protocol="paxos-cp",
        check_invariants=False,
    )


def build_grid(smoke: bool) -> list[ExperimentSpec]:
    fault = SMOKE_FAULT if smoke else FAULT
    n = SMOKE_TRANSACTIONS if smoke else N_TRANSACTIONS
    return [
        closed_loop_spec("basic", "paxos", fault, n),
        closed_loop_spec("cp", "paxos-cp", fault, n),
        closed_loop_spec("2pc", "paxos-cp", fault, n, n_groups=4,
                         cross_group_fraction=0.3),
        closed_loop_spec("queue", "paxos-cp", fault, n, n_groups=4,
                         queue_fraction=0.4),
        # Crash-restart cells: the same window, but the victim replica
        # *dies* instead of merely dropping off the network — its volatile
        # state is erased and recovery replays the WAL on restart.
        closed_loop_spec("basic-crash", "paxos", fault, n,
                         fault_kind="crash"),
        closed_loop_spec("cp-crash", "paxos-cp", fault, n,
                         fault_kind="crash"),
        brownout_spec(
            fault, SMOKE_OPEN_DURATION_MS if smoke else OPEN_DURATION_MS
        ),
    ]


def check_results(results: list[ExperimentResult]) -> None:
    """The availability acceptance over one completed grid."""
    for result in results:
        name = result.spec.name
        metrics = result.metrics
        assert metrics.dropped_messages.get("outage", 0) > 0, (
            f"{name}: the scheduled outage never dropped a message — "
            f"the fault did not bite"
        )
        report = metrics.availability
        assert report is not None, f"{name}: no availability report"
        assert report.baseline_goodput_per_s > 0.0, (
            f"{name}: no pre-fault baseline goodput"
        )
        assert math.isfinite(report.recovery_ms), (
            f"{name}: recovery time is {report.recovery_ms} — the cell "
            f"never climbed back above "
            f"{report.recovery_threshold:.0%} of its pre-fault goodput"
        )
    by_label = {result.spec.name.split("/")[1]: result for result in results}
    for label in ("basic", "cp", "basic-crash", "cp-crash"):
        report = by_label[label].metrics.availability
        assert report.zero_windows == 0, (
            f"{label}: goodput hit zero for {report.zero_windows} full "
            f"window(s) during a majority-preserving fault"
        )
    for label in ("basic-crash", "cp-crash"):
        metrics = by_label[label].metrics
        assert metrics.node_crashes == 1, (
            f"{label}: expected exactly one replica crash, saw "
            f"{metrics.node_crashes}"
        )
        assert metrics.node_restarts == metrics.node_crashes, (
            f"{label}: {metrics.node_crashes} crash(es) but only "
            f"{metrics.node_restarts} restart(s) — recovery must be finite"
        )
        assert math.isfinite(metrics.crash_downtime_ms), (
            f"{label}: no crash downtime recorded"
        )
    brownout = by_label["brownout"].metrics.availability
    assert brownout.zero_windows == 0, (
        "brown-out cell collapsed: a full open-loop window committed nothing "
        "during a majority-preserving outage"
    )


def check_digest(smoke: bool) -> str:
    """Serial-vs-parallel determinism of a fault-scheduled cell."""
    fault = SMOKE_FAULT if smoke else FAULT
    n = SMOKE_TRANSACTIONS if smoke else N_TRANSACTIONS
    spec = closed_loop_spec("cp", "paxos-cp", fault, n)
    serial = metrics_digest(run_cells([spec], trials=2, jobs=1))
    parallel = metrics_digest(run_cells([spec], trials=2, jobs=2))
    assert serial == parallel, (
        f"fault-scheduled cell digests diverge: serial {serial} vs "
        f"--jobs 2 {parallel}"
    )
    return serial


def render(results: list[ExperimentResult], digest: str) -> str:
    fault = results[0].metrics.availability
    title = (
        f"availability under a {victim_datacenter()} outage "
        f"({fault.fault_start_ms:.0f}-{fault.fault_end_ms:.0f} ms, "
        f"{CLUSTER}, retry x{RETRY['retry_attempts']}, "
        f"deadline {RETRY['deadline_ms']:.0f} ms)"
    )
    crash_lines = [
        f"crash-restart {result.spec.name.split('/')[1]}: "
        f"{result.metrics.node_crashes} crash(es), "
        f"{result.metrics.node_restarts} restart(s), "
        f"mean downtime {result.metrics.crash_downtime_ms:.0f} ms, "
        f"recovery {result.metrics.availability.recovery_ms:.0f} ms"
        for result in results
        if result.metrics.node_crashes
    ]
    lines = [
        title,
        format_cells(results),
        "",
        format_availability(results, title="availability"),
        *crash_lines,
        f"metrics-digest: {digest}",
    ]
    return "\n".join(lines)


def run_and_check(smoke: bool, trials: int, jobs: int | None = 1) -> str:
    results = run_cells(build_grid(smoke), trials=trials, jobs=jobs)
    check_results(results)
    digest = check_digest(smoke)
    text = render(results, digest)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "availability.txt").write_text(text + "\n")
    print()
    print(text)
    return text


def test_availability_bench(benchmark, request):
    jobs = request.config.getoption("--jobs", default=None)
    benchmark.pedantic(
        lambda: run_and_check(
            smoke=True, trials=1,
            jobs=default_jobs() if jobs is None else jobs,
        ),
        rounds=1, iterations=1,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced transaction budget and a shorter fault window (CI)",
    )
    add_runner_arguments(parser)
    args = parser.parse_args(argv)

    def run(jobs: int) -> None:
        run_and_check(args.smoke, trials=1 if args.smoke else TRIALS,
                      jobs=jobs)

    return run_benchmark_main(args, run)


if __name__ == "__main__":
    sys.exit(main())
