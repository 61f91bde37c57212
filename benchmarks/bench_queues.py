"""Asynchronous queue cost: queue sends vs. 2PC vs. the single-group path.

The 2PC path (``bench_cross_group.py``) pays a prepare round per participant
and blocks in-doubt readers; the asynchronous queue path defers the remote
writes instead — the sends ride the sender's ordinary commit entry, so a
queue transaction's commit latency should track the *single-group* latency,
not the 2PC latency.  This benchmark measures exactly that claim: the
groups-scaling setup (range-sharded single-row groups, 8 threads × 8 txn/s
offered) with the cross-group share swept 0 → 50% at 4 and 8 groups, run
once with the share as ``queue_fraction`` and once as
``cross_group_fraction`` (the 2PC baseline, same data footprint per
transaction: span-2, round-robin ops).

Acceptance (asserted per sweep point):

* queue-send commit latency within 10% of the same cell's plain
  single-group commit latency (median, to shrug off small-sample tails);
* every send delivered — ``run_once`` settles the run (``Cluster.settle``
  drains the queues), and the invariant suite (``check_invariants_all``)
  verifies exactly-once delivery in sender order over the settled run
  before the assertions here even run.

Also runnable as a script (CI uses ``--smoke`` for a quick pass; ``--jobs
N`` fans the sweep over N worker processes, bit-identically):

    PYTHONPATH=src python benchmarks/bench_queues.py --smoke
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from statistics import median

if __package__ in (None, ""):  # script mode: put the repo root on sys.path
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import (
    N_TRANSACTIONS,
    RESULTS_DIR,
    TRIALS,
    add_runner_arguments,
    default_jobs,
    run_benchmark_main,
)
from repro.config import ClusterConfig, PlacementConfig, WorkloadConfig
from repro.harness.experiment import ExperimentResult, ExperimentSpec
from repro.harness.parallel import run_cells

FRACTIONS = (0.0, 0.1, 0.25, 0.5)
GROUP_COUNTS = (4, 8)
PROTOCOL = "paxos-cp"
N_THREADS = 8
RATE_PER_THREAD = 8.0

#: Queue latency must stay within this factor of the single-group latency.
LATENCY_TOLERANCE = 1.10


def queue_spec(
    n_groups: int, fraction: float, n_transactions: int = N_TRANSACTIONS,
    mode: str = "queue",
) -> ExperimentSpec:
    """One sweep cell; ``mode`` selects the queue path or the 2PC baseline."""
    return ExperimentSpec(
        name=f"{n_groups}g/{int(100 * fraction)}%{'q' if mode == 'queue' else 'x'}",
        cluster=ClusterConfig(placement=PlacementConfig.ranged(n_groups)),
        workload=WorkloadConfig(
            n_transactions=n_transactions,
            n_rows=n_groups,
            n_threads=N_THREADS,
            target_rate_per_thread=RATE_PER_THREAD,
            queue_fraction=fraction if mode == "queue" else 0.0,
            cross_group_fraction=fraction if mode == "2pc" else 0.0,
            cross_group_span=2,
        ),
        protocol=PROTOCOL,
    )


def committed_throughput(result: ExperimentResult) -> float:
    metrics = result.metrics
    return metrics.commits / (metrics.duration_ms / 1000.0)


def latency_split(result: ExperimentResult) -> tuple[float, float]:
    """``(median queue-send commit latency, median plain commit latency)``.

    Computed from the raw outcomes rather than the cell means so a couple
    of promoted stragglers cannot swing a small sample.
    """
    queue = [
        o.latency_ms for o in result.outcomes
        if o.committed and o.transaction.sends
    ]
    plain = [
        o.latency_ms for o in result.outcomes
        if o.committed and not o.transaction.sends
        and not o.transaction.is_cross_group
    ]
    return (
        median(queue) if queue else float("nan"),
        median(plain) if plain else float("nan"),
    )


def check_cell(result: ExperimentResult, fraction: float) -> None:
    """Acceptance per queue-mode sweep point (invariants already ran)."""
    metrics = result.metrics
    if fraction == 0.0:
        assert metrics.queue_send_transactions == 0, metrics
        assert metrics.log.queue_apply_entries == 0, metrics
        return
    assert metrics.queue_send_commits > 0, metrics
    # Exactly-once held (check_invariants_all), and everything arrived:
    # no committed send is missing from the settled receiver logs.
    queue = metrics.queue
    assert queue.undelivered == 0, queue
    assert queue.applied_online + queue.drained_offline == queue.sends, queue
    # The headline claim: deferring the remote writes keeps the commit on
    # the single-group latency curve (2PC pays ~40% extra instead).
    queue_lat, plain_lat = latency_split(result)
    assert plain_lat == plain_lat and queue_lat == queue_lat, (queue_lat, plain_lat)
    assert queue_lat <= LATENCY_TOLERANCE * plain_lat, (
        f"queue-send commit latency {queue_lat:.1f}ms exceeds "
        f"{LATENCY_TOLERANCE:.0%} of the single-group latency {plain_lat:.1f}ms"
    )


def run_sweep(group_counts, fractions, n_transactions, trials,
              jobs: int | None = 1):
    """``{n_groups: [(fraction, queue cell, 2PC baseline cell), ...]}``.

    The 2PC baseline is only run for fractions > 0 (at 0 both modes are the
    identical single-group workload).  The whole (groups × fraction × mode)
    grid is one flat run_cells call, so a parallel run overlaps everything.
    """
    grid: list[tuple[int, float, str]] = []
    for n_groups in group_counts:
        for fraction in fractions:
            grid.append((n_groups, fraction, "queue"))
            if fraction > 0:
                grid.append((n_groups, fraction, "2pc"))
    flat = run_cells(
        [queue_spec(n_groups, fraction, n_transactions, mode=mode)
         for n_groups, fraction, mode in grid],
        trials=trials, jobs=jobs,
    )
    by_key = {key: result for key, result in zip(grid, flat)}
    results = {}
    for n_groups in group_counts:
        cells = []
        for fraction in fractions:
            cells.append((
                fraction,
                by_key[(n_groups, fraction, "queue")],
                by_key.get((n_groups, fraction, "2pc")),
            ))
        results[n_groups] = cells
    return results


def render(results) -> str:
    lines = [
        "queue sends vs. 2PC vs. single-group commit latency "
        f"(VVV, {PROTOCOL}, {N_THREADS} threads x {RATE_PER_THREAD:g} txn/s, span 2)",
        f"{'groups':>6} {'share':>6} {'commits':>8} {'txn/s':>8} "
        f"{'plain ms':>8} {'queue ms':>8} {'2pc ms':>8} "
        f"{'applied':>8} {'lag ms':>7} {'stalls':>6}",
    ]
    for n_groups, cells in results.items():
        for fraction, queue_cell, baseline in cells:
            metrics = queue_cell.metrics
            queue_lat, plain_lat = latency_split(queue_cell)
            two_pc = (
                f"{baseline.metrics.mean_cross_commit_latency_ms:.1f}"
                if baseline is not None
                and baseline.metrics.cross_group_commits else "-"
            )
            queue = metrics.queue
            applied = (
                f"{queue.applied_online + queue.drained_offline}/{queue.sends}"
                if queue.sends else "-"
            )
            lag = (
                f"{queue.mean_lag_ms:.0f}"
                if queue.mean_lag_ms == queue.mean_lag_ms else "-"
            )
            lines.append(
                f"{n_groups:>6} {fraction:>6.0%} {metrics.commits:>8} "
                f"{committed_throughput(queue_cell):>8.2f} "
                f"{plain_lat if plain_lat == plain_lat else float('nan'):>8.1f} "
                f"{(queue_lat if queue_lat == queue_lat else float('nan')):>8.1f} "
                f"{two_pc:>8} {applied:>8} {lag:>7} {queue.stalled:>6}"
            )
    return "\n".join(lines)


def run_and_check(group_counts, fractions, n_transactions, trials,
                  jobs: int | None = 1) -> str:
    results = run_sweep(group_counts, fractions, n_transactions, trials, jobs)
    for cells in results.values():
        for fraction, queue_cell, _baseline in cells:
            check_cell(queue_cell, fraction)
    text = render(results)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "queues.txt").write_text(text + "\n")
    print()
    print(text)
    return text


def test_queue_sweep(benchmark, request):
    jobs = request.config.getoption("--jobs", default=None)
    benchmark.pedantic(
        lambda: run_and_check(GROUP_COUNTS, FRACTIONS, N_TRANSACTIONS, TRIALS,
                              jobs=default_jobs() if jobs is None else jobs),
        rounds=1, iterations=1,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="two-point quick pass (CI): 4 groups, shares 0%% and 50%%",
    )
    add_runner_arguments(parser)
    args = parser.parse_args(argv)

    def run(jobs: int) -> None:
        if args.smoke:
            run_and_check((4,), (0.0, 0.5), n_transactions=40, trials=1,
                          jobs=jobs)
        else:
            run_and_check(GROUP_COUNTS, FRACTIONS, N_TRANSACTIONS, TRIALS,
                          jobs=jobs)

    return run_benchmark_main(args, run)


if __name__ == "__main__":
    sys.exit(main())
