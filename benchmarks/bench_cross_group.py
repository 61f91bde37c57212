"""Cross-group 2PC cost: throughput and latency vs. cross-group fraction.

Layering two-phase commit over the per-group logs lifts the paper's
one-group-per-transaction scope; this benchmark measures what that costs.
The workload is the groups-scaling setup (range-sharded single-row groups,
8 threads × 8 txn/s offered) with ``cross_group_fraction`` swept 0 → 50% at
4 and 8 groups: each cross-group transaction touches 2 groups and commits
through prepare entries, a durable decision instance, and decision markers.

Correctness rides along at every sweep point: each cell runs the full
invariant suite (``run_once`` → ``check_invariants_all``) over the run that
``Cluster.settle`` left after 2PC recovery: per-group §3 checks with
decisions applied, all-or-nothing atomicity, the no-orphaned-prepare
invariant, and the MVSG test, over the merged history once a cross-group
transaction commits — a sweep point that violated any of them would raise
before the assertions here run.

Also runnable as a script (CI uses ``--smoke`` for a two-cell quick pass;
``--jobs N`` fans the sweep over N worker processes, bit-identically):

    PYTHONPATH=src python benchmarks/bench_cross_group.py --smoke
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

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


def cross_group_spec(
    n_groups: int, fraction: float, n_transactions: int = N_TRANSACTIONS
) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"{n_groups}g/{int(100 * fraction)}%x",
        cluster=ClusterConfig(placement=PlacementConfig.ranged(n_groups)),
        workload=WorkloadConfig(
            n_transactions=n_transactions,
            n_rows=n_groups,
            n_threads=N_THREADS,
            target_rate_per_thread=RATE_PER_THREAD,
            cross_group_fraction=fraction,
            cross_group_span=2,
        ),
        protocol=PROTOCOL,
    )


def committed_throughput(result: ExperimentResult) -> float:
    metrics = result.metrics
    return metrics.commits / (metrics.duration_ms / 1000.0)


def check_cell(result: ExperimentResult, fraction: float) -> None:
    """The per-cell acceptance assertions (invariants already ran)."""
    metrics = result.metrics
    if fraction == 0.0:
        # The single-group fast path, byte for byte: no 2PC artifacts at all.
        assert metrics.cross_group_transactions == 0, metrics
        assert metrics.log.prepare_entries == 0, metrics
        assert metrics.log.marker_entries == 0, metrics
    else:
        assert metrics.cross_group_transactions > 0, metrics
        # Cross-group transactions commit atomically at this sweep point.
        assert metrics.cross_group_commits > 0, metrics
        assert metrics.log.prepare_entries >= metrics.cross_group_commits, metrics


def run_sweep(
    group_counts=GROUP_COUNTS,
    fractions=FRACTIONS,
    n_transactions: int = N_TRANSACTIONS,
    trials: int = TRIALS,
    jobs: int | None = 1,
) -> dict[int, list[ExperimentResult]]:
    grid = [
        (n_groups, fraction)
        for n_groups in group_counts
        for fraction in fractions
    ]
    results = run_cells(
        [cross_group_spec(n_groups, fraction, n_transactions)
         for n_groups, fraction in grid],
        trials=trials, jobs=jobs,
    )
    table: dict[int, list[ExperimentResult]] = {g: [] for g in group_counts}
    for (n_groups, _fraction), result in zip(grid, results):
        table[n_groups].append(result)
    return table


def render(results: dict[int, list[ExperimentResult]], fractions) -> str:
    lines = [
        "committed throughput and latency vs. cross-group fraction "
        f"(VVV, {PROTOCOL}, {N_THREADS} threads x {RATE_PER_THREAD:g} txn/s, "
        f"span 2)",
        f"{'groups':>6} {'x-frac':>6} {'commits':>8} {'xg commits':>10} "
        f"{'txn/s':>8} {'lat ms':>8} {'xg lat ms':>9}",
    ]
    for n_groups, cells in results.items():
        for fraction, result in zip(fractions, cells):
            metrics = result.metrics
            xg = (
                f"{metrics.cross_group_commits}/{metrics.cross_group_transactions}"
                if metrics.cross_group_transactions else "-"
            )
            xg_lat = (
                f"{metrics.mean_cross_commit_latency_ms:.1f}"
                if metrics.cross_group_commits else "-"
            )
            lines.append(
                f"{n_groups:>6} {fraction:>6.0%} {metrics.commits:>8} "
                f"{xg:>10} {committed_throughput(result):>8.2f} "
                f"{metrics.mean_commit_latency_ms:>8.1f} {xg_lat:>9}"
            )
    return "\n".join(lines)


def run_and_check(group_counts, fractions, n_transactions, trials,
                  jobs: int | None = 1) -> str:
    results = run_sweep(group_counts, fractions, n_transactions, trials, jobs)
    for cells in results.values():
        for fraction, result in zip(fractions, cells):
            check_cell(result, fraction)
    text = render(results, fractions)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "cross_group.txt").write_text(text + "\n")
    print()
    print(text)
    return text


def test_cross_group_sweep(benchmark, request):
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
        help="two-cell quick pass (CI): 4 groups, fractions 0%% and 50%%",
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
