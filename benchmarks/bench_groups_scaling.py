"""Committed-transaction throughput vs. number of entity groups.

The paper's architecture is explicitly multi-entity-group: "the datastore is
partitioned into entity groups, and each group has its own transaction log"
(§2).  Transactions in different groups never compete for log positions, so
under a fixed offered load the aggregate committed throughput should rise
with the group count — sharding is the first scaling lever.

The workload is the Figure-7 contention setup (VVV, 100 attributes per row,
50% reads / 50% writes, staggered client threads) pushed past a single
log's saturation point: 8 threads offering 8 txn/s each.  Rows are placed
one-per-group by range assignment, reproducing the paper's "single entity
group consisting of a single row" N times over, and each transaction picks
its group uniformly at random.

Every cell runs the full §3 invariant suite over *every* group of the
settled run (``Cluster.check_invariants_all`` inside ``run_once``), so a scaling win
that broke per-group serializability would fail before any assertion here.

Also runnable as a script; ``--jobs N`` fans the (cell × trial) grid over N
worker processes with bit-identical aggregated metrics (the printed
``metrics-digest`` line is the proof — compare it across jobs settings):

    PYTHONPATH=src python benchmarks/bench_groups_scaling.py --smoke --jobs 4
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
from repro.harness.parallel import metrics_digest, run_cells

GROUP_COUNTS = (1, 2, 4, 8)
PROTOCOLS = ("paxos", "paxos-cp")
N_THREADS = 8
RATE_PER_THREAD = 8.0


def groups_spec(
    protocol: str, n_groups: int, n_transactions: int = N_TRANSACTIONS
) -> ExperimentSpec:
    # Range assignment over one row per group: every group owns exactly one
    # single-row entity group, the paper's layout times N.
    placement = PlacementConfig.ranged(n_groups)
    return ExperimentSpec(
        name=f"{n_groups} groups",
        cluster=ClusterConfig(placement=placement),
        workload=WorkloadConfig(
            n_transactions=n_transactions,
            n_rows=max(1, n_groups),
            n_threads=N_THREADS,
            target_rate_per_thread=RATE_PER_THREAD,
        ),
        protocol=protocol,
    )


def committed_throughput(result: ExperimentResult) -> float:
    """Committed transactions per simulated second."""
    metrics = result.metrics
    return metrics.commits / (metrics.duration_ms / 1000.0)


def run_sweep(
    group_counts=GROUP_COUNTS,
    protocols=PROTOCOLS,
    n_transactions: int = N_TRANSACTIONS,
    trials: int = TRIALS,
    jobs: int | None = 1,
) -> dict[str, list[ExperimentResult]]:
    """``{protocol: [result per group count]}`` — one flat grid, so a
    parallel run overlaps every cell and every trial seed."""
    grid = [
        (protocol, n_groups)
        for protocol in protocols
        for n_groups in group_counts
    ]
    results = run_cells(
        [groups_spec(protocol, n_groups, n_transactions)
         for protocol, n_groups in grid],
        trials=trials, jobs=jobs,
    )
    table: dict[str, list[ExperimentResult]] = {p: [] for p in protocols}
    for (protocol, _n_groups), result in zip(grid, results):
        table[protocol].append(result)
    return table


def render(results: dict[str, list[ExperimentResult]], group_counts) -> str:
    lines = [
        "committed throughput vs. entity groups "
        f"(VVV, {N_THREADS} threads x {RATE_PER_THREAD:g} txn/s offered)",
        f"{'protocol':<10} {'groups':>6} {'commits':>8} {'txn/s':>8} {'vs 1 group':>10}",
    ]
    for protocol, cells in results.items():
        tputs = [committed_throughput(r) for r in cells]
        for n_groups, result, tput in zip(group_counts, cells, tputs):
            lines.append(
                f"{protocol:<10} {n_groups:>6} {result.metrics.commits:>8} "
                f"{tput:>8.2f} {tput / tputs[0]:>9.2f}x"
            )
    return "\n".join(lines)


def check_scaling(results: dict[str, list[ExperimentResult]]) -> None:
    """The paper-shape assertions (full sweep only)."""
    for protocol, cells in results.items():
        tputs = [committed_throughput(r) for r in cells]
        # At least 2x committed throughput at 8 groups vs the single log.
        assert tputs[-1] >= 2.0 * tputs[0], (protocol, tputs)
        if protocol == "paxos-cp":
            # The acceptance claim: strictly more committed throughput at
            # every doubling of the group count.
            assert all(b > a for a, b in zip(tputs, tputs[1:])), (protocol, tputs)
        else:
            # Basic Paxos scales at least as hard but is noisier once the
            # offered load stops saturating the sharded logs; allow ties
            # within measurement noise.
            assert all(b > 0.95 * a for a, b in zip(tputs, tputs[1:])), (
                protocol, tputs,
            )


def publish(results: dict[str, list[ExperimentResult]], group_counts) -> str:
    text = render(results, group_counts)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "groups_scaling.txt").write_text(text + "\n")
    print()
    print(text)
    flat = [r for cells in results.values() for r in cells]
    print(f"metrics-digest: {metrics_digest(flat)}")
    return text


def test_groups_scaling(benchmark, request):
    jobs = request.config.getoption("--jobs", default=None)
    if jobs is None:
        jobs = default_jobs()

    def run():
        return run_sweep(jobs=jobs)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    publish(results, GROUP_COUNTS)
    check_scaling(results)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI pass: the full grid at 300 transactions x 3 trials, "
             "sized so --jobs amortizes pool start-up (the speedup/"
             "determinism check), with only sanity assertions",
    )
    add_runner_arguments(parser)
    args = parser.parse_args(argv)

    def run(jobs: int) -> None:
        if args.smoke:
            results = run_sweep(n_transactions=300, trials=3, jobs=jobs)
            publish(results, GROUP_COUNTS)
            for cells in results.values():
                assert all(r.metrics.commits > 0 for r in cells)
        else:
            results = run_sweep(jobs=jobs)
            publish(results, GROUP_COUNTS)
            check_scaling(results)

    return run_benchmark_main(args, run)


if __name__ == "__main__":
    sys.exit(main())
