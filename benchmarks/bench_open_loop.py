"""Open-loop saturation sweep: goodput vs offered load under admission control.

The closed-loop figure benchmarks can never overload the system — each
thread waits for its own previous transaction.  This sweep drives the
open-loop engine (``repro.workload.openloop``) instead: a one-million-user
logical population arrives (Poisson) over a 64-client pool at a ramp of
offered loads, with per-client admission control (bounded pending queues).
Every latency percentile is exact, folded from the kept outcomes.

Reported per offered-load point: arrivals, admitted, dropped (admission
control), commits, goodput (commits per offered second), response-time
p50/p95/p99/p999, pending-queue wait, and the *saturation knee* — the
first point whose goodput falls below ``KNEE_FRACTION`` of its offered
load.  Beyond the knee, goodput should plateau (the admission control
sheds the excess) rather than collapse.

Acceptance (asserted, ``--smoke`` included):

* every admitted arrival ran to a decision, and each kept one outcome;
* the top of the ramp is past saturation: drops observed, goodput below
  ``KNEE_FRACTION`` of offered;
* goodput plateaus: the top point's goodput is at least half the best
  point's (shedding, not collapsing);
* the whole sweep is metrics-digest-identical between ``--jobs 1`` and
  ``--jobs 2``.

Also runnable as a script (CI uses ``--smoke``):

    PYTHONPATH=src python benchmarks/bench_open_loop.py --smoke
"""

from __future__ import annotations

import argparse
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
from repro.config import ClusterConfig, PlacementConfig, WorkloadConfig
from repro.harness.experiment import ExperimentResult, ExperimentSpec
from repro.harness.parallel import metrics_digest, run_cells
from repro.harness.report import format_open_loop

PROTOCOL = "paxos-cp"
N_USERS = 1_000_000
POOL_SIZE = 64
MAX_PENDING = 4
N_GROUPS = 8
N_ROWS = 64
OFFERED_RAMP = (40.0, 80.0, 160.0, 320.0, 640.0, 1280.0)
SMOKE_RAMP = (80.0, 320.0, 1280.0)
DURATION_MS = 10_000.0 if FULL_SCALE else 4_000.0
SMOKE_DURATION_MS = 2_000.0

#: A point is past the saturation knee once goodput < this × offered.
KNEE_FRACTION = 0.9


def open_loop_spec(offered: float, duration_ms: float) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"open/poisson/{offered:g}ps",
        cluster=ClusterConfig(
            placement=PlacementConfig.ranged(N_GROUPS, key_universe=N_ROWS),
        ),
        workload=WorkloadConfig(
            open_loop=True,
            n_users=N_USERS,
            offered_load=offered,
            pool_size=POOL_SIZE,
            max_pending=MAX_PENDING,
            open_duration_ms=duration_ms,
            n_rows=N_ROWS,
        ),
        protocol=PROTOCOL,
        check_invariants=False,
    )


def saturation_knee(results: list[ExperimentResult]) -> float | None:
    """Offered rate of the first point past the knee, or None."""
    for result in results:
        stats = result.metrics.open_loop
        if result.metrics.goodput_per_s < KNEE_FRACTION * stats.offered_rate:
            return stats.offered_rate
    return None


def check_sweep(results: list[ExperimentResult]) -> None:
    """Acceptance over one completed ramp (ordered by offered load)."""
    for result in results:
        stats = result.metrics.open_loop
        assert stats is not None, result.spec.name
        assert stats.logical_users == N_USERS
        assert stats.pool_size <= 64
        assert stats.offered == stats.admitted + stats.dropped, stats
        assert stats.completed == stats.admitted, (
            "the drain tail must run every admitted arrival to a decision"
        )
        assert len(result.outcomes) == stats.completed, (
            "every decided arrival keeps its outcome"
        )
    top = results[-1]
    top_stats = top.metrics.open_loop
    assert top_stats.dropped > 0, (
        f"top of the ramp ({top_stats.offered_rate:g}/s) never saturated "
        f"the admission control"
    )
    assert top.metrics.goodput_per_s < KNEE_FRACTION * top_stats.offered_rate, (
        "top of the ramp is not past the saturation knee"
    )
    best = max(r.metrics.goodput_per_s for r in results)
    assert top.metrics.goodput_per_s >= 0.5 * best, (
        f"goodput collapsed past saturation: top {top.metrics.goodput_per_s:.1f}/s "
        f"vs best {best:.1f}/s — admission control should shed, not thrash"
    )


def run_ramp(ramp, duration_ms: float, trials: int,
             jobs: int | None = 1) -> list[ExperimentResult]:
    specs = [open_loop_spec(offered, duration_ms) for offered in ramp]
    return run_cells(specs, trials=trials, jobs=jobs)


def render(results: list[ExperimentResult]) -> str:
    knee = saturation_knee(results)
    title = (
        f"open-loop saturation sweep (VVV, {PROTOCOL}, {N_USERS:,} users, "
        f"pool {POOL_SIZE}, max_pending {MAX_PENDING}, {N_GROUPS} groups)"
    )
    lines = [title, format_open_loop(results)]
    if knee is not None:
        lines.append(f"saturation knee: {knee:g} offered/s "
                     f"(first point with goodput < {KNEE_FRACTION:.0%} of offered)")
    else:
        lines.append("saturation knee: not reached on this ramp")
    return "\n".join(lines)


def run_and_check(ramp, duration_ms: float, trials: int,
                  jobs: int | None = 1) -> str:
    results = run_ramp(ramp, duration_ms, trials, jobs=jobs)
    check_sweep(results)
    # Digest determinism: the exact sweep again, serial and two workers.
    serial_digest = metrics_digest(run_ramp(ramp, duration_ms, trials, jobs=1))
    parallel_digest = metrics_digest(run_ramp(ramp, duration_ms, trials, jobs=2))
    assert serial_digest == parallel_digest, (
        f"open-loop sweep digests diverge: serial {serial_digest} vs "
        f"--jobs 2 {parallel_digest}"
    )
    text = render(results)
    text += f"\nmetrics-digest: {serial_digest}"
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "open_loop.txt").write_text(text + "\n")
    print()
    print(text)
    return text


def test_open_loop_sweep(benchmark, request):
    jobs = request.config.getoption("--jobs", default=None)
    benchmark.pedantic(
        lambda: run_and_check(SMOKE_RAMP, SMOKE_DURATION_MS, trials=1,
                              jobs=default_jobs() if jobs is None else jobs),
        rounds=1, iterations=1,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="three-point quick ramp (CI) over a 2s horizon",
    )
    add_runner_arguments(parser)
    args = parser.parse_args(argv)

    def run(jobs: int) -> None:
        if args.smoke:
            run_and_check(SMOKE_RAMP, SMOKE_DURATION_MS, trials=1, jobs=jobs)
        else:
            run_and_check(OFFERED_RAMP, DURATION_MS, trials=TRIALS, jobs=jobs)

    return run_benchmark_main(args, run)


if __name__ == "__main__":
    sys.exit(main())
