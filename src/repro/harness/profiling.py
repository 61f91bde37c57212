"""Profiling support shared by the CLI and the benchmark runners.

Perf work should start from data: ``--profile`` on any entry point wraps
the run in :mod:`cProfile` and prints the top cumulative functions, so the
next optimization target is measured, not guessed.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
from typing import Any, Callable, TextIO

#: How many rows ``--profile`` prints.
TOP_FUNCTIONS = 20


def run_profiled(
    run: Callable[[], Any],
    top: int = TOP_FUNCTIONS,
    stream: TextIO | None = None,
) -> Any:
    """Run *run* under cProfile; print the top-*top* cumulative functions.

    The profile covers only this process — under a parallel run
    (``--jobs N``) the workers do the simulating, so profile with
    ``--jobs 1`` when kernel time is the question.

    Returns whatever *run* returns; the stats print even if it raises.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return run()
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=stream or sys.stdout)
        stats.sort_stats("cumulative").print_stats(top)


def format_lane_profile(profile: dict) -> str:
    """Render a lane-by-lane run's per-lane event counts.

    ``profile`` is :attr:`repro.harness.experiment.ExperimentResult.lane_profile`.
    The utilization spread is the dial to watch: an idle lane means a
    skewed shard assignment.
    """
    lines = [
        "lanes drained one after another",
        f"{'lane':>6} {'events':>10} {'util':>6}",
    ]
    for lane, (count, util) in enumerate(
        zip(profile["events"], profile["utilization"])
    ):
        label = "shared" if lane == 0 else f"{lane}"
        lines.append(f"{label:>6} {count:>10} {util:>6.1%}")
    return "\n".join(lines)
