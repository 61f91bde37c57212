"""Shared benchmark configuration and the script-mode runner arguments.

Importable both under pytest (``from benchmarks.common import ...`` — the
repo root is on ``sys.path``) and from the scripts themselves, which insert
the repo root before importing when run as ``python benchmarks/bench_x.py``.

Figure benchmarks run the paper's experiment grids.  By default they are
scaled down (120 transactions per cell, one trial) so the whole suite
finishes quickly; set ``REPRO_FULL=1`` for the paper's full scale (500
transactions, three trials — the configuration EXPERIMENTS.md was produced
with).  ``REPRO_JOBS`` (or ``--jobs``) fans cells and trial seeds out over
worker processes with bit-identical results; see
:mod:`repro.harness.parallel`.
"""

from __future__ import annotations

import argparse
import os
import time
from pathlib import Path
from typing import Any, Callable

from repro.harness.parallel import default_jobs  # noqa: F401  (re-exported)
from repro.harness.profiling import run_profiled

RESULTS_DIR = Path(__file__).parent / "results"

FULL_SCALE = os.environ.get("REPRO_FULL", "") == "1"
N_TRANSACTIONS = 500 if FULL_SCALE else 120
TRIALS = 3 if FULL_SCALE else 1


def add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags every benchmark script shares."""
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the experiment grid (0 = one per CPU; "
             "default: $REPRO_JOBS or 1).  Results are bit-identical to "
             "--jobs 1",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="wrap the run in cProfile and print the top-20 cumulative "
             "functions (profiles this process only — combine with "
             "--jobs 1 for kernel numbers)",
    )


def run_benchmark_main(args: argparse.Namespace, run: Callable[[int], Any]) -> int:
    """Execute a benchmark script's run function with the shared flags.

    *run* receives the resolved ``jobs`` count.  Prints the wall-clock time
    at the end — the number the parallel-speedup acceptance compares.
    """
    jobs = args.jobs if args.jobs is not None else default_jobs()
    started = time.perf_counter()
    if args.profile:
        run_profiled(lambda: run(jobs))
    else:
        run(jobs)
    elapsed = time.perf_counter() - started
    print(f"wall-clock: {elapsed:.2f}s (jobs={jobs})")
    return 0
