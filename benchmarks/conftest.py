"""Benchmark configuration and helpers (pytest side).

Scale constants live in :mod:`benchmarks.common` (shared with the
script-mode runners) and are re-exported here for the figure benches.

Every figure benchmark:

* regenerates the figure's data series and writes the table to
  ``benchmarks/results/<name>.txt`` (also echoed to stdout);
* asserts the *shape* the paper reports (who wins, roughly by how much),
  so a regression that flips a conclusion fails the benchmark run.

``--jobs N`` (or ``REPRO_JOBS=N``) fans every grid's (cell × trial) tasks
out over N worker processes with bit-identical results.
"""

from __future__ import annotations

import pytest

from benchmarks.common import (  # noqa: F401  (re-exported for the benches)
    FULL_SCALE,
    N_TRANSACTIONS,
    RESULTS_DIR,
    TRIALS,
    default_jobs,
)
from repro.harness.experiment import ExperimentResult
from repro.harness.figures import FigureGrid
from repro.harness.parallel import run_cells
from repro.harness.report import format_comparison

#: Worker processes for run_grid; pytest_configure applies ``--jobs``.
JOBS = default_jobs()


def pytest_addoption(parser):
    parser.addoption(
        "--jobs", action="store", type=int, default=None,
        help="worker processes for benchmark experiment grids "
             "(0 = one per CPU; default: $REPRO_JOBS or 1)",
    )


def pytest_configure(config):
    global JOBS
    jobs = config.getoption("--jobs", default=None)
    if jobs is not None:
        JOBS = jobs


def run_grid(grid: FigureGrid, jobs: int | None = None) -> list[ExperimentResult]:
    """Run every cell of a figure grid at the configured scale."""
    scaled = grid.scaled(N_TRANSACTIONS)
    return run_cells(
        scaled.cells, trials=TRIALS,
        jobs=JOBS if jobs is None else jobs,
    )


def publish(grid: FigureGrid, results: list[ExperimentResult], name: str) -> str:
    """Render, save, and print the paper-vs-measured table."""
    text = format_comparison(grid.paper_shape, results, grid.figure)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)
    return text


def by_protocol(results: list[ExperimentResult]):
    """Split results into {protocol: {cell name: result}}."""
    table: dict[str, dict[str, ExperimentResult]] = {}
    for result in results:
        table.setdefault(result.spec.protocol, {})[result.spec.name] = result
    return table


@pytest.fixture(scope="session")
def scale() -> dict:
    return {"n_transactions": N_TRANSACTIONS, "trials": TRIALS, "full": FULL_SCALE}
