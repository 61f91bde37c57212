"""The parallel harness's serial path, seeds and job counts.

Its one promise — ``run_cells(specs, trials, jobs=N)`` field-for-field
identical to ``jobs=1`` — is the ``serial_vs_jobs`` row of
``test_equivalences.py``, which runs one worker pool over every cell a
serial-vs-jobs check needs.  NaN-valued latency fields (cells with no
commits in a bucket) compare as identical when both sides are NaN.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.config import ClusterConfig, PlacementConfig, WorkloadConfig
from repro.harness.experiment import ExperimentSpec, run_cell
from repro.harness.parallel import resolve_jobs, run_cells, trial_seed


def small_spec(name: str = "cell", *, queue_fraction: float = 0.0,
               cross_group_fraction: float = 0.0, loss: float = 0.0,
               duplicate: float = 0.0) -> ExperimentSpec:
    return ExperimentSpec(
        name=name,
        cluster=ClusterConfig(
            placement=PlacementConfig.ranged(2),
            loss_probability=loss,
            duplicate_probability=duplicate,
        ),
        workload=WorkloadConfig(
            n_transactions=12,
            ops_per_transaction=3,
            n_attributes=8,
            n_rows=2,
            n_threads=3,
            target_rate_per_thread=20.0,
            queue_fraction=queue_fraction,
            cross_group_fraction=cross_group_fraction,
        ),
        protocol="paxos-cp",
    )


def nan_aware_equal(a, b) -> bool:
    """Structural equality where NaN == NaN (recursive over dataclasses)."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (a != a and b != b)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            nan_aware_equal(a[key], b[key]) for key in a
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            nan_aware_equal(x, y) for x, y in zip(a, b)
        )
    return a == b


def assert_metrics_identical(serial, parallel):
    left, right = asdict(serial), asdict(parallel)
    assert left.keys() == right.keys()
    for field_name in left:
        assert nan_aware_equal(left[field_name], right[field_name]), (
            f"field {field_name!r} differs: "
            f"{left[field_name]!r} != {right[field_name]!r}"
        )


class TestSeedDerivation:
    def test_matches_the_serial_loop(self):
        assert [trial_seed(7, trial) for trial in range(3)] == [7, 8, 9]

    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(4) == 4
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestSerialPath:
    def test_run_cells_matches_run_cell(self):
        spec = small_spec()
        via_cells = run_cells([spec], trials=2, base_seed=3, jobs=1)[0]
        via_cell = run_cell(spec, trials=2, base_seed=3)
        assert_metrics_identical(via_cells.metrics, via_cell.metrics)

    def test_results_in_spec_order(self):
        specs = [small_spec(f"cell-{index}") for index in range(3)]
        results = run_cells(specs, trials=1, jobs=1)
        assert [result.spec.name for result in results] == [
            "cell-0", "cell-1", "cell-2",
        ]

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            run_cells([small_spec()], trials=0)

    def test_empty_specs(self):
        assert run_cells([], trials=2, jobs=2) == []


class TestRunCellDelegation:
    def test_run_cell_jobs_matches_serial(self):
        # jobs=2 hands the cell to run_cells; its one task runs inline, so
        # this checks the hand-off without starting a pool.
        spec = small_spec()
        serial = run_cell(spec, trials=1, base_seed=2, jobs=1)
        parallel = run_cell(spec, trials=1, base_seed=2, jobs=2)
        assert_metrics_identical(serial.metrics, parallel.metrics)
