"""Digests are constants: pinned per cell, and independent of ``sum()``.

CPython 3.12's builtin ``sum()`` adds floats with Neumaier compensation,
3.11 adds them left to right.  Wherever a float total reaches a simulated
number, the simulation sums left to right itself, so one digest holds on
both interpreters.  The pins are seed 0, one trial.
"""

from __future__ import annotations

import builtins
import math

import pytest

from repro.config import ClusterConfig, PlacementConfig, WorkloadConfig
from repro.harness.experiment import ExperimentSpec, run_once
from repro.harness.parallel import metrics_digest
from repro.workload.openloop import LogicalUserModel
from repro.workload.ycsb import ZipfianGenerator
from tests.helpers import fig7_spec, xgroup_mix_spec

PINNED = {
    "fig7_paxos": "c8452e537cbbb20492a3392ead7fde74e757dc354d81f02384578623fa3cb994",
    "fig7_paxos_cp": "e33765bfb82461307714f0b53a46889bf7573fc47bdd514d544d5654fc79c890",
    "xgroup_mix": "816e4f90c5307bd8f3b1b3bd9a31c4f2a07ed92b23aaa46bf87cefa2bdf34437",
}

CELLS = {
    "fig7_paxos": lambda: fig7_spec(300, "paxos"),
    "fig7_paxos_cp": lambda: fig7_spec(300, "paxos-cp"),
    "xgroup_mix": lambda: xgroup_mix_spec(300),
    "zipfian": lambda: ExperimentSpec(
        "zipfian", ClusterConfig("VVV"),
        WorkloadConfig(
            n_transactions=120, n_rows=1, distribution="zipfian",
            n_threads=4, target_rate_per_thread=4.0,
        ),
        "paxos-cp",
    ),
    "open_loop": lambda: ExperimentSpec(
        "open_loop",
        ClusterConfig(placement=PlacementConfig.ranged(4, key_universe=8)),
        WorkloadConfig(
            open_loop=True, n_users=1_000_000, offered_load=120.0,
            pool_size=8, max_pending=3, open_duration_ms=1_200.0, n_rows=8,
        ),
        "paxos-cp", check_invariants=False,
    ),
}


def digest(cell: str) -> str:
    return metrics_digest([run_once(CELLS[cell](), seed=0)])


@pytest.mark.parametrize("cell", sorted(PINNED))
def test_pinned_digest(cell):
    assert digest(cell) == PINNED[cell]


_plain_sum = builtins.sum


def neumaier_sum(iterable, start=0):
    """Builtin ``sum()`` as CPython 3.12 computes it over floats."""
    items = list(iterable)
    if not any(isinstance(item, float) for item in items):
        return _plain_sum(items, start)
    total, compensation = float(start), 0.0
    for item in items:
        item = float(item)
        t = total + item
        if abs(total) >= abs(item):
            compensation += (total - t) + item
        else:
            compensation += (item - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_neumaier_sum_differs_from_left_to_right():
    # The emulation is only evidence if it really sums differently.
    values = [1.0, 1e100, 1.0, -1e100]
    assert neumaier_sum(values) == 2.0
    assert _plain_sum(values) == 0.0


def test_sums_do_not_depend_on_the_interpreter(monkeypatch):
    plain = {cell: digest(cell) for cell in ("zipfian", "open_loop")}
    plain["xgroup_mix"] = PINNED["xgroup_mix"]
    zipf = ZipfianGenerator(100)._cumulative
    zeta = LogicalUserModel._zeta(1_000_000, 0.99)
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    assert ZipfianGenerator(100)._cumulative == zipf
    assert LogicalUserModel._zeta(1_000_000, 0.99) == zeta
    assert {cell: digest(cell) for cell in plain} == plain
