"""Settings that must be inert on some cells: the table of equivalences.

Each row of :data:`EQUIVALENCES` runs the same base cells under two sets of
overrides and owes equal runs: the same outcome list (tid, status, abort
reason, commit position, latency and promotions of every transaction) and
the same metrics, up to the protocol label.  A drift names the first tid
that differs.  Rows are in the shape of
:data:`repro.config.COMBINATION_RULES`: what is compared, and why it must
be equal.

The global-vs-sharded drain, hash-seed, retry and hand-off differentials
stay in their own files: each drives its own mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping

import pytest

from repro.config import (
    ClusterConfig,
    CrashWindow,
    FaultScheduleConfig,
    PlacementConfig,
    WorkloadConfig,
)
from repro.harness.experiment import ExperimentResult, ExperimentSpec
from repro.harness.parallel import run_cells
from tests.harness.test_availability import faulted_spec
from tests.harness.test_isolation import contended_spec
from tests.harness.test_parallel import small_spec
from tests.helpers import fig7_spec, xgroup_mix_spec
from tests.workload.test_openloop import open_spec


@dataclass(frozen=True)
class Equivalence:
    """One row: base *cells*, two sets of overrides and why the setting
    they change is inert there.

    An override maps a dotted spec field (``"cluster.isolation"``) to its
    value; ``"jobs"`` is the one key that is not a field, the worker
    processes ``run_cells`` fans the cells over.  *holds* is what else
    every run of either side must show, including the preconditions that
    make the row more than vacuous."""

    name: str
    cells: tuple[ExperimentSpec, ...]
    left: Mapping[str, object]
    right: Mapping[str, object]
    reason: str
    holds: Callable[[list[ExperimentResult]], None]
    seeds: tuple[int, ...] = (0,)
    trials: int = 1


def jobs_cells() -> tuple[ExperimentSpec, ...]:
    """Every cell a serial-vs-``--jobs`` check ran on: 2PC and queue
    traffic, loss and duplication, both isolation levels, the open loop and
    an outage window."""
    return (
        small_spec("plain"),
        small_spec("mixed", queue_fraction=0.4, cross_group_fraction=0.2),
        small_spec("faulty", queue_fraction=0.4, cross_group_fraction=0.2,
                   loss=0.05, duplicate=0.05),
        contended_spec("1sr", transactions=60),
        contended_spec("si", transactions=60),
        open_spec(),
        open_spec(name="openloop-600", workload={"offered_load": 600.0}),
        faulted_spec(),
    )


def jobs_hold(results: list[ExperimentResult]) -> None:
    by_name = {result.spec.name: result for result in results}
    faulty = by_name["faulty"]
    assert faulty.spec.check_invariants  # workers really do run the suite
    queue = faulty.metrics.queue
    assert queue.applied_online + queue.drained_offline + queue.undelivered == queue.sends
    assert sum(by_name["iso/si"].metrics.anomalies.values()) >= 1
    assert by_name["iso/1sr"].metrics.anomalies == {}
    assert by_name[faulted_spec().name].metrics.availability is not None


def contended(results: list[ExperimentResult]) -> None:
    for result in results:
        assert result.metrics.aborts_by_reason.get("lost_position", 0) > 0


def uncontended_cells() -> tuple[ExperimentSpec, ...]:
    """One thread pinned to each of 16 groups, one row each, 1 txn/s: no
    transaction ever meets another."""
    return tuple(
        ExperimentSpec(
            f"uncontended/{protocol}",
            ClusterConfig(placement=PlacementConfig.ranged(16)),
            WorkloadConfig(
                n_transactions=160, n_rows=16, n_threads=16,
                target_rate_per_thread=1.0, group_distribution="pinned",
            ),
            protocol,
        )
        for protocol in ("paxos", "paxos-cp")
    )


def conflict_free(results: list[ExperimentResult]) -> None:
    for result in results:
        assert result.metrics.commits == result.metrics.n_transactions
        assert result.metrics.max_promotions == 0


def crashed(spec: ExperimentSpec, datacenter: str, start_ms: float,
            restart_after_ms: float) -> ExperimentSpec:
    """*spec* with one crash-restart cycle of *datacenter*'s replicas."""
    window = CrashWindow(datacenter, start_ms, restart_after_ms)
    return replace(
        spec, name=f"{spec.name}/crash",
        cluster=replace(spec.cluster, faults=FaultScheduleConfig(crashes=(window,))),
    )


def settled_cells() -> tuple[ExperimentSpec, ...]:
    """Cells whose settled run differs from what the simulation left: a
    crash of the pumps' home replica leaves sends for the offline drain,
    and snapshot isolation admits write skew."""
    return (
        open_spec(),
        crashed(xgroup_mix_spec(300), "V1", 2000, 800),
        contended_spec("si", transactions=60),
    )


def settled_hold(results: list[ExperimentResult]) -> None:
    opened, drained, skewed = results
    assert len(opened.outcomes) == opened.metrics.n_transactions > 0
    # Outcomes are re-anchored at the arrival: latency == response.
    assert all(outcome.latency_ms >= 0 for outcome in opened.outcomes)
    assert drained.metrics.queue.drained_offline > 0
    assert sum(skewed.metrics.anomalies.values()) >= 1


def without_queues() -> tuple[ExperimentSpec, ...]:
    """The contended Figure 7 cell under basic Paxos, and the 2PC mix (under
    Paxos-CP) with its queue share set to zero."""
    mix = xgroup_mix_spec(200)
    return (
        fig7_spec(100, "paxos"),
        replace(mix, workload=replace(mix.workload, queue_fraction=0.0)),
    )


def no_queue_traffic(results: list[ExperimentResult]) -> None:
    assert all(result.metrics.queue_sends == 0 for result in results)
    assert any(result.metrics.cross_group_transactions > 0 for result in results)


def lease_cells() -> tuple[ExperimentSpec, ...]:
    """The Figure 7 cell under basic Paxos, and under Paxos-CP with a
    replica crash and restart."""
    return (
        fig7_spec(100, "paxos"),
        crashed(fig7_spec(200, "paxos-cp"), "V1", 5000, 3000),
    )


def crash_happened(results: list[ExperimentResult]) -> None:
    assert results[-1].metrics.node_crashes >= 1


EQUIVALENCES: tuple[Equivalence, ...] = (
    Equivalence(
        "serial_vs_jobs",
        jobs_cells(),
        {"jobs": 1},
        {"jobs": 2},
        "workers run the serial path's run_once on the serial path's seeds, "
        "and the parent aggregates their results in (cell, trial) order",
        jobs_hold,
        trials=2,
    ),
    Equivalence(
        "basic_vs_cp_without_enhancements",
        (fig7_spec(100, "paxos"),),
        {"protocol": "paxos"},
        {"protocol": "paxos-cp", "cluster.protocol.enable_combination": False,
         "cluster.protocol.enable_promotion": False},
        "Paxos-CP is basic Paxos plus combination and promotion in the same "
        "message budget (arXiv:1208.0270 §5): with both off it picks the "
        "value by findWinningVal, and a lost position ends the transaction",
        contended,
        seeds=(0, 1, 2),
    ),
    Equivalence(
        "1sr_vs_si_without_conflicts",
        uncontended_cells(),
        {"cluster.isolation": "1sr"},
        {"cluster.isolation": "si"},
        "write-snapshot isolation (the 1sr check) and SI part only when a "
        "transaction meets a conflict (arXiv:2405.18393), and on these "
        "cells none does",
        conflict_free,
        seeds=(0, 1, 2),
    ),
    Equivalence(
        "checked_vs_unchecked",
        settled_cells(),
        {"check_invariants": False},
        {"check_invariants": True},
        "every run settles once (2PC recovery, queue drain) and the metrics "
        "read the settled run; the invariant suite only reads it too",
        settled_hold,
        seeds=(5,),
    ),
    Equivalence(
        "queue_poll_ms_without_queues",
        without_queues(),
        {"cluster.protocol.queue_poll_ms": 25.0},
        {"cluster.protocol.queue_poll_ms": 100.0},
        "only a delivery pump polls, and a cell without queue sends starts "
        "none",
        no_queue_traffic,
        seeds=(0, 1),
    ),
    Equivalence(
        "lease_ms_under_paxos",
        lease_cells(),
        {"cluster.protocol.lease_ms": 500.0},
        {"cluster.protocol.lease_ms": 50.0},
        "only the leased leader holds a lease or waits one out after a "
        "restart; basic Paxos and Paxos-CP never read it",
        crash_happened,
        seeds=(0, 1),
    ),
)


def overridden(obj, path: str, value):
    """*obj* with the field at the dotted *path* set to *value*."""
    head, _, rest = path.partition(".")
    return replace(obj, **{head: overridden(getattr(obj, head), rest, value) if rest else value})


def run_side(row: Equivalence, overrides: Mapping[str, object], seed: int):
    """The results of *row*'s cells under *overrides* at base *seed*."""
    fields = dict(overrides)
    jobs = fields.pop("jobs", 1)
    specs = []
    for spec in row.cells:
        for path, value in fields.items():
            spec = overridden(spec, path, value)
        specs.append(spec)
    return run_cells(specs, trials=row.trials, base_seed=seed, jobs=jobs)


def outcome_rows(result: ExperimentResult) -> list[tuple]:
    return [
        (outcome.transaction.tid, outcome.status, outcome.abort_reason,
         outcome.commit_position, outcome.latency_ms, outcome.promotions)
        for outcome in result.outcomes
    ]


def unlabelled_metrics(result: ExperimentResult) -> str:
    return repr((
        replace(result.metrics, protocol=""),
        {dc: replace(metrics, protocol="")
         for dc, metrics in sorted(result.per_instance.items())},
    ))


CASES = [
    pytest.param(row, seed, id=row.name if len(row.seeds) == 1 else f"{row.name}-seed{seed}")
    for row in EQUIVALENCES
    for seed in row.seeds
]


@pytest.mark.parametrize(("row", "seed"), CASES)
def test_equivalence(row: Equivalence, seed: int):
    left, right = run_side(row, row.left, seed), run_side(row, row.right, seed)
    row.holds(left)
    row.holds(right)
    for a, b in zip(left, right):
        where = f"{row.name}: cell {a.spec.name!r}, seed {seed}"
        rows_a, rows_b = outcome_rows(a), outcome_rows(b)
        for outcome_a, outcome_b in zip(rows_a, rows_b):
            assert outcome_a == outcome_b, (
                f"{where}: first difference at {outcome_a[0]}: "
                f"{outcome_a} != {outcome_b}"
            )
        assert len(rows_a) == len(rows_b), f"{where}: outcome counts differ"
        assert unlabelled_metrics(a) == unlabelled_metrics(b), (
            f"{where}: equal outcomes, different metrics"
        )
