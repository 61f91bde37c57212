"""Call-count guard on the offline pass.

``Cluster.settle`` computes a run's end state once; ``check_invariants_all``
only reads it, building each group's ``MVHistory`` once and running one MVSG
test per history it tests: one over the merged history when a committed 2PC
branch links two groups, one per group otherwise, none under snapshot
isolation.  There the cycles measure the run, so ``anomaly_counts``
classifies one history per group, checked or not; an unchecked 1sr run
builds no history at all.  No check rebuilds a group's log from its
replicas, and none changes the settled run.  The counts are exact per seed,
so this is a tier-1 guard, not a timing benchmark.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

import repro.cluster
import repro.wal.invariants
from repro.config import (
    ClusterConfig,
    CrashWindow,
    FaultScheduleConfig,
    PlacementConfig,
    WorkloadConfig,
)
from repro.harness.experiment import ExperimentSpec, finish_run, prepare_run
from repro.serializability.history import MVHistory
from tests.helpers import xgroup_mix_spec


def pinned_spec(isolation: str = "1sr") -> ExperimentSpec:
    """Four groups, one pinned thread each, no 2PC and no queue sends."""
    return ExperimentSpec(
        "pinned_4g",
        ClusterConfig(
            "VVV", placement=PlacementConfig.ranged(4, 4), isolation=isolation,
        ),
        WorkloadConfig(
            n_transactions=80, n_rows=4, n_threads=4,
            target_rate_per_thread=4.0, group_distribution="pinned",
        ),
        "paxos-cp",
    )


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Counts of history builds, MVSG tests and replica-log unions."""
    counted: Counter = Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counted[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        MVHistory, "from_log",
        classmethod(counting("from_log", MVHistory.from_log.__func__)),
    )
    monkeypatch.setattr(
        repro.cluster, "is_one_copy_serializable",
        counting("mvsg", repro.cluster.is_one_copy_serializable),
    )
    global_log = counting("global_log", repro.wal.invariants.global_log)
    monkeypatch.setattr(repro.wal.invariants, "global_log", global_log)
    monkeypatch.setattr(repro.cluster, "global_log", global_log, raising=False)
    return counted


def check_once(spec: ExperimentSpec, calls: Counter):
    """Run and settle *spec* at seed 0, then count one ``check_invariants_all``."""
    cluster, drivers = prepare_run(spec, seed=0)
    cluster.run()
    run = cluster.settle()
    outcomes = [outcome for driver in drivers for outcome in driver.result.outcomes]
    calls.clear()
    cluster.check_invariants_all(outcomes, run)
    return cluster, run


def finish_unchecked(spec: ExperimentSpec, calls: Counter):
    """Count one ``finish_run`` of *spec* at seed 0 with the check off."""
    spec = replace(spec, check_invariants=False)
    cluster, drivers = prepare_run(spec, seed=0)
    cluster.run()
    calls.clear()
    finish_run(spec, cluster, drivers)
    return cluster


def test_linked_groups_build_each_history_once_and_test_the_merge_once(calls):
    cluster, run = check_once(xgroup_mix_spec(120), calls)
    linking = [
        entry for log in run.logs.values() for entry in log.values()
        if entry.kind == "prepare" and run.decisions.get(entry.gtid)
    ]
    assert linking, "the cell committed no 2PC branch"
    groups = len(cluster.groups)
    assert groups == 8
    assert calls["from_log"] == groups
    assert calls["mvsg"] == 1
    assert calls["global_log"] == 0


def test_unlinked_groups_test_each_history_once(calls):
    cluster, _run = check_once(pinned_spec(), calls)
    groups = len(cluster.groups)
    assert groups == 4
    assert calls["from_log"] == calls["mvsg"] == groups
    assert calls["global_log"] == 0


def test_snapshot_isolation_checks_no_history_and_classifies_each_once(calls):
    cluster, run = check_once(pinned_spec("si"), calls)
    assert calls["from_log"] == calls["mvsg"] == calls["global_log"] == 0
    cluster.anomaly_counts(run)
    assert calls["from_log"] == len(cluster.groups) == 4
    assert calls["mvsg"] == 0


def test_unchecked_1sr_run_builds_no_history(calls):
    finish_unchecked(pinned_spec(), calls)
    assert calls["from_log"] == calls["mvsg"] == 0


def test_unchecked_si_run_classifies_each_history_once(calls):
    cluster = finish_unchecked(pinned_spec("si"), calls)
    assert calls["from_log"] == len(cluster.groups) == 4
    assert calls["mvsg"] == 0


def test_the_check_leaves_the_settled_run_unchanged(calls):
    """A crash of the pumps' home replica leaves sends for the drain, so the
    settled run holds drained applies and resolved 2PC decisions; the check
    must read both and change neither."""
    spec = xgroup_mix_spec(120, FaultScheduleConfig(crashes=(CrashWindow("V1", 800, 800),)))
    cluster, drivers = prepare_run(spec, seed=0)
    cluster.run()
    run = cluster.settle()
    logs = {group: dict(log) for group, log in run.logs.items()}
    decisions = dict(run.decisions)
    assert cluster.queue_stats(run).drained_offline > 0
    assert decisions
    cluster.check_invariants_all(
        [outcome for driver in drivers for outcome in driver.result.outcomes], run
    )
    assert run.logs == logs
    assert run.decisions == decisions
