"""Call-count guard on the offline check pass.

``Cluster.check_invariants_all`` builds each group's ``MVHistory`` once and
runs one MVSG test per history it tests: one over the merged history when a
committed 2PC branch links two groups, one per group otherwise, none under
snapshot isolation (whose cycles are classified instead).  No check
rebuilds a group's log from its replicas.  The counts are exact per seed,
so this is a tier-1 guard, not a timing benchmark.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.cluster
import repro.wal.invariants
from repro.config import ClusterConfig, PlacementConfig, WorkloadConfig
from repro.harness.experiment import ExperimentSpec, prepare_run
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
    """Run *spec* at seed 0, then count one ``check_invariants_all``."""
    cluster, drivers = prepare_run(spec, seed=0)
    cluster.run()
    logs = cluster.finalize_all()
    outcomes = [outcome for driver in drivers for outcome in driver.result.outcomes]
    calls.clear()
    decisions = cluster.check_invariants_all(outcomes, logs=logs)
    return cluster, logs, decisions


def test_linked_groups_build_each_history_once_and_test_the_merge_once(calls):
    cluster, logs, decisions = check_once(xgroup_mix_spec(120), calls)
    linking = [
        entry for log in logs.values() for entry in log.values()
        if entry.kind == "prepare" and decisions.get(entry.gtid)
    ]
    assert linking, "the cell committed no 2PC branch"
    groups = len(cluster.groups)
    assert groups == 8
    assert calls["from_log"] == groups
    assert calls["mvsg"] == 1
    assert calls["global_log"] == 0


def test_unlinked_groups_test_each_history_once(calls):
    cluster, _logs, _decisions = check_once(pinned_spec(), calls)
    groups = len(cluster.groups)
    assert groups == 4
    assert calls["from_log"] == calls["mvsg"] == groups
    assert calls["global_log"] == 0


def test_snapshot_isolation_classifies_each_history_and_tests_none(calls):
    cluster, _logs, _decisions = check_once(pinned_spec("si"), calls)
    assert calls["from_log"] == len(cluster.groups) == 4
    assert calls["mvsg"] == 0
    assert calls["global_log"] == 0
