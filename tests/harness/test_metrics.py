"""Tests for metrics aggregation."""

import math
import random
import statistics
from dataclasses import fields, is_dataclass, replace
from typing import get_args, get_origin, get_type_hints

import pytest

from repro.config import ClusterConfig, PlacementConfig, WorkloadConfig
from repro.harness.experiment import ExperimentSpec, run_once
from repro.harness.metrics import (
    AvailabilityTimeline,
    LatencyHistogram,
    LatencySummary,
    LogStats,
    RunMetrics,
    aggregate_metrics,
    fmean,
    median,
)
from repro.model import AbortReason
from tests.helpers import aborted, committed, entry, txn


def outcome(tid, status="commit", promotions=0, begin=0.0, end=100.0,
            reason=AbortReason.LOST_POSITION):
    t = txn(tid, writes={"a": 1})
    if status == "commit":
        result = committed(t, position=1, promotions=promotions)
    else:
        result = aborted(t, reason)
        result.promotions = promotions
    result.begin_time = begin
    result.end_time = end
    return result


class TestRunMetrics:
    def test_counts_commits_and_aborts(self):
        metrics = RunMetrics.from_outcomes([
            outcome("t1"), outcome("t2", "abort"), outcome("t3"),
        ], protocol="paxos")
        assert metrics.n_transactions == 3
        assert metrics.commits == 2
        assert metrics.aborts == 1
        assert metrics.commit_rate == 2 / 3
        assert metrics.aborts_by_reason == {"lost_position": 1}

    def test_commits_by_promotion_round(self):
        metrics = RunMetrics.from_outcomes([
            outcome("t1", promotions=0),
            outcome("t2", promotions=0),
            outcome("t3", promotions=1),
            outcome("t4", promotions=3),
        ])
        assert metrics.commits_by_round == {0: 2, 1: 1, 3: 1}
        assert metrics.max_promotions == 3

    def test_latency_statistics(self):
        metrics = RunMetrics.from_outcomes([
            outcome("t1", end=100.0),
            outcome("t2", end=200.0),
            outcome("t3", "abort", end=900.0),
        ])
        assert metrics.mean_commit_latency_ms == 150.0
        assert metrics.median_commit_latency_ms == 150.0
        assert metrics.mean_all_latency_ms == 400.0

    def test_latency_by_round(self):
        metrics = RunMetrics.from_outcomes([
            outcome("t1", promotions=0, end=100.0),
            outcome("t2", promotions=1, end=300.0),
        ])
        assert metrics.latency_by_round == {0: 100.0, 1: 300.0}

    def test_empty_outcomes(self):
        metrics = RunMetrics.from_outcomes([])
        assert metrics.commits == 0
        assert math.isnan(metrics.mean_commit_latency_ms)
        assert math.isnan(metrics.commit_rate)

    def test_log_stats(self):
        log = {
            1: entry(txn("t1", writes={"a": 1})),
            2: entry(txn("t2", writes={"a": 2}), txn("t3", writes={"b": 1})),
        }
        stats = LogStats.from_log(log)
        assert stats.positions == 2
        assert stats.combined_entries == 1
        assert stats.combined_transactions == 1
        assert stats.max_entry_size == 2


class TestAggregate:
    def test_single_trial_passthrough(self):
        metrics = RunMetrics.from_outcomes([outcome("t1")])
        assert aggregate_metrics([metrics]) is metrics

    def test_averaging(self):
        first = RunMetrics.from_outcomes(
            [outcome("t1"), outcome("t2", "abort")], protocol="paxos"
        )
        second = RunMetrics.from_outcomes(
            [outcome("t3"), outcome("t4")], protocol="paxos"
        )
        merged = aggregate_metrics([first, second])
        assert merged.n_transactions == 2
        assert merged.commits == 2  # round(1.5) = 2 (banker's -> 2)
        assert merged.protocol == "paxos"

    def test_round_histograms_merge(self):
        first = RunMetrics.from_outcomes([outcome("t1", promotions=1)])
        second = RunMetrics.from_outcomes([outcome("t2", promotions=2)])
        merged = aggregate_metrics([first, second])
        assert set(merged.commits_by_round) == {1, 2}
        assert merged.max_promotions == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_metrics([])

    def test_every_numeric_field_survives(self):
        # Two identical trials, every number distinct: whatever a field's
        # rule (mean, maximum, rounded up, first trial), it must come back.
        trial = filled(RunMetrics, iter(range(1, 1000)))
        queue = trial.queue
        queue.sends = queue.applied_online + queue.drained_offline + queue.undelivered
        merged = aggregate_metrics([trial, trial])
        assert numbers(merged) == numbers(trial)
        assert merged.timeline.commits == {0: 2}


def filled(cls, counter):
    """An instance of the record *cls* with a distinct non-default number in
    every numeric field, recursing into nested and optional records."""
    values = {}
    hints = get_type_hints(cls)
    for spec in fields(cls):
        declared = hints[spec.name]
        arms = [arm for arm in get_args(declared) if arm is not type(None)]
        if get_origin(declared) is not dict and len(arms) == 1:
            declared = arms[0]  # an optional record
        if declared is int:
            values[spec.name] = next(counter)
        elif declared is float:
            values[spec.name] = next(counter) + 0.5
        elif declared is str:
            values[spec.name] = "paxos"
        elif get_origin(declared) is dict:
            key_type, value_type = get_args(declared)
            key = "k" if key_type is str else 0
            values[spec.name] = {key: value_type(next(counter))}
        elif is_dataclass(declared):
            values[spec.name] = filled(declared, counter)
        elif declared is AvailabilityTimeline:
            timeline = AvailabilityTimeline()
            timeline.record(10.0, True, latency_ms=next(counter))
            values[spec.name] = timeline
        else:
            raise TypeError(f"{cls.__name__}.{spec.name}: {declared!r}")
    return cls(**values)


def numbers(record, path="metrics"):
    """Every numeric leaf of *record*, by path."""
    out = {}
    for spec in fields(record):
        value = getattr(record, spec.name)
        where = f"{path}.{spec.name}"
        if is_dataclass(value):
            out.update(numbers(value, where))
        elif isinstance(value, dict):
            out.update({f"{where}[{key!r}]": v for key, v in value.items()})
        elif isinstance(value, (int, float)):
            out[where] = value
    return out


LATENCY_FIELDS = dict.fromkeys((
    "latency_by_round", "commit_latency", "all_latency",
    "cross_commit_latency", "queue_commit_latency", "timeline",
))

CELLS = {
    "closed": ExperimentSpec(
        "closed", ClusterConfig(placement=PlacementConfig.ranged(4)),
        WorkloadConfig(n_transactions=40, n_rows=4, n_threads=4,
                       target_rate_per_thread=8.0),
        "paxos-cp", check_invariants=False,
    ),
    "open_loop": ExperimentSpec(
        "open_loop",
        ClusterConfig(placement=PlacementConfig.ranged(4, key_universe=8)),
        WorkloadConfig(open_loop=True, n_users=1_000_000, offered_load=120.0,
                       pool_size=8, max_pending=3, open_duration_ms=1_200.0,
                       n_rows=8),
        "paxos-cp", check_invariants=False,
    ),
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_retention_decides_only_exact_vs_bucketed(cell):
    retained = run_once(CELLS[cell], seed=2)
    streamed = run_once(replace(CELLS[cell], retain_outcomes=False), seed=2)
    r, s = retained.metrics, streamed.metrics
    # Every count and every non-latency field comes out of the one fold.
    assert repr(replace(r, **LATENCY_FIELDS)) == repr(replace(s, **LATENCY_FIELDS))
    assert r.commits_by_round == s.commits_by_round
    assert r.timeline.commits == s.timeline.commits
    assert r.timeline.aborts == s.timeline.aborts
    # Retained: exact over the outcome list.  Streamed: the histograms'.
    committed_ms = [o.latency_ms for o in retained.outcomes if o.committed]
    assert r.commit_latency == LatencySummary.exact(committed_ms)
    assert r.all_latency == LatencySummary.exact(o.latency_ms for o in retained.outcomes)
    histogram = LatencyHistogram()
    for value in committed_ms:
        histogram.record(value)
    bucketed = LatencySummary.from_histogram(histogram)
    # The open-loop pool sums its mean client by client, hence isclose.
    assert replace(s.commit_latency, mean_ms=0.0) == replace(bucketed, mean_ms=0.0)
    assert math.isclose(s.commit_latency.mean_ms, bucketed.mean_ms)
    for name in ("mean_ms", "p50_ms", "p95_ms", "p99_ms"):
        exact, bucketed = getattr(r.commit_latency, name), getattr(s.commit_latency, name)
        ratio = LatencyHistogram.bucket_ratio()
        assert exact / ratio <= bucketed <= exact * ratio, name


class TestNoopStats:
    def test_log_stats_counts_noop_entries(self):
        from repro.wal.entry import LogEntry

        log = {
            1: entry(txn("t1", writes={"a": 1})),
            2: LogEntry.noop(),
        }
        stats = LogStats.from_log(log)
        assert stats.positions == 2
        assert stats.noop_entries == 1
        assert stats.combined_entries == 0


class TestMeanAndMedian:
    """The helpers that keep :mod:`statistics` off the import path return
    the stdlib's floats bit for bit."""

    @pytest.mark.parametrize("length", [1, 2, 7, 10, 101, 1000])
    def test_bit_identical_to_statistics(self, length):
        rng = random.Random(length)
        for _ in range(20):
            values = [rng.uniform(-1e3, 1e6) * rng.choice((1e-9, 1.0, 1e12))
                      for _ in range(length)]
            assert fmean(values).hex() == statistics.fmean(values).hex()
            assert fmean(tuple(values)).hex() == statistics.fmean(values).hex()
            assert fmean(v for v in values).hex() == statistics.fmean(values).hex()
            assert float(median(values)).hex() == float(statistics.median(values)).hex()
            assert float(median(v for v in values)).hex() == (
                float(statistics.median(values)).hex()
            )

    def test_integers_as_the_stdlib_does(self):
        assert fmean([1, 2]) == statistics.fmean([1, 2]) == 1.5
        assert median([3, 1, 2]) == statistics.median([3, 1, 2]) == 2
        assert median([4, 1, 2, 3]) == statistics.median([4, 1, 2, 3]) == 2.5

    @pytest.mark.parametrize("helper", [fmean, median])
    def test_empty_input_raises_value_error(self, helper):
        with pytest.raises(ValueError):
            helper([])
        with pytest.raises(ValueError):
            helper(v for v in ())
