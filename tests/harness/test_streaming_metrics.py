"""Streaming aggregates: OutcomeAggregate parity and retain_outcomes=False.

Two layers: (1) folding outcomes through :class:`OutcomeAggregate` +
``RunMetrics.from_aggregate`` must agree with the retained
``RunMetrics.from_outcomes`` path on every count-derived field, with
latency percentiles within one histogram bucket; (2) a closed-loop
:class:`WorkloadDriver` run with ``retain_outcomes=False`` must reproduce
the retained run's counts exactly while keeping no outcome lists.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.config import ClusterConfig, PlacementConfig, WorkloadConfig
from repro.harness.experiment import ExperimentSpec, run_once
from repro.harness.metrics import (
    LatencyHistogram,
    OutcomeAggregate,
    RunMetrics,
)
from repro.model import AbortReason
from tests.helpers import aborted, committed, txn

RATIO = LatencyHistogram.bucket_ratio()


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


def sample_outcomes():
    return [
        outcome("t1", end=100.0),
        outcome("t2", end=200.0, promotions=1),
        outcome("t3", "abort", end=900.0),
        outcome("t4", end=50.0),
        outcome("t5", "abort", end=10.0, reason=AbortReason.TIMEOUT),
        outcome("t6", end=400.0, promotions=1),
    ]


class TestOutcomeAggregateParity:
    def test_counts_match_from_outcomes_exactly(self):
        outcomes = sample_outcomes()
        exact = RunMetrics.from_outcomes(outcomes, protocol="paxos")
        aggregate = OutcomeAggregate()
        for o in outcomes:
            aggregate.absorb(o)
        streamed = RunMetrics.from_aggregate(aggregate, protocol="paxos")
        assert streamed.n_transactions == exact.n_transactions
        assert streamed.commits == exact.commits
        assert streamed.aborts_by_reason == exact.aborts_by_reason
        assert streamed.commits_by_round == exact.commits_by_round
        assert streamed.max_promotions == exact.max_promotions
        assert streamed.duration_ms == exact.duration_ms
        assert streamed.latency_by_round == exact.latency_by_round

    def test_latency_summaries_within_bucket(self):
        outcomes = sample_outcomes()
        exact = RunMetrics.from_outcomes(outcomes)
        streamed = RunMetrics.from_aggregate(
            OutcomeAggregate() if not outcomes else _fold(outcomes)
        )
        assert math.isclose(
            streamed.commit_latency.mean_ms, exact.commit_latency.mean_ms
        )
        assert streamed.commit_latency.max_ms == exact.commit_latency.max_ms
        for attr in ("p95_ms", "p99_ms", "p999_ms"):
            e = getattr(exact.commit_latency, attr)
            a = getattr(streamed.commit_latency, attr)
            assert e / RATIO <= a <= e * RATIO, (attr, e, a)

    def test_merge_in_order_reproduces_serial_fold(self):
        outcomes = sample_outcomes()
        serial = _fold(outcomes)
        left, right = _fold(outcomes[:3]), _fold(outcomes[3:])
        left.merge(right)
        assert repr(RunMetrics.from_aggregate(left)) == repr(
            RunMetrics.from_aggregate(serial)
        )

    def test_metrics_independent_of_later_absorbs(self):
        aggregate = _fold(sample_outcomes())
        metrics = RunMetrics.from_aggregate(aggregate)
        before = repr(metrics)
        aggregate.absorb(outcome("t9", end=5_000.0))
        assert aggregate.n == metrics.n_transactions + 1
        assert repr(metrics) == before

    def test_list_compatible_append(self):
        aggregate = OutcomeAggregate()
        aggregate.append(outcome("t1"))
        assert aggregate.n == 1 and aggregate.commits == 1


def _fold(outcomes) -> OutcomeAggregate:
    aggregate = OutcomeAggregate()
    for o in outcomes:
        aggregate.absorb(o)
    return aggregate


# ----------------------------------------------------------------------
# Closed-loop driver in aggregate-only mode
# ----------------------------------------------------------------------


def closed_spec(**workload_overrides) -> ExperimentSpec:
    workload = dict(n_transactions=40, n_threads=4, target_rate_per_thread=8.0)
    workload.update(workload_overrides)
    return ExperimentSpec(
        name="closed",
        cluster=ClusterConfig(placement=PlacementConfig.ranged(4)),
        workload=WorkloadConfig(n_rows=4, **workload),
        protocol="paxos-cp",
        check_invariants=False,
        retain_outcomes=False,
    )


class TestClosedLoopStreaming:
    def test_matches_retained_run(self):
        streaming_spec = closed_spec()
        retained_spec = replace(
            streaming_spec, retain_outcomes=True, check_invariants=True
        )
        streaming = run_once(streaming_spec, seed=4)
        retained = run_once(retained_spec, seed=4)
        assert streaming.outcomes == []
        assert len(retained.outcomes) == 40
        s, r = streaming.metrics, retained.metrics
        assert s.n_transactions == r.n_transactions
        assert s.commits == r.commits
        assert s.aborts_by_reason == r.aborts_by_reason
        assert s.commits_by_round == r.commits_by_round
        assert s.duration_ms == r.duration_ms
        assert math.isclose(s.commit_latency.mean_ms, r.commit_latency.mean_ms)
        assert math.isclose(s.mean_all_latency_ms, r.mean_all_latency_ms)
        p50_exact = r.commit_latency.p50_ms
        assert p50_exact / RATIO <= s.commit_latency.p50_ms <= p50_exact * RATIO

    def test_pinned_mode_streams_per_thread(self):
        streaming_spec = closed_spec(group_distribution="pinned")
        retained_spec = replace(
            streaming_spec, retain_outcomes=True, check_invariants=True
        )
        streaming = run_once(streaming_spec, seed=4)
        retained = run_once(retained_spec, seed=4)
        assert streaming.metrics.commits == retained.metrics.commits
        assert streaming.metrics.commits_by_round == retained.metrics.commits_by_round

    def test_streaming_with_invariants_is_rejected(self):
        # The conflict is caught at spec construction, not at run time.
        with pytest.raises(ValueError, match="retain_outcomes"):
            replace(closed_spec(), check_invariants=True)
