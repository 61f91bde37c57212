"""Tests for the availability timeline, report, and digest stability."""

import math

from repro.config import ClusterConfig, FaultScheduleConfig, OutageWindow
from repro.harness.experiment import ExperimentSpec, run_once
from repro.harness.metrics import (
    AvailabilityReport,
    AvailabilityTimeline,
    RunMetrics,
    aggregate_metrics,
    availability_report,
)
from repro.harness.parallel import metrics_digest
from repro.harness.report import format_availability, format_cells
from repro.config import WorkloadConfig

WINDOW = 500.0


def populate(timeline: AvailabilityTimeline, commits_per_window: dict[int, int]):
    for index, count in commits_per_window.items():
        for k in range(count):
            timeline.record(index * WINDOW + 10.0, True, latency_ms=5.0 + k)


class TestTimeline:
    def test_record_buckets_by_end_time(self):
        timeline = AvailabilityTimeline()
        timeline.record(499.9, True, latency_ms=3.0)
        timeline.record(500.0, False, reason="timeout")
        timeline.record(1750.0, False, reason="timeout")
        assert timeline.commits == {0: 1}
        assert timeline.aborts == {1: {"timeout": 1}, 3: {"timeout": 1}}
        assert timeline.last_index() == 3
        assert timeline.latency[0].count == 1

    def test_absorb_is_exact_and_order_preserving(self):
        a, b = AvailabilityTimeline(), AvailabilityTimeline()
        merged = AvailabilityTimeline()
        for t, committed in [(10.0, True), (600.0, False), (610.0, True)]:
            a.record(t, committed, reason="timeout", latency_ms=4.0)
            merged.record(t, committed, reason="timeout", latency_ms=4.0)
        for t, committed in [(20.0, True), (650.0, True)]:
            b.record(t, committed, latency_ms=6.0)
            merged.record(t, committed, latency_ms=6.0)
        combined = AvailabilityTimeline()
        combined.absorb(a)
        combined.absorb(b)
        assert combined == merged
        assert repr(combined) == repr(merged)

    def test_eq_distinguishes_window_contents(self):
        a, b = AvailabilityTimeline(), AvailabilityTimeline()
        a.record(10.0, True, latency_ms=1.0)
        b.record(10.0, False, reason="timeout")
        assert a != b


class TestReport:
    def synthetic(self) -> AvailabilityTimeline:
        timeline = AvailabilityTimeline()
        populate(timeline, {
            0: 10, 1: 10, 2: 10, 3: 10,   # pre-fault baseline
            4: 0, 5: 0, 6: 2,             # inside the fault (2000-3500)
            7: 3, 8: 6, 9: 9,             # recovery ramp
        })
        return timeline

    def test_synthetic_numbers(self):
        report = availability_report(self.synthetic(), [(2000.0, 3500.0)])
        assert report.fault_start_ms == 2000.0
        assert report.fault_end_ms == 3500.0
        assert report.baseline_goodput_per_s == 20.0   # 10 per 500 ms
        assert report.fault_min_goodput_per_s == 0.0
        assert report.zero_windows == 2
        assert report.unavailable_ms == 1000.0
        # First window at/after the fault back above 50% of baseline (>= 5
        # commits) is window 8; it closes at 4500 ms -> 1000 ms recovery.
        assert report.recovery_ms == 1000.0

    def test_never_recovered_is_infinite(self):
        timeline = AvailabilityTimeline()
        populate(timeline, {0: 10, 1: 10, 2: 0, 3: 1, 4: 1})
        report = availability_report(timeline, [(1000.0, 1500.0)])
        assert report.recovery_ms == math.inf

    def test_fault_past_run_end_is_clamped(self):
        """An 'outage for the rest of time' only counts observed windows."""
        timeline = AvailabilityTimeline()
        populate(timeline, {0: 10, 1: 10, 2: 0, 3: 2})
        report = availability_report(timeline, [(1000.0, 10_000_000.0)])
        assert report.zero_windows == 1
        assert report.unavailable_ms == WINDOW

    def test_fault_free_run_has_no_report(self):
        assert availability_report(self.synthetic(), []) is None

    def test_aggregate_keeps_worst_case_visible(self):
        def metrics(zero: int, recovery: float) -> RunMetrics:
            m = RunMetrics(protocol="paxos", n_transactions=1, commits=1)
            m.availability = AvailabilityReport(
                fault_start_ms=1000.0, fault_end_ms=2000.0,
                baseline_goodput_per_s=20.0, fault_min_goodput_per_s=2.0,
                zero_windows=zero, unavailable_ms=zero * WINDOW,
                recovery_ms=recovery,
            )
            return m

        merged = aggregate_metrics([metrics(0, 500.0), metrics(1, math.inf)])
        assert merged.availability.zero_windows == 1   # ceil(0.5)
        assert merged.availability.recovery_ms == math.inf


class TestRendering:
    def test_availability_table_renders_never(self):
        metrics = RunMetrics(protocol="paxos", n_transactions=5, commits=2)
        metrics.availability = AvailabilityReport(
            fault_start_ms=1000.0, fault_end_ms=2000.0,
            baseline_goodput_per_s=20.0, fault_min_goodput_per_s=0.0,
            zero_windows=2, unavailable_ms=1000.0, recovery_ms=math.inf,
        )
        spec = ExperimentSpec(name="cell")
        result = run_result(spec, metrics)
        table = format_availability([result], title="availability")
        assert "never" in table
        assert "cell" in table

    def test_dropped_column_elides_zeros(self):
        metrics = RunMetrics(protocol="paxos", n_transactions=5, commits=5)
        metrics.dropped_messages = {"loss": 0, "outage": 7, "partition": 0}
        table = format_cells([run_result(ExperimentSpec(name="cell"), metrics)])
        assert "outage:7" in table
        assert "loss:0" not in table


def run_result(spec, metrics):
    from repro.harness.experiment import ExperimentResult

    return ExperimentResult(spec=spec, metrics=metrics)


def faulted_spec() -> ExperimentSpec:
    """A small cell with one minority outage window (its serial-vs-jobs
    row is in test_equivalences.py)."""
    return ExperimentSpec(
        name="VVV/paxos-cp/faults-1o",
        cluster=ClusterConfig(
            cluster_code="VVV",
            faults=FaultScheduleConfig(
                outages=(OutageWindow("V3", 400.0, 600.0),),
            ),
        ),
        workload=WorkloadConfig(
            n_transactions=18, ops_per_transaction=3, n_attributes=8,
            n_threads=3, target_rate_per_thread=20.0,
        ),
        protocol="paxos-cp",
    )


class TestDigests:
    def test_timeline_participates_in_digest(self):
        spec = faulted_spec()
        result = run_once(spec, seed=0)
        digest_before = metrics_digest([run_result(spec, result.metrics)])
        result.metrics.timeline.record(99_999.0, True, latency_ms=1.0)
        digest_after = metrics_digest([run_result(spec, result.metrics)])
        assert digest_before != digest_after
