"""Aggregating transaction outcomes into the paper's reported statistics.

The figures report, per experiment: successful commits out of 500 (stacked
by promotion round for Paxos-CP), average commit latency (again by round),
and — in the §6 prose — combination counts ("At most, 24 combinations were
performed per experiment, and the average number of combinations was only
6.8") and maximum promotions observed ("no transaction was able to execute
more than seven promotions before aborting").

Beyond the paper's means, every latency family (commit, all-transaction,
cross-group, queue-send) flows through one summary helper,
:class:`LatencySummary`, which also carries the production-facing tails
(p50/p95/p99/p999).

Every run keeps its outcomes and reaches :class:`RunMetrics` through one
fold, :class:`OutcomeAggregate` inside :meth:`RunMetrics.from_outcomes`,
for the closed-loop and the open-loop driver alike; every latency
statistic it reports is exact.  :class:`LatencyHistogram`, the
fixed-memory log-bucketed accumulator, serves the availability timeline's
windows and the open-loop queue waits.  :func:`aggregate_metrics` then
combines trials field by field, by each field's declared type and one
table of exceptions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, Hashable, Iterable, Mapping, get_args, get_origin, get_type_hints

from repro.core.queues import QueueStats
from repro.model import AbortReason, TransactionOutcome
from repro.wal.entry import LogEntry


def fmean(data: Iterable[float]) -> float:
    """The mean of *data*, bit for bit as :func:`statistics.fmean` computes
    it: ``math.fsum(data) / n``.  Raises ``ValueError`` on empty data.

    Here rather than imported: :mod:`statistics` pulls :mod:`fractions`
    and :mod:`decimal` into every process that imports ``repro``."""
    values = list(data)
    if not values:
        raise ValueError("fmean requires at least one data point")
    return math.fsum(values) / len(values)


def median(data: Iterable[float]) -> float:
    """The median of *data* with :func:`statistics.median`'s arithmetic: the
    middle value, or the mean of the middle two.  Raises ``ValueError`` on
    empty data."""
    values = sorted(data)
    n = len(values)
    if not n:
        raise ValueError("no median for empty data")
    if n % 2:
        return values[n // 2]
    return (values[n // 2 - 1] + values[n // 2]) / 2


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return float("nan")
    index = min(len(sorted_values) - 1, int(round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


#: Geometric bucket layout of :class:`LatencyHistogram`: this many buckets
#: per factor of two, i.e. a bucket width ratio of ``2**(1/8)`` (~9%).
_SUBBUCKETS = 8
_BUCKET_RATIO = 2.0 ** (1.0 / _SUBBUCKETS)


class LatencyHistogram:
    """Fixed-memory latency histogram with log-spaced buckets.

    HDR-style: a positive value ``v`` lands in bucket
    ``floor(log2(v) * 8)``, so bucket ``i`` covers ``[2**(i/8),
    2**((i+1)/8))`` ms and any reported percentile is within one bucket
    width (a factor of ``2**(1/8)`` ≈ 1.09) of the exact sample
    percentile, independent of sample count.  Non-positive values (an
    instant-store commit can legitimately take 0 ms) occupy a dedicated
    zero bucket and report exactly.

    State is O(buckets) — eight buckets per factor of two of dynamic
    range, a few hundred ints for any realistic latency spread — which is
    what lets every availability window carry its own latency tail.

    :meth:`absorb` adds per-bucket counts, so merging histograms yields
    *exactly* the histogram of the concatenated samples: associative and
    commutative on every count-derived statistic (the running ``total``
    is subject to float addition order, so merge in a fixed order when
    bit-identical means matter — the harness always does).
    """

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.zero_count = 0
        self.n = 0
        self.total = 0.0
        self.min_value = math.inf
        self.max_value = -math.inf

    @staticmethod
    def bucket_ratio() -> float:
        """Upper bound on rep/exact percentile disagreement (one bucket)."""
        return _BUCKET_RATIO

    def record(self, value: float) -> None:
        """Fold one latency sample in."""
        self.n += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        if value <= 0.0:
            self.zero_count += 1
            return
        index = math.floor(math.log2(value) * _SUBBUCKETS)
        self.counts[index] = self.counts.get(index, 0) + 1

    def absorb(self, other: "LatencyHistogram") -> None:
        """Merge *other* in; exact on counts (see class docstring)."""
        for index, count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + count
        self.zero_count += other.zero_count
        self.n += other.n
        self.total += other.total
        if other.min_value < self.min_value:
            self.min_value = other.min_value
        if other.max_value > self.max_value:
            self.max_value = other.max_value

    @property
    def count(self) -> int:
        return self.n

    @property
    def mean(self) -> float:
        """Exact mean (running sum, not bucket representatives)."""
        if self.n == 0:
            return float("nan")
        return self.total / self.n

    def percentile(self, fraction: float) -> float:
        """The *fraction* percentile, to within one bucket width.

        Uses the same nearest-rank convention as the exact
        :func:`_percentile`, so an exact and a histogram percentile of the
        same sample target the same rank and can only disagree by the
        bucket's representative error.  The representative (geometric
        bucket midpoint) is clamped to the observed [min, max], which
        makes single-value and extreme-rank queries exact.
        """
        if self.n == 0:
            return float("nan")
        rank = min(self.n - 1, int(round(fraction * (self.n - 1))))
        # The extreme ranks are the tracked sample bounds — exact.
        if rank == 0:
            return self.min_value
        if rank == self.n - 1:
            return self.max_value
        if rank < self.zero_count:
            return 0.0
        seen = self.zero_count
        for index in sorted(self.counts):
            seen += self.counts[index]
            if rank < seen:
                rep = 2.0 ** ((index + 0.5) / _SUBBUCKETS)
                return min(max(rep, self.min_value), self.max_value)
        return self.max_value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyHistogram):
            return NotImplemented
        return (
            self.counts == other.counts
            and self.zero_count == other.zero_count
            and self.n == other.n
            and self.total == other.total
            and self.min_value == other.min_value
            and self.max_value == other.max_value
        )

    def __repr__(self) -> str:
        buckets = {index: self.counts[index] for index in sorted(self.counts)}
        return (
            f"LatencyHistogram(n={self.n}, zero={self.zero_count}, "
            f"total={self.total!r}, min={self.min_value!r}, "
            f"max={self.max_value!r}, buckets={buckets!r})"
        )


#: Width of one availability window.  Fixed (not configurable per run) so
#: timelines from any two runs of a cell absorb exactly and serial/parallel
#: digests compare the same structure.
_WINDOW_MS = 500.0


class AvailabilityTimeline:
    """Fixed-memory windowed view of a run: what happened per 500 ms.

    Buckets every transaction decision by its *end* time into
    ``window_ms``-wide windows, keeping per-window commit counts, abort
    counts by reason, and a commit-latency histogram.  State is O(windows
    × abort reasons) — a few ints per half-second of simulated time —
    so a long run carries a full availability timeline at no meaningful
    cost.

    :meth:`absorb` adds per-window counts, so pooling the trials' timelines
    in trial order is exact — the property that keeps ``--jobs`` metrics
    digests identical under fault schedules.
    """

    def __init__(self, window_ms: float = _WINDOW_MS) -> None:
        self.window_ms = window_ms
        self.commits: dict[int, int] = {}
        self.aborts: dict[int, dict[str, int]] = {}
        self.latency: dict[int, LatencyHistogram] = {}

    def record(self, end_time_ms: float, committed: bool,
               reason: str = "", latency_ms: float = 0.0) -> None:
        """Fold one decision in (commit latency recorded for commits only)."""
        index = int(end_time_ms // self.window_ms)
        if committed:
            self.commits[index] = self.commits.get(index, 0) + 1
            self.latency.setdefault(index, LatencyHistogram()).record(latency_ms)
        else:
            per_reason = self.aborts.setdefault(index, {})
            per_reason[reason] = per_reason.get(reason, 0) + 1

    def absorb(self, other: "AvailabilityTimeline") -> None:
        """Merge *other* in; exact on counts."""
        if other.window_ms != self.window_ms:
            raise ValueError(
                f"cannot absorb a {other.window_ms} ms timeline into a "
                f"{self.window_ms} ms one"
            )
        for index, count in other.commits.items():
            self.commits[index] = self.commits.get(index, 0) + count
        for index, reasons in other.aborts.items():
            mine = self.aborts.setdefault(index, {})
            for reason, count in reasons.items():
                mine[reason] = mine.get(reason, 0) + count
        for index, histogram in other.latency.items():
            self.latency.setdefault(index, LatencyHistogram()).absorb(histogram)

    def is_empty(self) -> bool:
        return not self.commits and not self.aborts

    def last_index(self) -> int:
        """Index of the last window with any decision (-1 when empty)."""
        indices = set(self.commits) | set(self.aborts)
        return max(indices) if indices else -1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AvailabilityTimeline):
            return NotImplemented
        return (
            self.window_ms == other.window_ms
            and self.commits == other.commits
            and self.aborts == other.aborts
            and self.latency == other.latency
        )

    def __repr__(self) -> str:
        commits = {i: self.commits[i] for i in sorted(self.commits)}
        aborts = {
            i: dict(sorted(self.aborts[i].items())) for i in sorted(self.aborts)
        }
        latency = {i: self.latency[i] for i in sorted(self.latency)}
        return (
            f"AvailabilityTimeline(window_ms={self.window_ms!r}, "
            f"commits={commits!r}, aborts={aborts!r}, latency={latency!r})"
        )


@dataclass(frozen=True)
class AvailabilityReport:
    """Availability of one run, derived from its timeline + fault windows.

    * ``baseline_goodput_per_s`` — mean commits/s over the windows fully
      *before* the first fault (NaN when the fault starts immediately).
    * ``fault_min_goodput_per_s`` — the worst window fully inside the
      fault span; the "did it shed or collapse" number.
    * ``zero_windows`` / ``unavailable_ms`` — windows inside the fault
      span with zero commits, and their total simulated time: the derived
      unavailability.
    * ``recovery_ms`` — time from fault end until the end of the first
      window whose commits climbed back above ``recovery_threshold`` of
      the pre-fault baseline; ``inf`` when the run never recovered, NaN
      when there was no usable baseline.
    """

    fault_start_ms: float
    fault_end_ms: float
    baseline_goodput_per_s: float
    fault_min_goodput_per_s: float
    zero_windows: int
    unavailable_ms: float
    recovery_ms: float
    recovery_threshold: float = 0.5


def availability_report(
    timeline: AvailabilityTimeline,
    fault_windows: "list[tuple[float, float]]",
    recovery_threshold: float = 0.5,
) -> AvailabilityReport | None:
    """Align *timeline* against the installed fault windows.

    ``None`` when the run had no faults (or no decisions at all) — the
    availability columns only appear for fault-scheduled cells.  Multiple
    fault windows are treated as one span from the earliest start to the
    latest end; per-window alignment uses only *full* windows (a window
    straddling a fault edge counts toward neither baseline nor fault).
    """
    if not fault_windows or timeline.is_empty():
        return None
    window = timeline.window_ms
    per_s = 1000.0 / window
    fault_start = min(start for start, _ in fault_windows)
    fault_end = max(end for _, end in fault_windows)
    pre = [timeline.commits.get(i, 0) for i in range(int(fault_start // window))]
    baseline_commits = fmean(pre) if pre else float("nan")
    # A schedule may declare a fault far beyond the run (an "outage for the
    # rest of time"); windows past the last observed decision are out of
    # scope — the run had ended, nothing was unavailable.
    end_index = min(int(fault_end // window), timeline.last_index() + 1)
    inside = range(math.ceil(fault_start / window), end_index)
    fault_counts = [timeline.commits.get(i, 0) for i in inside]
    zero_windows = sum(1 for count in fault_counts if count == 0)
    fault_min = min(fault_counts) if fault_counts else float("nan")
    if baseline_commits != baseline_commits or baseline_commits <= 0.0:
        recovery_ms = float("nan")
    else:
        target = recovery_threshold * baseline_commits
        recovery_ms = float("inf")
        for i in range(math.ceil(fault_end / window), timeline.last_index() + 1):
            if timeline.commits.get(i, 0) >= target:
                recovery_ms = (i + 1) * window - fault_end
                break
    return AvailabilityReport(
        fault_start_ms=fault_start,
        fault_end_ms=fault_end,
        baseline_goodput_per_s=baseline_commits * per_s,
        fault_min_goodput_per_s=fault_min * per_s,
        zero_windows=zero_windows,
        unavailable_ms=zero_windows * window,
        recovery_ms=recovery_ms,
        recovery_threshold=recovery_threshold,
    )


@dataclass
class LatencySummary:
    """One latency family summarized: count, mean, and tail percentiles.

    The single helper every latency column goes through — commit,
    all-transaction, cross-group (2PC), and queue-send commit latencies
    all report the same statistics now, instead of the historical mix of
    mean-only and median/p95.  Built exactly (:meth:`exact`) from a run's
    outcomes, or from a histogram (:meth:`from_histogram`) for the
    open-loop queue waits.
    """

    count: int = 0
    mean_ms: float = float("nan")
    p50_ms: float = float("nan")
    p95_ms: float = float("nan")
    p99_ms: float = float("nan")
    p999_ms: float = float("nan")
    max_ms: float = float("nan")

    @classmethod
    def exact(cls, values: "Iterable[float]") -> "LatencySummary":
        values = list(values)
        if not values:
            return cls()
        ordered = sorted(values)
        return cls(
            count=len(values),
            mean_ms=fmean(values),
            p50_ms=median(values),
            p95_ms=_percentile(ordered, 0.95),
            p99_ms=_percentile(ordered, 0.99),
            p999_ms=_percentile(ordered, 0.999),
            max_ms=ordered[-1],
        )

    @classmethod
    def from_histogram(cls, histogram: LatencyHistogram) -> "LatencySummary":
        if histogram.count == 0:
            return cls()
        return cls(
            count=histogram.count,
            mean_ms=histogram.mean,
            p50_ms=histogram.percentile(0.5),
            p95_ms=histogram.percentile(0.95),
            p99_ms=histogram.percentile(0.99),
            p999_ms=histogram.percentile(0.999),
            max_ms=histogram.max_value,
        )


@dataclass
class OpenLoopStats:
    """Arrival-side accounting of an open-loop run.

    Offered traffic is what the arrival processes generated; admission
    control (each pooled client's bounded pending queue) splits it into
    admitted and dropped, and ``queue_wait`` is how long admitted arrivals
    sat pending before a client picked them up — the backpressure signal
    that, with the drop counter, describes behaviour past saturation.
    """

    logical_users: int = 0
    pool_size: int = 0
    offered_rate: float = 0.0   # configured arrivals/second across the pool
    duration_ms: float = 0.0    # admission horizon (drain tail excluded)
    offered: int = 0            # arrivals the processes generated
    admitted: int = 0
    dropped: int = 0            # admission-control rejections
    completed: int = 0          # admitted transactions run to a decision
    peak_pending: int = 0
    queue_wait: LatencySummary = field(default_factory=LatencySummary)

    @property
    def drop_rate(self) -> float:
        if self.offered == 0:
            return float("nan")
        return self.dropped / self.offered


class OutcomeAggregate:
    """The one fold from transaction outcomes to :class:`RunMetrics`.

    :meth:`RunMetrics.from_outcomes` absorbs a run's outcome list, in
    order, into one of these.  Each latency family keeps its samples, so
    every statistic derived from it is exact.
    """

    def __init__(self) -> None:
        self.aborts_by_reason: dict[str, int] = {}
        #: Commit latency per promotion round; its counts are the commits.
        self.round_latency: dict[int, list[float]] = {}
        self.commit_latency: list[float] = []
        self.all_latency: list[float] = []
        self.cross_latency: list[float] = []
        self.queue_latency: list[float] = []
        self.cross_group_transactions = 0
        self.queue_send_transactions = 0
        self.queue_sends = 0
        self.max_promotions = 0
        self.duration_ms = 0.0
        self.timeline = AvailabilityTimeline()

    def absorb(self, outcome: TransactionOutcome) -> None:
        """Fold one outcome in."""
        latency = outcome.latency_ms
        self.all_latency.append(latency)
        if outcome.promotions > self.max_promotions:
            self.max_promotions = outcome.promotions
        # Only transactions that named participant groups count as 2PC
        # attempts; an untouched unpinned handle commits trivially and
        # must not skew the cross-group latency average.
        if outcome.transaction.is_cross_group and outcome.transaction.groups:
            self.cross_group_transactions += 1
            if outcome.committed:
                self.cross_latency.append(latency)
        if outcome.transaction.sends:
            self.queue_send_transactions += 1
            if outcome.committed:
                self.queue_sends += len(outcome.transaction.sends)
                self.queue_latency.append(latency)
        if outcome.committed:
            self.commit_latency.append(latency)
            self.round_latency.setdefault(outcome.promotions, []).append(latency)
            self.timeline.record(outcome.end_time, True, latency_ms=latency)
        else:
            reason = str(outcome.abort_reason or AbortReason.TIMEOUT)
            self.aborts_by_reason[reason] = (
                self.aborts_by_reason.get(reason, 0) + 1
            )
            self.timeline.record(outcome.end_time, False, reason=reason)
        if outcome.end_time > self.duration_ms:
            self.duration_ms = outcome.end_time


@dataclass
class LogStats:
    """What the final write-ahead log shows about a run."""

    positions: int = 0
    combined_entries: int = 0
    combined_transactions: int = 0
    max_entry_size: int = 0
    prepare_entries: int = 0
    marker_entries: int = 0
    queue_apply_entries: int = 0
    #: Gap fills a recovering leader proposed for voteless slots.
    noop_entries: int = 0

    @classmethod
    def from_log(cls, log: Mapping[Hashable, LogEntry]) -> "LogStats":
        """Positions may be plain ints (one group) or (group, position)
        pairs (multi-group runs); only the entries themselves matter."""
        stats = cls(positions=len(log))
        for entry in log.values():
            if entry.kind == "prepare":
                stats.prepare_entries += 1
                continue
            if entry.is_marker:
                stats.marker_entries += 1
                continue
            if entry.kind == "queue_apply":
                stats.queue_apply_entries += 1
                continue
            if entry.kind == "noop":
                stats.noop_entries += 1
                continue
            if len(entry) > 1:
                stats.combined_entries += 1
                stats.combined_transactions += len(entry) - 1
            stats.max_entry_size = max(stats.max_entry_size, len(entry))
        return stats


@dataclass
class RunMetrics:
    """Statistics for one protocol on one workload run."""

    protocol: str = ""
    n_transactions: int = 0
    commits: int = 0
    aborts_by_reason: dict[str, int] = field(default_factory=dict)
    #: Classified serializability anomalies the run admitted, ``{kind:
    #: count}`` sorted by kind (write_skew / read_only_anomaly / other).
    #: Non-empty only under ``isolation="si"`` — every other level treats a
    #: cycle as an invariant violation, not a statistic.  Filled by the
    #: harness (:func:`repro.harness.experiment.finish_run`) from the
    #: cluster's classifier pass, not by the outcome folds below.
    anomalies: dict[str, int] = field(default_factory=dict)
    commits_by_round: dict[int, int] = field(default_factory=dict)
    latency_by_round: dict[int, float] = field(default_factory=dict)
    #: Every latency family reports the full summary (mean + p50/p95/p99/
    #: p999) through the one shared helper; the historical scalar names
    #: below are properties over these.
    commit_latency: LatencySummary = field(default_factory=LatencySummary)
    all_latency: LatencySummary = field(default_factory=LatencySummary)
    cross_commit_latency: LatencySummary = field(default_factory=LatencySummary)
    queue_commit_latency: LatencySummary = field(default_factory=LatencySummary)
    max_promotions: int = 0
    duration_ms: float = 0.0
    log: LogStats = field(default_factory=LogStats)
    #: Cross-group (2PC) slice of the run.
    cross_group_transactions: int = 0
    cross_group_commits: int = 0
    #: Asynchronous-queue slice of the run.
    queue_send_transactions: int = 0
    queue_send_commits: int = 0
    queue_sends: int = 0
    queue: QueueStats = field(default_factory=QueueStats)
    #: Arrival-side accounting when the run used the open-loop engine.
    open_loop: OpenLoopStats | None = None
    #: Windowed goodput/abort/latency view of the run (always populated).
    timeline: AvailabilityTimeline = field(default_factory=AvailabilityTimeline)
    #: Messages the network dropped, by cause (``loss`` / ``outage`` /
    #: ``partition``).  Filled by ``finish_run`` from the network counters.
    dropped_messages: dict[str, int] = field(default_factory=dict)
    #: Timeline aligned against the installed fault windows; ``None`` for
    #: fault-free runs.  Filled by ``finish_run``.
    availability: AvailabilityReport | None = None
    #: Service crash-restart slice of the run: injected replica crashes
    #: (one per victim lane), completed restarts, and the mean down window.
    #: Filled by ``finish_run`` from the cluster's crash records; zeros and
    #: NaN on crash-free runs.
    node_crashes: int = 0
    node_restarts: int = 0
    crash_downtime_ms: float = float("nan")

    @property
    def aborts(self) -> int:
        return self.n_transactions - self.commits

    @property
    def commit_rate(self) -> float:
        if self.n_transactions == 0:
            return float("nan")
        return self.commits / self.n_transactions

    # Historical scalar names, kept as views over the unified summaries.
    @property
    def mean_commit_latency_ms(self) -> float:
        return self.commit_latency.mean_ms

    @property
    def median_commit_latency_ms(self) -> float:
        return self.commit_latency.p50_ms

    @property
    def mean_all_latency_ms(self) -> float:
        return self.all_latency.mean_ms

    @property
    def mean_cross_commit_latency_ms(self) -> float:
        return self.cross_commit_latency.mean_ms

    @property
    def goodput_per_s(self) -> float:
        """Committed transactions per offered second (open-loop runs)."""
        if self.open_loop is None or self.open_loop.duration_ms <= 0:
            return float("nan")
        return self.commits / (self.open_loop.duration_ms / 1000.0)

    @classmethod
    def from_outcomes(
        cls,
        outcomes: Iterable[TransactionOutcome],
        protocol: str = "",
        log: Mapping[Hashable, LogEntry] | None = None,
        queue: QueueStats | None = None,
        open_loop: OpenLoopStats | None = None,
    ) -> "RunMetrics":
        """Metrics from an outcome list: exact latency statistics."""
        aggregate = OutcomeAggregate()
        for outcome in outcomes:
            aggregate.absorb(outcome)
        rounds = sorted(aggregate.round_latency.items())
        return cls(
            protocol=protocol,
            n_transactions=len(aggregate.all_latency),
            commits=len(aggregate.commit_latency),
            aborts_by_reason=dict(sorted(aggregate.aborts_by_reason.items())),
            commits_by_round={round_: len(latency) for round_, latency in rounds},
            latency_by_round={round_: fmean(latency) for round_, latency in rounds},
            commit_latency=LatencySummary.exact(aggregate.commit_latency),
            all_latency=LatencySummary.exact(aggregate.all_latency),
            cross_commit_latency=LatencySummary.exact(aggregate.cross_latency),
            queue_commit_latency=LatencySummary.exact(aggregate.queue_latency),
            max_promotions=aggregate.max_promotions,
            duration_ms=aggregate.duration_ms,
            log=LogStats.from_log(log or {}),
            cross_group_transactions=aggregate.cross_group_transactions,
            cross_group_commits=len(aggregate.cross_latency),
            queue_send_transactions=aggregate.queue_send_transactions,
            queue_send_commits=len(aggregate.queue_latency),
            queue_sends=aggregate.queue_sends,
            queue=queue or QueueStats(),
            open_loop=open_loop,
            timeline=aggregate.timeline,
        )


def _safe_mean(values: list[float]) -> float:
    finite = [v for v in values if v == v]  # drop NaNs
    return fmean(finite) if finite else float("nan")


def _rounded_mean(values: list[int]) -> int:
    return round(fmean(values))


def _ceiled_mean(values: list[int]) -> int:
    return math.ceil(fmean(values))


def _finite_max(values: list[float]) -> float:
    return max((v for v in values if v == v), default=float("nan"))


def _first(values: list) -> object:
    return values[0]


def _per_key(combine: Callable[[list], object]) -> Callable[[list[dict]], dict]:
    """Combine dicts key by key, in sorted key order, an absent key as 0."""
    def combined(dicts: list[dict]) -> dict:
        keys = sorted({key for mapping in dicts for key in mapping})
        return {key: combine([mapping.get(key, 0) for mapping in dicts]) for key in keys}
    return combined


def _mean_where_present(dicts: list[dict]) -> dict:
    keys = sorted({key for mapping in dicts for key in mapping})
    return {
        key: fmean([mapping[key] for mapping in dicts if key in mapping])
        for key in keys
    }


def _worst_recovery(values: list[float]) -> float:
    # A single never-recovered trial keeps the mean at infinity: the worst
    # case must not average away.
    return math.inf if math.inf in values else _safe_mean(values)


def _pooled(timelines: list[AvailabilityTimeline]) -> AvailabilityTimeline:
    # Timelines pool rather than average: the cross-trial window counts
    # stay integers, and per-window means are recoverable by dividing by
    # the trial count.
    pooled = AvailabilityTimeline(timelines[0].window_ms)
    for timeline in timelines:
        pooled.absorb(timeline)
    return pooled


#: How :func:`aggregate_metrics` combines the fields whose trial rule is not
#: the one their declared type implies (an int is a rounded mean, a float a
#: NaN-skipping mean, a dict of counts a per-key rounded mean).  Keyed by
#: ``Record.field``.  A tuple names sibling fields whose combined values sum
#: to this one.
_TRIAL_RULES: dict[str, Callable[[list], object] | tuple[str, ...]] = {
    "RunMetrics.protocol": _first,
    # Anomalies and zero-commit windows round *up*: a cell that showed any
    # in any trial must never average down to a clean-looking zero.
    "RunMetrics.anomalies": _per_key(_ceiled_mean),
    "AvailabilityReport.zero_windows": _ceiled_mean,
    "RunMetrics.latency_by_round": _mean_where_present,
    "RunMetrics.max_promotions": max,
    "RunMetrics.timeline": _pooled,
    "LatencySummary.max_ms": _finite_max,
    "LogStats.max_entry_size": max,
    # The three delivery buckets are averaged individually and the send
    # total re-derived from them, so independent rounding can never break
    # the ``applied + drained + undelivered == sends`` identity, and a
    # trial with genuinely undelivered sends stays visible as such.
    "QueueStats.sends": ("applied_online", "drained_offline", "undelivered"),
    "QueueStats.max_depth": max,
    "QueueStats.max_lag_ms": _finite_max,
    "QueueStats.stall_threshold_ms": _first,
    "OpenLoopStats.logical_users": _first,
    "OpenLoopStats.pool_size": _first,
    "OpenLoopStats.offered_rate": _first,
    "OpenLoopStats.duration_ms": _first,
    "OpenLoopStats.peak_pending": max,
    "AvailabilityReport.recovery_ms": _worst_recovery,
    "AvailabilityReport.recovery_threshold": _first,
}


@functools.cache
def _declared_types(cls: type) -> dict[str, object]:
    return get_type_hints(cls)


def _combine(records: list) -> object:
    """One record from the per-trial *records*, field by field."""
    cls = type(records[0])
    declared = _declared_types(cls)
    combined: dict[str, object] = {}
    derived: dict[str, tuple[str, ...]] = {}
    for spec in fields(cls):
        values = [getattr(record, spec.name) for record in records]
        rule = _TRIAL_RULES.get(f"{cls.__name__}.{spec.name}")
        if isinstance(rule, tuple):
            derived[spec.name] = rule
        elif rule is not None:
            combined[spec.name] = rule(values)
        else:
            combined[spec.name] = _combine_declared(declared[spec.name], values)
    for name, parts in derived.items():
        combined[name] = sum(combined[part] for part in parts)
    return cls(**combined)


def _combine_declared(declared: object, values: list) -> object:
    """Combine by the declared type, never the value: a float field may hold
    an int (``OutageWindow("V2", 8000, 3000)``) and must still average as
    a float."""
    if declared is int:
        return _rounded_mean(values)
    if declared is float:
        return _safe_mean(values)
    if get_origin(declared) is dict and get_args(declared)[1] is int:
        return _per_key(_rounded_mean)(values)
    if is_dataclass(declared):
        return _combine(values)
    arms = get_args(declared)
    if len(arms) == 2 and arms[1] is type(None) and is_dataclass(arms[0]):
        # An optional record: combined over the trials that have one.
        present = [value for value in values if value is not None]
        return _combine(present) if present else None
    raise TypeError(f"no trial rule for a field declared {declared!r}")


def aggregate_metrics(trials: list[RunMetrics]) -> RunMetrics:
    """Average per-trial metrics (the paper reports run averages)."""
    if not trials:
        raise ValueError("no trials to aggregate")
    if len(trials) == 1:
        return trials[0]
    return _combine(trials)
