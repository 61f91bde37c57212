"""Open-loop traffic: millions of logical users over a small client pool.

The paper's evaluation (§6) is a *closed* loop — four threads, each
waiting for its own previous transaction — so offered load can never
exceed the system's service rate and overload is unobservable.  Serving
"heavy traffic from millions of users" (the ROADMAP north star) needs the
opposite: an **open loop**, where arrivals happen on the users' schedule
whether or not the system keeps up, which is what exposes saturation,
queueing delay, and tail latency.

Design constraints, in order:

* **O(pool + histogram buckets) memory and events.**  Logical users are
  *sampled*, never instantiated: an arrival draws a user id from a
  shifting zipfian popularity distribution, maps it to its home row/group
  arithmetically, and the user ceases to exist once the transaction
  resolves.  Arrival streams are likewise never pre-materialized — each
  pooled client knows only its *next* arrival time, one float.

* **Determinism.**  Arrival times are a pure function of a named RNG
  stream, so the engine lazily replays arrivals that fell due while a
  client was busy instead of scheduling kernel events for them: queue
  dynamics are identical to eager processing (an arrival's admission
  decision depends only on the queue length at its arrival time, and the
  queue cannot drain while the client's single process is mid-transaction),
  but a busy period costs zero kernel events.

* **Bounded pending work** (admission control).  Each pooled client
  carries a FIFO of at most ``max_pending`` admitted arrivals; an arrival
  that finds the FIFO full is *dropped* and counted.  Past saturation the
  drop counter and the pending-queue wait are the story the saturation
  sweep (``benchmarks/bench_open_loop.py``) tells.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from random import Random
from typing import TYPE_CHECKING, Generator

from repro.config import Combination, ProtocolName, WorkloadConfig, check_combination
from repro.harness.metrics import (
    LatencyHistogram,
    LatencySummary,
    OpenLoopStats,
    OutcomeAggregate,
)
from repro.model import TransactionOutcome
from repro.workload.driver import InstanceResult, execute_plan
from repro.workload.ycsb import TransactionPlan, YcsbWorkload

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster
    from repro.core.client import TransactionClient


#: Skew of logical-user popularity (YCSB's default theta).
USER_ZIPFIAN_THETA = 0.99
#: A diurnal trough's rate as a share of the mean rate.
DIURNAL_TROUGH_FRACTION = 0.25
#: A flash crowd's rate as a multiple of the base rate.
FLASH_MULTIPLIER = 8.0


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------


class ArrivalProcess:
    """Generates interarrival gaps; stateless beyond the caller's RNG.

    ``next_interarrival(rng, now)`` returns the gap from *now* (the
    previous arrival time) to the next arrival.  Implementations draw only
    from *rng*, so the arrival sequence is a pure function of the stream's
    seed — the determinism the lazy-replay scheduler and the serial-vs-jobs
    digest equality both rest on.
    """

    def next_interarrival(self, rng: Random, now: float) -> float:
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson process: exponential interarrival gaps."""

    def __init__(self, rate_per_ms: float) -> None:
        if rate_per_ms <= 0:
            raise ValueError("arrival rate must be positive")
        self.rate_per_ms = rate_per_ms

    def next_interarrival(self, rng: Random, now: float) -> float:
        return rng.expovariate(self.rate_per_ms)


class _ThinnedArrivals(ArrivalProcess):
    """Non-homogeneous Poisson by Lewis–Shedler thinning.

    Candidate arrivals are drawn at the peak rate; each is accepted with
    probability ``rate_at(t) / peak``.  Exact for any bounded rate
    function, and consumes a deterministic RNG sequence (two draws per
    candidate) regardless of acceptance — which keeps the arrival stream
    seed-stable.
    """

    #: Subclasses set the envelope (the max of ``rate_at`` over all t).
    peak_rate_per_ms: float

    def rate_at(self, t: float) -> float:
        raise NotImplementedError

    def next_interarrival(self, rng: Random, now: float) -> float:
        t = now
        while True:
            t += rng.expovariate(self.peak_rate_per_ms)
            if rng.random() * self.peak_rate_per_ms <= self.rate_at(t):
                return t - now


class DiurnalArrivals(_ThinnedArrivals):
    """A raised-cosine day/night cycle with the configured *mean* rate.

    ``rate(t) = mean * (trough + (2 - 2*trough) * (1 - cos(2πt/T)) / 2)``
    — minimum ``mean*trough`` at t=0 (mod T), maximum ``mean*(2-trough)``
    half a period later, time-average exactly ``mean``.
    """

    def __init__(self, mean_rate_per_ms: float, period_ms: float,
                 trough_fraction: float) -> None:
        if mean_rate_per_ms <= 0 or period_ms <= 0:
            raise ValueError("diurnal rate and period must be positive")
        if not 0.0 < trough_fraction <= 1.0:
            raise ValueError("trough_fraction must be in (0,1]")
        self.mean_rate_per_ms = mean_rate_per_ms
        self.period_ms = period_ms
        self.trough_fraction = trough_fraction
        self.peak_rate_per_ms = mean_rate_per_ms * (2.0 - trough_fraction)

    def rate_at(self, t: float) -> float:
        swing = (1.0 - math.cos(2.0 * math.pi * t / self.period_ms)) / 2.0
        factor = self.trough_fraction + (2.0 - 2.0 * self.trough_fraction) * swing
        return self.mean_rate_per_ms * factor


class FlashCrowdArrivals(_ThinnedArrivals):
    """Base-rate Poisson with a rate spike in a fixed window.

    Rate is ``base`` everywhere except ``[flash_at, flash_at + duration)``,
    where it is ``base * multiplier`` — the Spinnaker-style sudden hot
    spot the admission control has to survive.
    """

    def __init__(self, base_rate_per_ms: float, flash_at_ms: float,
                 flash_duration_ms: float, multiplier: float) -> None:
        if base_rate_per_ms <= 0 or flash_duration_ms <= 0:
            raise ValueError("flash base rate and duration must be positive")
        if multiplier < 1.0:
            raise ValueError("flash multiplier must be >= 1")
        self.base_rate_per_ms = base_rate_per_ms
        self.flash_at_ms = flash_at_ms
        self.flash_duration_ms = flash_duration_ms
        self.multiplier = multiplier
        self.peak_rate_per_ms = base_rate_per_ms * multiplier

    def rate_at(self, t: float) -> float:
        if self.flash_at_ms <= t < self.flash_at_ms + self.flash_duration_ms:
            return self.base_rate_per_ms * self.multiplier
        return self.base_rate_per_ms


def make_arrival_process(workload: WorkloadConfig,
                         rate_per_ms: float) -> ArrivalProcess:
    """The configured arrival process at *rate_per_ms* mean arrivals/ms."""
    if workload.arrival == "poisson":
        return PoissonArrivals(rate_per_ms)
    if workload.arrival == "diurnal":
        return DiurnalArrivals(
            rate_per_ms, workload.diurnal_period_ms, DIURNAL_TROUGH_FRACTION,
        )
    if workload.arrival == "flash":
        return FlashCrowdArrivals(
            rate_per_ms, workload.flash_at_ms,
            workload.flash_duration_ms, FLASH_MULTIPLIER,
        )
    raise ValueError(f"unknown arrival process {workload.arrival!r}")


# ----------------------------------------------------------------------
# Logical users
# ----------------------------------------------------------------------

#: Exact head of the zipfian normalizer; the tail is integrated.  1000
#: terms put the integral approximation's error far below one part in 1e6
#: for any theta in (0,1).
_ZETA_HEAD = 1000


class LogicalUserModel:
    """Millions of users as a sampling distribution, not objects.

    Popularity is zipfian over user *ranks* (YCSB's O(1) rejection-free
    sampler, with the normalizer's tail integrated instead of summed so
    construction is O(1) in ``n_users``).  Rank → user id goes through a
    time-dependent offset, so *which* users are hot — and therefore which
    home rows and groups are hot — migrates every ``hot_shift_period_ms``
    by a golden-ratio stride: successive hot spots land far apart, the
    moving-hot-spot traffic the future rebalancer must chase.
    """

    def __init__(self, n_users: int, theta: float,
                 hot_shift_period_ms: float = 0.0) -> None:
        if n_users <= 0:
            raise ValueError("need at least one logical user")
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must be in (0,1), got {theta}")
        self.n_users = n_users
        self.theta = theta
        self.hot_shift_period_ms = hot_shift_period_ms
        self._alpha = 1.0 / (1.0 - theta)
        self._zetan = self._zeta(n_users, theta)
        self._zeta2 = self._zeta(2, theta)
        self._eta = (1.0 - math.pow(2.0 / n_users, 1.0 - theta)) / (
            1.0 - self._zeta2 / self._zetan
        )
        #: Hot-spot stride per shift period: round(n/φ), coprime-ish with
        #: n for almost all n, so consecutive hot spots are well separated.
        self._stride = max(1, round(n_users * 0.6180339887498949))

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        head = min(n, _ZETA_HEAD)
        total = 0.0
        for rank in range(1, head + 1):  # left to right: builtin sum() compensates on 3.12+
            total += 1.0 / math.pow(rank, theta)
        if n > head:
            # Integral tail: sum_{k=head+1..n} k^-theta ≈ ∫_{head}^{n} x^-theta dx.
            total += (math.pow(n, 1.0 - theta) - math.pow(head, 1.0 - theta)) / (
                1.0 - theta
            )
        return total

    def _sample_rank(self, rng: Random) -> int:
        """YCSB's zipfian draw: rank 0 is the most popular user."""
        u = rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + math.pow(0.5, self.theta):
            return 1
        rank = int(self.n_users * math.pow(self._eta * u - self._eta + 1.0, self._alpha))
        return min(rank, self.n_users - 1)

    def hot_offset(self, now: float) -> int:
        """Where rank 0 currently lives in user-id space."""
        if self.hot_shift_period_ms <= 0:
            return 0
        epoch = int(now // self.hot_shift_period_ms)
        return (epoch * self._stride) % self.n_users

    def sample_user(self, rng: Random, now: float) -> int:
        """Draw one user id; the popular ids shift with *now*."""
        rank = self._sample_rank(rng)
        return (rank + self.hot_offset(now)) % self.n_users

    def home_row(self, user: int, n_rows: int) -> int:
        """The row a user's transactions touch (users fold onto rows)."""
        return user % n_rows


# ----------------------------------------------------------------------
# The open-loop driver
# ----------------------------------------------------------------------


@dataclass
class _ClientLoad:
    """Arrival-side counters of one pooled client."""

    offered: int = 0
    admitted: int = 0
    dropped: int = 0
    completed: int = 0
    peak_pending: int = 0
    wait_hist: LatencyHistogram = field(default_factory=LatencyHistogram)


class OpenLoopDriver:
    """Drives open-loop traffic through a bounded pool of client nodes.

    Duck-type compatible with :class:`~repro.workload.driver.WorkloadDriver`
    where the harness touches it (``install_data`` / ``start`` / ``done`` /
    ``result`` / ``aggregate`` / ``lane_channels``), so
    :func:`repro.harness.experiment.prepare_run` swaps it in when
    ``workload.open_loop`` is set.

    Each pooled client runs ONE simulation process that interleaves three
    duties: admit arrivals that have fallen due (lazy replay — see module
    docstring), serve its pending FIFO, and sleep until its next arrival
    when idle.  Offered arrivals split exactly into admitted + dropped;
    admitted split into completed (ran to a commit/abort decision) and the
    drain-tail remainder, which is zero because the loop only exits once
    the FIFO is empty and the horizon has passed.
    """

    def __init__(
        self,
        cluster: "Cluster",
        workload: WorkloadConfig,
        protocol: ProtocolName,
        datacenter: str | None = None,
        instance_id: str = "openloop0",
        retain_outcomes: bool = False,
    ) -> None:
        if not workload.open_loop:
            raise ValueError("OpenLoopDriver needs workload.open_loop=True")
        check_combination(Combination.of(cluster.config, workload, protocol))
        self.cluster = cluster
        self.workload = workload
        self.protocol = protocol
        self.datacenter = datacenter or cluster.topology.names[0]
        self.instance_id = instance_id
        self.retain_outcomes = retain_outcomes
        self.multi_group = cluster.placement.n_groups > 1
        #: One entry per pooled client, index-aligned.
        self._loads: list[_ClientLoad] = []
        #: Each client's outcome list, or its streaming aggregate when
        #: ``retain_outcomes`` is off.
        self._sinks: list[list[TransactionOutcome] | OutcomeAggregate] = []
        self._processes = []
        self._clients: "list[TransactionClient]" = []
        self.users = LogicalUserModel(
            workload.n_users, USER_ZIPFIAN_THETA, workload.hot_shift_period_ms,
        )
        #: Shared data-layout oracle (no RNG use): row names, initial
        #: images, group routing.
        self._seed_workload = YcsbWorkload(
            workload, Random(0),
            placement=cluster.placement if self.multi_group else None,
        )

    # -- harness surface ------------------------------------------------

    @property
    def groups(self) -> tuple[str, ...]:
        return self._seed_workload.groups

    def install_data(self) -> None:
        for group, rows in self._seed_workload.initial_images().items():
            self.cluster.preload(group, rows)

    def lane_channels(self) -> "set[tuple[int, int]]":
        return set()

    @property
    def done(self) -> bool:
        return all(not process.is_alive for process in self._processes)

    # -- results --------------------------------------------------------

    @property
    def result(self) -> InstanceResult:
        """Retained outcomes in client order (empty in streaming mode)."""
        merged = InstanceResult(datacenter=self.datacenter)
        if self.retain_outcomes:
            for outcomes in self._sinks:
                merged.outcomes.extend(outcomes)
        return merged

    def aggregate(self) -> OutcomeAggregate | None:
        """Merged streaming aggregate, folded in client order.

        ``None`` on retained runs (build metrics from :attr:`result`).
        """
        if self.retain_outcomes:
            return None
        merged = OutcomeAggregate()
        for aggregate in self._sinks:
            merged.merge(aggregate)
        return merged

    def open_loop_stats(self) -> OpenLoopStats:
        """Arrival-side accounting, merged over the pool in client order."""
        wait = LatencyHistogram()
        stats = OpenLoopStats(
            logical_users=self.workload.n_users,
            pool_size=self.workload.pool_size,
            offered_rate=self.workload.offered_load,
            duration_ms=self.workload.open_duration_ms,
        )
        for load in self._loads:
            stats.offered += load.offered
            stats.admitted += load.admitted
            stats.dropped += load.dropped
            stats.completed += load.completed
            stats.peak_pending = max(stats.peak_pending, load.peak_pending)
            wait.absorb(load.wait_hist)
        stats.queue_wait = LatencySummary.from_histogram(wait)
        return stats

    # -- execution ------------------------------------------------------

    def start(self) -> None:
        """Spawn the client pool; call before ``cluster.run()``."""
        pool_size = self.workload.pool_size
        self._clients = self.cluster.client_pool(
            self.datacenter, protocol=self.protocol, size=pool_size,
            prefix=self.instance_id,
        )
        # Arrivals are split evenly: each client owns an independent
        # process at 1/pool of the offered rate (a thinned Poisson process
        # is a Poisson process; the diurnal/flash shapes scale linearly).
        rate_per_ms = self.workload.offered_load / pool_size / 1000.0
        for index, client in enumerate(self._clients):
            self._loads.append(_ClientLoad())
            self._sinks.append([] if self.retain_outcomes else OutcomeAggregate())
            arrivals = make_arrival_process(self.workload, rate_per_ms)
            generator = YcsbWorkload(
                self.workload,
                self.cluster.env.rng.stream(
                    f"openloop.{self.instance_id}.{index}.ops"
                ),
                placement=self.cluster.placement if self.multi_group else None,
            )
            process = self.cluster.env.process(
                self._client_loop(client, index, arrivals, generator),
                name=f"{self.instance_id}:client{index}",
            )
            self._processes.append(process)

    def _admit(
        self,
        index: int,
        pending: "deque[tuple[float, TransactionPlan]]",
        arrival: float,
        generator: YcsbWorkload,
        user_rng: Random,
    ) -> None:
        """Process one arrival at (possibly past) time *arrival*."""
        load = self._loads[index]
        load.offered += 1
        if len(pending) >= self.workload.max_pending:
            load.dropped += 1
            return
        # The user (and thus the hot spot) is sampled at the *arrival*
        # time, not the admission-processing time — a flash crowd's users
        # belong to the flash window even if the client is backed up.
        user = self.users.sample_user(user_rng, arrival)
        row_index = self.users.home_row(user, self.workload.n_rows)
        row = self._seed_workload.row_name(row_index)
        if self.multi_group:
            group = self.cluster.placement.group_of(row)
        else:
            group = self.workload.group
        pending.append((arrival, generator.plan_for_row(group, row)))
        load.admitted += 1
        if len(pending) > load.peak_pending:
            load.peak_pending = len(pending)

    def _client_loop(self, client: "TransactionClient", index: int,
                     arrivals: ArrivalProcess,
                     generator: YcsbWorkload) -> Generator:
        env = self.cluster.env
        load = self._loads[index]
        sink = self._sinks[index]
        arrival_rng = env.rng.stream(
            f"openloop.{self.instance_id}.{index}.arrivals"
        )
        user_rng = env.rng.stream(f"openloop.{self.instance_id}.{index}.users")
        pending: "deque[tuple[float, TransactionPlan]]" = deque()
        horizon = self.workload.open_duration_ms
        next_arrival = arrivals.next_interarrival(arrival_rng, 0.0)
        while True:
            # Lazy replay: fold in every arrival that fell due while we
            # were busy, in arrival order, before touching newer work.
            while next_arrival <= env.now and next_arrival < horizon:
                self._admit(index, pending, next_arrival, generator, user_rng)
                next_arrival += arrivals.next_interarrival(
                    arrival_rng, next_arrival
                )
            if pending:
                arrived, plan = pending.popleft()
                load.wait_hist.record(env.now - arrived)
                outcome = yield from execute_plan(self.cluster, client, plan)
                load.completed += 1
                # Re-anchor at the arrival: an open-loop outcome's latency
                # is its response time, queueing delay included.
                outcome.begin_time = arrived
                sink.append(outcome)
                continue
            if next_arrival >= horizon:
                return
            yield env.timeout_until(next_arrival)
