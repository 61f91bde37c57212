"""Open-loop traffic: a large logical-user population over a small client pool.

The paper's evaluation (§6) is a *closed* loop — four threads, each
waiting for its own previous transaction — so offered load can never
exceed the system's service rate and overload is unobservable.  An
**open loop**, where arrivals happen on the users' schedule whether or
not the system keeps up, exposes what the closed loop cannot: saturation,
queueing delay, and tail latency.

Design constraints, in order:

* **O(pool) simulation state.**  Logical users are *sampled*, never
  instantiated: an arrival draws a user id from a zipfian popularity
  distribution, maps it to its home row/group arithmetically, and the user
  ceases to exist once the transaction resolves.  Arrival streams are
  likewise never pre-materialized — each pooled client knows only its
  *next* arrival time, one float.  Outcomes are kept, one per completed
  transaction, as every driver keeps them.

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
from repro.harness.metrics import LatencyHistogram, LatencySummary, OpenLoopStats
from repro.model import TransactionOutcome
from repro.workload.driver import InstanceResult, execute_plan
from repro.workload.ycsb import TransactionPlan, YcsbWorkload

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster
    from repro.core.client import TransactionClient


#: Skew of logical-user popularity (YCSB's default theta).
USER_ZIPFIAN_THETA = 0.99


# ----------------------------------------------------------------------
# Arrivals
# ----------------------------------------------------------------------


class PoissonArrivals:
    """Homogeneous Poisson process: exponential interarrival gaps.

    ``next_interarrival(rng, now)`` returns the gap from *now* (the
    previous arrival time) to the next arrival.  It draws only from *rng*,
    so the arrival sequence is a pure function of the stream's seed — the
    determinism the lazy-replay scheduler and the serial-vs-jobs digest
    equality both rest on.
    """

    def __init__(self, rate_per_ms: float) -> None:
        if rate_per_ms <= 0:
            raise ValueError("arrival rate must be positive")
        self.rate_per_ms = rate_per_ms

    def next_interarrival(self, rng: Random, now: float) -> float:
        return rng.expovariate(self.rate_per_ms)


# ----------------------------------------------------------------------
# Logical users
# ----------------------------------------------------------------------

#: Exact head of the zipfian normalizer; the tail is integrated.  1000
#: terms put the integral approximation's error far below one part in 1e6
#: for any theta in (0,1).
_ZETA_HEAD = 1000


class LogicalUserModel:
    """A user population as a sampling distribution, not objects.

    Popularity is zipfian over user ids (YCSB's O(1) rejection-free
    sampler, with the normalizer's tail integrated instead of summed so
    construction is O(1) in ``n_users``): user 0 is the most popular, so
    the hot spot — and the home rows and groups it maps to — is static.
    """

    def __init__(self, n_users: int, theta: float) -> None:
        if n_users <= 0:
            raise ValueError("need at least one logical user")
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must be in (0,1), got {theta}")
        self.n_users = n_users
        self.theta = theta
        self._alpha = 1.0 / (1.0 - theta)
        self._zetan = self._zeta(n_users, theta)
        self._zeta2 = self._zeta(2, theta)
        self._eta = (1.0 - math.pow(2.0 / n_users, 1.0 - theta)) / (
            1.0 - self._zeta2 / self._zetan
        )

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

    def sample_user(self, rng: Random) -> int:
        """Draw one user id (YCSB's zipfian draw: 0 is the most popular)."""
        u = rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + math.pow(0.5, self.theta):
            return 1
        rank = int(self.n_users * math.pow(self._eta * u - self._eta + 1.0, self._alpha))
        return min(rank, self.n_users - 1)

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
    where the harness touches it (``install_data`` / ``start`` /
    ``result``), so
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
    ) -> None:
        if not workload.open_loop:
            raise ValueError("OpenLoopDriver needs workload.open_loop=True")
        check_combination(Combination.of(cluster.config, workload, protocol))
        self.cluster = cluster
        self.workload = workload
        self.protocol = protocol
        self.datacenter = datacenter or cluster.topology.names[0]
        self.instance_id = instance_id
        self.multi_group = cluster.placement.n_groups > 1
        #: One entry per pooled client, index-aligned.
        self._loads: list[_ClientLoad] = []
        #: Each client's outcome list.
        self._outcomes: list[list[TransactionOutcome]] = []
        self._clients: "list[TransactionClient]" = []
        self.users = LogicalUserModel(workload.n_users, USER_ZIPFIAN_THETA)
        #: Shared data-layout oracle (no RNG use): row names, initial
        #: images, group routing.
        self._seed_workload = YcsbWorkload(
            workload, Random(0),
            placement=cluster.placement if self.multi_group else None,
        )

    # -- harness surface ------------------------------------------------

    def install_data(self) -> None:
        for group, rows in self._seed_workload.initial_images().items():
            self.cluster.preload(group, rows)

    # -- results --------------------------------------------------------

    @property
    def result(self) -> InstanceResult:
        """The outcomes in client order."""
        merged = InstanceResult(datacenter=self.datacenter)
        for outcomes in self._outcomes:
            merged.outcomes.extend(outcomes)
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
        # is a Poisson process).
        rate_per_ms = self.workload.offered_load / pool_size / 1000.0
        for index, client in enumerate(self._clients):
            self._loads.append(_ClientLoad())
            self._outcomes.append([])
            arrivals = PoissonArrivals(rate_per_ms)
            generator = YcsbWorkload(
                self.workload,
                self.cluster.env.rng.stream(
                    f"openloop.{self.instance_id}.{index}.ops"
                ),
                placement=self.cluster.placement if self.multi_group else None,
            )
            self.cluster.env.process(
                self._client_loop(client, index, arrivals, generator),
                name=f"{self.instance_id}:client{index}",
            )

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
        user = self.users.sample_user(user_rng)
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
                     arrivals: PoissonArrivals,
                     generator: YcsbWorkload) -> Generator:
        env = self.cluster.env
        load = self._loads[index]
        outcomes = self._outcomes[index]
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
                outcomes.append(outcome)
                continue
            if next_arrival >= horizon:
                return
            yield env.timeout_until(next_arrival)
