"""Client-thread drivers.

"The workload is performed by four concurrent threads with staggered
starts, with a target of one transaction per second." (§6)  Each thread is
one application instance — its own :class:`TransactionClient` — running a
closed loop capped at the target rate: execute a transaction, then wait
until the next arrival slot (a thread that falls behind, e.g. because a
commit took longer than the period, starts its next transaction
immediately; YCSB throttles the same way).

"We also examine concurrency effects in an experiment where each replica
has its own YCSB instance" (§6, Figure 8): :meth:`WorkloadDriver.per_datacenter`
builds one instance per datacenter, targeting one shared entity group
(``shared_group=True``, the Figure-8 setup) or fanning out over the
cluster placement's groups (``shared_group=False``) — an explicit parameter
rather than a config default.

The drivers are isolation-level agnostic: each thread's client inherits the
cluster's ``isolation`` setting through :meth:`repro.cluster.Cluster.add_client`,
so the same workload measures 1SR and SI on identical seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator

from repro.config import Combination, ProtocolName, WorkloadConfig, check_combination
from repro.errors import CrossGroupTransaction, DeadlineExceeded, TransactionError
from repro.model import (
    CROSS_GROUP,
    AbortReason,
    Transaction,
    TransactionOutcome,
    TransactionStatus,
)
from repro.workload.ycsb import TransactionPlan, YcsbWorkload

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster
    from repro.core.client import TransactionClient


def execute_plan(
    cluster: "Cluster", client: "TransactionClient", plan: TransactionPlan,
) -> Generator:
    """Execute one transaction plan end to end; never raises.

    One target group pins the transaction to it — the paper's path,
    byte-for-byte.  Several begin an unpinned cross-group transaction
    that routes by row and commits through the 2PC coordinator.  Queue
    ops are enqueued on the pinned handle as deferred remote writes and
    ride the single-group commit.

    Shared by the closed-loop :class:`WorkloadDriver` threads and the
    open-loop pooled clients (:mod:`repro.workload.openloop`).
    """
    env = cluster.env
    groups = plan.groups
    begin_time = env.now
    sequence = 0
    try:
        if len(groups) > 1:
            handle = yield from client.begin()
        else:
            handle = yield from client.begin(groups[0])
        for op in plan.ops:
            if op.kind == "read":
                yield from client.read(handle, op.row, op.attribute)
            else:
                sequence += 1
                value = f"{client.node.name}@{env.now:.3f}:{sequence}"
                client.write(handle, op.row, op.attribute, value)
        for _group, op in plan.queue_ops:
            sequence += 1
            value = f"{client.node.name}@{env.now:.3f}:q{sequence}"
            client.enqueue(handle, op.row, op.attribute, value)
        outcome = yield from client.commit(handle)
        return outcome
    except CrossGroupTransaction as strayed:
        # A pinned transaction touched a row of another group.  The mix
        # should never produce this (cross-group specs run unpinned),
        # but bypassed guards and hand-rolled workloads can — count it
        # as its own abort reason rather than burying or raising it.
        return TransactionOutcome(
            transaction=_placeholder(client, groups, f"strayed@{env.now:.3f}"),
            status=TransactionStatus.ABORTED,
            abort_reason=AbortReason.CROSS_GROUP,
            begin_time=begin_time,
            end_time=env.now,
            extra={"row": strayed.row, "row_group": strayed.row_group},
        )
    except DeadlineExceeded:
        # The retry loop ran the transaction's deadline budget dry: a
        # *typed* terminal outcome (timeout), distinct from the
        # exhausted-retries case below — the availability report needs the
        # two failure modes separable.
        return TransactionOutcome(
            transaction=_placeholder(client, groups, f"deadline@{env.now:.3f}"),
            status=TransactionStatus.ABORTED,
            abort_reason=AbortReason.TIMEOUT,
            begin_time=begin_time,
            end_time=env.now,
        )
    except TransactionError:
        return TransactionOutcome(
            transaction=_placeholder(client, groups, f"unavailable@{env.now:.3f}"),
            status=TransactionStatus.ABORTED,
            abort_reason=AbortReason.SERVICE_UNAVAILABLE,
            begin_time=begin_time,
            end_time=env.now,
        )


def _placeholder(client: "TransactionClient", groups: tuple[str, ...],
                 tag: str) -> Transaction:
    """A stand-in transaction for outcomes that never built one.

    A failed *cross-group* attempt keeps its cross-group identity
    (``group == CROSS_GROUP``, all intended participants in ``groups``)
    so the 2PC metrics count the attempt and the abort is not misfiled
    under an arbitrary participant group.
    """
    return Transaction(
        tid=f"{client.node.name}#{tag}",
        group=CROSS_GROUP if len(groups) > 1 else groups[0],
        read_set=frozenset(),
        writes=(),
        read_position=-1,
        origin=client.node.name,
        origin_dc=client.datacenter,
        groups=tuple(groups) if len(groups) > 1 else (),
    )


@dataclass
class InstanceResult:
    """Everything one workload instance produced."""

    datacenter: str
    outcomes: list[TransactionOutcome] = field(default_factory=list)

    @property
    def commits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.committed)

    @property
    def aborts(self) -> int:
        return len(self.outcomes) - self.commits


class WorkloadDriver:
    """Runs one YCSB-style instance against a cluster.

    ``multi_group`` selects between the two workload shapes:

    * ``False`` — every transaction targets the single entity group named
      by ``workload.group`` (the paper's evaluation setup);
    * ``True`` — transactions fan out over the cluster placement's groups
      (uniform or zipfian per ``workload.group_distribution``), each
      confined to its group's rows; a ``workload.cross_group_fraction``
      slice spans several groups and commits through 2PC, and a
      ``workload.queue_fraction`` slice converts its remote-group writes
      into asynchronous queue sends on the single-group fast path;
    * ``None`` (default) — inferred: multi-group iff the cluster placement
      has more than one group.
    """

    def __init__(
        self,
        cluster: "Cluster",
        workload: WorkloadConfig,
        protocol: ProtocolName,
        datacenter: str | None = None,
        instance_id: str = "ycsb0",
        multi_group: bool | None = None,
    ) -> None:
        self.cluster = cluster
        self.workload = workload
        self.protocol = protocol
        self.datacenter = datacenter or cluster.topology.names[0]
        self.instance_id = instance_id
        if multi_group is None:
            multi_group = cluster.placement.n_groups > 1
        if multi_group and cluster.placement.n_groups < 2:
            raise ValueError(
                "multi_group workload needs a cluster placement with more "
                "than one group (see ClusterConfig.placement)"
            )
        check_combination(Combination.of(
            cluster.config, workload, protocol,
            groups=cluster.placement.n_groups if multi_group else 1,
        ))
        self.multi_group = multi_group
        #: ``"pinned"`` statically assigns each client thread one entity
        #: group (round-robin over the placement) with its own RNG stream;
        #: on a sharded deployment the thread then runs in its group's
        #: event lane.
        self.pinned = workload.group_distribution == "pinned"
        self._result = InstanceResult(datacenter=self.datacenter)
        #: Per-thread outcome lists (pinned mode): threads in different
        #: event lanes must not interleave appends into one list, or the
        #: aggregate order (and its floating-point sums) would depend on
        #: lane scheduling.  Merged in thread order by :attr:`result`.
        self._thread_outcomes: dict[int, list[TransactionOutcome]] = {}
        self._generator = YcsbWorkload(
            workload,
            cluster.env.rng.stream(f"workload.{instance_id}"),
            placement=cluster.placement if multi_group else None,
        )
        if not multi_group and cluster.placement.n_groups > 1:
            # A single-group workload on a sharded cluster must keep all its
            # rows inside the targeted group, or every stray transaction
            # would die with CrossGroupTransaction mid-run — fail at
            # construction instead.
            stray = [
                row for row in self._generator.all_rows
                if cluster.placement.group_of(row) != workload.group
            ]
            if stray:
                raise ValueError(
                    f"single-group workload targets {workload.group!r} but "
                    f"rows {stray[:3]} route to other groups under the "
                    f"cluster placement; use multi_group=True (or "
                    f"per_datacenter(shared_group=False)) or shrink n_rows"
                )
        self._processes = []

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    @property
    def result(self) -> InstanceResult:
        """This instance's outcomes (merged in thread order when pinned)."""
        if not self.pinned:
            return self._result
        merged = InstanceResult(datacenter=self.datacenter)
        for index in sorted(self._thread_outcomes):
            merged.outcomes.extend(self._thread_outcomes[index])
        return merged

    def thread_group(self, index: int) -> str:
        """The entity group thread *index* is pinned to (pinned mode)."""
        groups = self.cluster.placement.groups
        return groups[index % len(groups)]

    def lane_channels(self) -> "set[tuple[int, int]]":
        """Cross-lane channels this driver's clients can exercise.

        The channel declaration for the laned kernel: a superset of the
        lane pairs this instance's traffic can cross.  Pinned threads
        without a 2PC slice reach only their own lane, so the set is empty
        and the kernel may drain the lanes one after another.
        """
        shard_map = self.cluster.shard_map
        if shard_map.single_lane:
            return set()
        cross = self.workload.cross_group_fraction > 0
        channels: set[tuple[int, int]] = set()
        if self.pinned and not cross:
            return channels
        if self.pinned:
            for index in range(self.workload.n_threads):
                lane = shard_map.lane_of(self.thread_group(index))
                channels |= shard_map.channels_for_client(
                    lane, self.groups, cross_group=True
                )
            return channels
        reachable = self.groups if self.multi_group else (self.workload.group,)
        return shard_map.channels_for_client(0, reachable, cross_group=cross)

    @property
    def groups(self) -> tuple[str, ...]:
        """Every entity group this driver generates transactions for."""
        return self._generator.groups

    def install_data(self) -> None:
        """Preload every targeted group's rows in every datacenter."""
        for group, rows in self._generator.initial_images().items():
            self.cluster.preload(group, rows)

    def start(self) -> None:
        """Spawn the client threads; call before ``cluster.run()``."""
        share = self.workload.n_transactions // self.workload.n_threads
        remainder = self.workload.n_transactions % self.workload.n_threads
        shard_map = self.cluster.shard_map
        for index in range(self.workload.n_threads):
            budget = share + (1 if index < remainder else 0)
            if budget == 0:
                continue
            lane = 0
            generator = self._generator
            if self.pinned:
                group = self.thread_group(index)
                lane = shard_map.lane_of(group)
                self._thread_outcomes.setdefault(index, [])
                generator = YcsbWorkload(
                    self.workload,
                    self.cluster.env.rng.stream(
                        f"workload.{self.instance_id}.{index}"
                    ),
                    placement=self.cluster.placement,
                    fixed_group=group,
                )
            client = self.cluster.add_client(
                self.datacenter,
                protocol=self.protocol,
                name=f"cli:{self.datacenter}:{self.instance_id}:{index}",
                lane=lane,
            )
            process = self.cluster.env.process(
                self._thread(client, index, budget, generator),
                name=f"{self.instance_id}:thread{index}",
                lane=lane if lane else None,
            )
            self._processes.append(process)

    @property
    def done(self) -> bool:
        return all(not process.is_alive for process in self._processes)

    # ------------------------------------------------------------------
    # The client loop
    # ------------------------------------------------------------------

    def _thread(self, client: "TransactionClient", index: int, budget: int,
                generator: YcsbWorkload | None = None) -> Generator:
        env = self.cluster.env
        generator = generator if generator is not None else self._generator
        if self.pinned:
            sink = self._thread_outcomes[index]
        else:
            sink = self._result.outcomes
        rng = env.rng.stream(f"driver.{self.instance_id}.{index}")
        yield env.timeout(index * self.workload.stagger_ms)
        period = self.workload.mean_interarrival_ms
        for _k in range(budget):
            slot_start = env.now
            plan = generator.next_transaction_plan()
            outcome = yield from self._run_transaction(client, plan)
            sink.append(outcome)
            # Rate cap: next arrival one (jittered) period after this slot
            # began; skip the wait entirely if we are already late.
            next_slot = slot_start + rng.uniform(0.8 * period, 1.2 * period)
            if env.now < next_slot:
                yield env.timeout(next_slot - env.now)

    def _run_transaction(
        self, client: "TransactionClient", plan: TransactionPlan,
    ) -> Generator:
        """Execute one transaction end to end (see :func:`execute_plan`)."""
        outcome = yield from execute_plan(self.cluster, client, plan)
        return outcome

    # ------------------------------------------------------------------
    # Multi-instance construction (Figure 8)
    # ------------------------------------------------------------------

    @classmethod
    def per_datacenter(
        cls,
        cluster: "Cluster",
        workload: WorkloadConfig,
        protocol: ProtocolName,
        *,
        shared_group: bool = True,
    ) -> list["WorkloadDriver"]:
        """One workload instance in every datacenter.

        ``shared_group=True`` is the Figure-8 experiment: every instance
        targets the *same* entity group (``workload.group``), so the
        datacenters compete for one log.  ``shared_group=False`` instead
        spreads every instance's transactions across the cluster placement's
        groups (multi-group mode; the placement must define more than one
        group).

        The first driver owns the data preload; start them all, then run the
        cluster to completion.
        """
        drivers = []
        for index, dc in enumerate(cluster.topology.names):
            drivers.append(cls(
                cluster, workload, protocol,
                datacenter=dc, instance_id=f"ycsb{index}",
                multi_group=not shared_group,
            ))
        return drivers
