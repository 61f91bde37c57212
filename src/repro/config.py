"""Configuration dataclasses for deployments, protocols, and workloads, and
the one table (:data:`COMBINATION_RULES`) of which of their axes do not run
together.

Defaults follow the paper's evaluation (§6): a two-second message timeout,
unlimited promotions, the per-log-position leader optimization enabled, and
a key-value store latency calibrated to HBase-on-EBS (see
:class:`repro.kvstore.service.StoreLatencyModel`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from typing import Callable, Literal, Mapping, get_args, get_origin, get_type_hints

from repro.errors import InvalidExperimentSpec

#: Which commit protocol a client runs.
ProtocolName = Literal["paxos", "paxos-cp", "leased-leader"]

#: Per-run isolation level.  ``"1sr"`` is the paper's one-copy
#: serializability (reads-from validation on every commit): read-write
#: conflicts are checked *instead of* write-write ones, the write-snapshot
#: isolation rule that A Critique of Snapshot Isolation (arXiv:2405.18393)
#: shows is serializable, and the one Paxos-CP's promotion check enforces.
#: ``"si"`` is snapshot isolation: reads come from the start-timestamp
#: snapshot (the MVCC store already serves them at ``read_position``) and
#: commit passes iff no concurrent committed transaction wrote an
#: overlapping *write* set — first-committer-wins.
IsolationLevel = Literal["1sr", "si"]

#: How the key space is carved into entity groups.
GroupAssignment = Literal["hash", "range"]


@functools.cache
def _choice_fields(cls: type) -> tuple[tuple[str, tuple], ...]:
    """``(name, choices)`` of every ``Literal``-typed field of *cls*."""
    hints = get_type_hints(cls)
    return tuple(
        (spec.name, get_args(hints[spec.name]))
        for spec in fields(cls)
        if get_origin(hints[spec.name]) is Literal
    )


def check_choices(config: object, error: type[Exception] = ValueError) -> None:
    """Raise *error* unless every ``Literal``-typed field of the dataclass
    *config* holds one of its type's values: a mistyped choice fails when
    the config is built, not as a silent fallback deep in a run."""
    for name, choices in _choice_fields(type(config)):
        value = getattr(config, name)
        if value not in choices:
            raise error(f"{name} must be one of {choices}, got {value!r}")


@dataclass(frozen=True)
class PlacementConfig:
    """How the datastore is partitioned into entity groups (§2, §4).

    "The datastore is partitioned into entity groups, and each group has its
    own transaction log."  The placement maps every row key to exactly one
    group; each group then gets an independent replicated log, Paxos
    instance sequence, leader-claim table, and applied watermark.

    Attributes
    ----------
    n_groups:
        Number of entity groups.  1 reproduces the paper's evaluation setup
        (a single group) and keeps the legacy single-group API unchanged.
    assignment:
        ``"hash"`` routes a key by a stable hash of its name (CRC-32), which
        balances arbitrary key sets; ``"range"`` splits a numbered key space
        (``row0`` … ``row{key_universe-1}``) into ``n_groups`` contiguous
        blocks, which guarantees every group is non-empty whenever
        ``key_universe >= n_groups``.
    key_universe:
        Size of the numbered key space range assignment splits.  Required
        when ``assignment == "range"``.
    group_homes:
        Optional per-group home override, ``{group name: datacenter}``.  A
        group's *home* datacenter anchors its position-1 leader (and its
        leased leader), so placing a group's home near its writers cuts that
        group's commit latency.  Groups absent from the map keep the
        deployment's single home datacenter — the pre-override behaviour.
    """

    n_groups: int = 1
    assignment: GroupAssignment = "hash"
    key_universe: int | None = None
    group_homes: Mapping[str, str] | None = None

    def __post_init__(self) -> None:
        check_choices(self)
        if self.n_groups <= 0:
            raise ValueError(f"need at least one group, got {self.n_groups}")
        if self.group_homes is not None:
            known = {f"group-{index}" for index in range(self.n_groups)}
            unknown = sorted(set(self.group_homes) - known)
            if unknown:
                raise ValueError(
                    f"group_homes names unknown groups {unknown}; this "
                    f"placement has {sorted(known)}"
                )
        if self.assignment == "range":
            if self.key_universe is None:
                raise ValueError("range assignment requires key_universe")
            if self.key_universe < self.n_groups:
                raise ValueError(
                    f"range assignment needs key_universe >= n_groups "
                    f"({self.key_universe} < {self.n_groups})"
                )

    @classmethod
    def ranged(cls, n_groups: int, key_universe: int | None = None) -> "PlacementConfig":
        """Range-sharded placement over a numbered key space of
        *key_universe* rows (default: one row per group).  ``n_groups == 1``
        returns the default single-group placement, so callers can shard
        conditionally without branching."""
        if n_groups == 1:
            return cls()
        return cls(
            n_groups=n_groups,
            assignment="range",
            key_universe=key_universe if key_universe is not None else n_groups,
        )


@dataclass(frozen=True)
class ProtocolConfig:
    """Tunables of the commit protocols (§4.1, §5).

    Attributes
    ----------
    timeout_ms:
        Message-loss detection timeout; "We utilize a two second timeout"
        (§6).
    quorum_grace_ms:
        Extra time a client waits for straggler votes after a majority is
        already in hand, so that ``enhancedFindWinningVal`` sees more than a
        bare majority when the stragglers are close (see
        :class:`repro.net.node.Gather`).
    retry_backoff_ms:
        Upper bound of the uniform random sleep before re-running a failed
        prepare/accept phase ("sleep for random time period", Algorithm 2).
    max_promotions:
        Promotion cap for Paxos-CP; ``None`` reproduces the paper
        ("transactions were allowed to try for promotion an unlimited number
        of times").  0 disables promotion.
    enable_combination / enable_promotion:
        Feature switches for the two CP enhancements (used by the ablation
        benchmarks; both on reproduces the paper's Paxos-CP).
    leader_fastpath:
        The per-log-position leader optimization of §4.1 ("Megastore does
        not use a master replica, but instead designates one leader per log
        position ... we include the optimization in the prototype used in
        our evaluations").
    max_commit_attempts:
        Safety valve for prepare/accept retry loops so that a pathological
        schedule cannot loop forever; generous enough never to bind in the
        paper's workloads.
    queue_poll_ms:
        Poll interval of the asynchronous-queue delivery pumps.  The paper
        only requires *eventual* delivery; a longer interval trades delivery
        lag for fewer pump wake-ups.
    retry_attempts:
        Extra client-side failover sweeps after the first: a ``begin`` or
        ``read`` whose full sweep over the datacenters came back empty backs
        off and retries this many more times before raising
        :class:`~repro.errors.ServiceUnavailable`.  0 restores the historic
        fail-on-first-sweep behaviour.  Retries draw backoff jitter from a
        dedicated RNG stream only when a sweep actually fails, so fault-free
        runs are bit-identical at any setting.
    retry_backoff_cap_ms:
        Capped exponential backoff shared by the client retry loop, the 2PC
        coordinator's ballot rounds, and the queue pumps' append walks:
        attempt ``k`` sleeps ``uniform(0, min(cap, retry_backoff_ms *
        2**k))``.  The default cap equals ``retry_backoff_ms``, so
        every attempt draws the historic flat ``uniform(0,
        retry_backoff_ms)`` — raise the cap to let brown-out runs spread
        their retries out.
    deadline_ms:
        Per-transaction deadline budget, measured from the transaction's
        begin time.  A client retry that would start past the budget raises
        :class:`~repro.errors.DeadlineExceeded` instead, which the workload
        drivers record as a ``timeout`` abort (a *typed* terminal outcome,
        distinct from ``service_unavailable``).  ``None`` (default) never
        gives up on time.
    lease_ms:
        Leased-leader lease term (§7).  A leader that crashes may still hold
        an unexpired lease; its restarted self must *wait the full term out*
        before serving again, because it cannot prove the lease expired —
        that wait is what makes a leader crash split-brain-free.  The term
        also bounds how stale a surviving replica's knowledge of the leader
        can be.
    """

    timeout_ms: float = 2000.0
    quorum_grace_ms: float = 2.0
    retry_backoff_ms: float = 40.0
    max_promotions: int | None = None
    enable_combination: bool = True
    enable_promotion: bool = True
    leader_fastpath: bool = True
    max_commit_attempts: int = 50
    queue_poll_ms: float = 25.0
    retry_attempts: int = 3
    retry_backoff_cap_ms: float = 40.0
    deadline_ms: float | None = None
    lease_ms: float = 500.0


@dataclass(frozen=True)
class StoreConfig:
    """Key-value store latency (stand-in for HBase-on-EBS operation cost).

    The defaults are calibrated so that the paper's workload reproduces its
    §6 commit rates: with 10–24 ms per store operation a 10-operation
    transaction occupies a contention window that yields ~58% basic-Paxos
    commits at 100 attributes (paper: 284–292/500) — see EXPERIMENTS.md.
    """

    op_low_ms: float = 10.0
    op_high_ms: float = 24.0

    @classmethod
    def instant(cls) -> "StoreConfig":
        """Zero-latency store for unit tests."""
        return cls(0.0, 0.0)


@dataclass(frozen=True)
class OutageWindow:
    """One whole-datacenter outage: all of *datacenter*'s traffic is dropped
    during ``[start_ms, start_ms + duration_ms)`` (the EC2-style failure of
    §1; state is durable, only message delivery stops)."""

    datacenter: str
    start_ms: float
    duration_ms: float

    def __post_init__(self) -> None:
        if self.start_ms < 0 or self.duration_ms < 0:
            raise ValueError(
                f"outage window must have start_ms >= 0 and duration_ms >= 0, "
                f"got start={self.start_ms}, duration={self.duration_ms}"
            )


@dataclass(frozen=True)
class PartitionWindow:
    """One severed inter-datacenter link (both directions) for a window."""

    datacenter_a: str
    datacenter_b: str
    start_ms: float
    duration_ms: float

    def __post_init__(self) -> None:
        if self.start_ms < 0 or self.duration_ms < 0:
            raise ValueError(
                f"partition window must have start_ms >= 0 and duration_ms "
                f">= 0, got start={self.start_ms}, duration={self.duration_ms}"
            )
        if self.datacenter_a == self.datacenter_b:
            raise ValueError(
                f"partition needs two distinct datacenters, got "
                f"{self.datacenter_a!r} twice"
            )


@dataclass(frozen=True)
class LossWindow:
    """A raised Bernoulli message-loss rate for a window, then restored."""

    probability: float
    start_ms: float
    duration_ms: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"loss probability must be in [0,1], got {self.probability}"
            )
        if self.start_ms < 0 or self.duration_ms < 0:
            raise ValueError(
                f"loss window must have start_ms >= 0 and duration_ms >= 0, "
                f"got start={self.start_ms}, duration={self.duration_ms}"
            )


@dataclass(frozen=True)
class CrashWindow:
    """One service-replica crash-restart cycle: kill every process of
    *datacenter*'s service nodes at ``start_ms``, erase their **volatile**
    state (learner caches, apply projections, leases, in-flight handlers),
    and restart them ``restart_after_ms`` later to recover purely from
    durable state — the WAL and the acceptor table (Spinnaker-style
    recovery, arXiv:1103.2408).

    Unlike an :class:`OutageWindow` (connectivity loss with memory intact),
    a crash is amnesia: everything not explicitly durable is gone.  The
    amnesia-detector invariant then enforces that the durable half really
    survived — no promise or accepted-value regression across the restart.
    """

    datacenter: str
    start_ms: float
    restart_after_ms: float

    def __post_init__(self) -> None:
        if self.start_ms < 0:
            raise ValueError(f"crash start_ms must be >= 0, got {self.start_ms}")
        if self.restart_after_ms <= 0:
            raise ValueError(
                f"crash restart_after_ms must be > 0 (the replica must come "
                f"back so recovery is measurable), got {self.restart_after_ms}"
            )


@dataclass(frozen=True)
class FaultProfile:
    """A seed-derived random fault schedule (MTTF/MTTR renewal process).

    Expanded deterministically by
    :func:`repro.failures.schedule.materialize` from the cluster's own RNG
    registry (stream ``"faults.profile"``): alternating exponential up-times
    (mean ``mttf_ms``) and down-windows (mean ``mttr_ms``) over
    ``[0, horizon_ms)``, one victim at a time.  With ``spare_home=True``
    (default) the home datacenter is never the victim, so every generated
    outage is majority-preserving on a 3-DC deployment — the Spinnaker-style
    "minority failure costs a bounded recovery window" regime.
    """

    mttf_ms: float
    mttr_ms: float
    horizon_ms: float
    kind: Literal["outage", "loss", "crash"] = "outage"
    loss_probability: float = 0.2
    spare_home: bool = True

    def __post_init__(self) -> None:
        check_choices(self)
        if self.mttf_ms <= 0 or self.mttr_ms <= 0 or self.horizon_ms <= 0:
            raise ValueError(
                "fault profile needs positive mttf_ms, mttr_ms and horizon_ms"
            )
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError(
                f"loss_probability must be in [0,1], got {self.loss_probability}"
            )


@dataclass(frozen=True)
class FaultScheduleConfig:
    """Declarative fault schedule for one deployment.

    Part of :class:`ClusterConfig`, so it rides the experiment spec into
    :func:`repro.harness.experiment.prepare_run` — which installs it through
    the :class:`~repro.failures.injector.FailureInjector`.  Fixed windows
    and a random :class:`FaultProfile` compose; datacenter names are
    validated against the actual deployment at install time (the config
    layer has no topology to check against).  A :class:`CrashWindow` is
    the one crash: it takes down the datacenter's service replicas and
    every queue delivery pump homed there, and restarts them together.
    """

    outages: tuple[OutageWindow, ...] = ()
    partitions: tuple[PartitionWindow, ...] = ()
    loss_windows: tuple[LossWindow, ...] = ()
    crashes: tuple[CrashWindow, ...] = ()
    profile: FaultProfile | None = None

    def is_empty(self) -> bool:
        return not (
            self.outages or self.partitions or self.loss_windows
            or self.crashes or self.profile is not None
        )

    def cell_suffix(self) -> str:
        """Short tag for cell names, e.g. ``/faults-1o2l`` — empty when the
        schedule is."""
        if self.is_empty():
            return ""
        parts = ""
        if self.outages:
            parts += f"{len(self.outages)}o"
        if self.partitions:
            parts += f"{len(self.partitions)}p"
        if self.loss_windows:
            parts += f"{len(self.loss_windows)}l"
        if self.crashes:
            parts += f"{len(self.crashes)}c"
        if self.profile is not None:
            parts += f"mttf{self.profile.mttf_ms:g}"
        return f"/faults-{parts}"


#: How a lane-partitioned deployment's kernel drains its lanes.  ``"global"``
#: always merges them through one heap in canonical ``(time, lane, seq)``
#: order — the reference; ``"sharded"`` drains them one after another
#: whenever the run's lanes are independent (group-pinned threads, no 2PC,
#: no queues), and is the single heap otherwise.  Results are field-identical either way, and a
#: single-lane deployment runs the plain kernel under both.
EngineName = Literal["global", "sharded"]


def validate_engine(engine: str) -> None:
    """Raise :class:`ValueError` unless *engine* is an :data:`EngineName`."""
    if engine == "sharded-mp":
        raise ValueError(
            "engine 'sharded-mp' was removed: worker processes lost to the "
            "single heap even on fully independent lanes; parallelism is "
            "across cells and seeds (--jobs / run_cells(jobs=...))"
        )
    if engine not in get_args(EngineName):
        raise ValueError(
            f"engine must be one of {get_args(EngineName)}, got {engine!r}"
        )


@dataclass(frozen=True)
class ClusterConfig:
    """A full deployment: datacenters, network behaviour, store behaviour.

    ``cluster_code`` uses the paper's letter codes (``"VVV"``, ``"COV"``,
    ...); see :func:`repro.net.topology.cluster_preset`.

    ``shards`` partitions the deployment into event lanes: each lane owns a
    contiguous block of the placement's entity groups — its per-datacenter
    service endpoints and store partitions — while clients, coordinators,
    and 2PC decision instances share lane 0.  ``engine`` picks the order in
    which the kernel drains those lanes (see :data:`EngineName`); both
    values produce field-identical metrics for the same ``shards`` value,
    while different ``shards`` values are distinct deployments (different
    node names and RNG streams) and are *not* comparable bit-for-bit.
    """

    cluster_code: str = "VVV"
    seed: int = 0
    loss_probability: float = 0.0
    duplicate_probability: float = 0.0
    jitter: float = 0.08
    store: StoreConfig = field(default_factory=StoreConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    placement: PlacementConfig = field(default_factory=PlacementConfig)
    #: Declarative fault schedule, installed by the harness at run start.
    #: Empty by default: no faults.
    faults: FaultScheduleConfig = field(default_factory=FaultScheduleConfig)
    shards: int = 1
    engine: EngineName = "global"
    #: Isolation level every client commits under.  ``"si"`` relaxes commit
    #: validation to first-committer-wins (write-write only), so runs may
    #: admit write skew — the checker then *classifies* the anomalies
    #: instead of failing the run.
    isolation: IsolationLevel = "1sr"

    def __post_init__(self) -> None:
        validate_engine(self.engine)
        check_choices(self)
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.shards > 1 and self.shards > self.placement.n_groups:
            raise ValueError(
                f"shards={self.shards} exceeds the placement's "
                f"{self.placement.n_groups} group(s); each shard lane needs "
                f"at least one entity group"
            )

    @property
    def n_datacenters(self) -> int:
        return len(self.cluster_code)


@dataclass(frozen=True)
class WorkloadConfig:
    """The YCSB-style transactional workload of §6.

    Defaults are the paper's: 500 transactions of 10 operations each, 50%
    reads / 50% writes, attributes chosen uniformly at random from one
    100-attribute row (one entity group), four concurrent client threads
    with staggered starts targeting one transaction per second per thread.
    """

    n_transactions: int = 500
    ops_per_transaction: int = 10
    read_fraction: float = 0.5
    n_attributes: int = 100
    n_rows: int = 1
    n_threads: int = 4
    target_rate_per_thread: float = 1.0  # transactions per second
    stagger_ms: float = 250.0            # delay between successive thread starts
    distribution: Literal["uniform", "zipfian"] = "uniform"
    group: str = "group-0"
    #: How a multi-group workload picks the entity group of each transaction
    #: (only consulted when the driver runs against a placement with more
    #: than one group; ``group`` above names the single-group target).
    #: ``"pinned"`` statically partitions the client threads over the groups
    #: round-robin — thread *i* only ever touches group ``i % n_groups`` —
    #: the paper's single-group workload times N.  Pinned threads draw from
    #: per-thread RNG streams and, on a sharded deployment, run in their
    #: group's event lane, which is what lets the kernel drain the lanes
    #: one after another.
    group_distribution: Literal["uniform", "zipfian", "pinned"] = "uniform"
    group_zipfian_theta: float = 0.99
    #: Fraction of transactions that span several entity groups and commit
    #: through the 2PC coordinator (multi-group mode only; 0 reproduces the
    #: paper's single-group-scoped transactions).
    cross_group_fraction: float = 0.0
    #: How many distinct groups a cross-group transaction touches.
    cross_group_span: int = 2
    #: Fraction of (non-2PC) transactions that stay pinned to one group but
    #: *enqueue* their remote writes as asynchronous queue sends — the
    #: paper's other cross-group tool.  They commit down the fast
    #: single-group path; a delivery pump applies the sends later.  Drawn
    #: after the cross-group draw, so the effective share of the whole mix
    #: is ``queue_fraction * (1 - cross_group_fraction)``.
    queue_fraction: float = 0.0
    #: --- Open-loop traffic engine (``repro.workload.openloop``) ---
    #: ``True`` replaces the closed client loop with an open-loop arrival
    #: process: logical users arrive on their own schedule and a bounded
    #: pool of client nodes serves them, dropping arrivals that find the
    #: pool's pending queues full.  ``n_transactions``/``n_threads``/
    #: ``target_rate_per_thread`` are ignored in this mode; the knobs below
    #: take over.
    open_loop: bool = False
    #: Arrivals are Poisson, the one process there is; the field stays
    #: only because the perf ledger's workload definitions name it.
    arrival: Literal["poisson"] = "poisson"
    #: Logical-user population; memory stays O(pool), users are sampled.
    n_users: int = 1_000_000
    offered_load: float = 64.0           # arrivals per second across the pool
    pool_size: int = 16                  # simulated client nodes
    max_pending: int = 4                 # per-client admission-control bound
    open_duration_ms: float = 10_000.0   # admission horizon

    def __post_init__(self) -> None:
        check_choices(self)
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(f"read_fraction must be in [0,1], got {self.read_fraction}")
        if not 0.0 <= self.cross_group_fraction <= 1.0:
            raise ValueError(
                f"cross_group_fraction must be in [0,1], got {self.cross_group_fraction}"
            )
        if not 0.0 <= self.queue_fraction <= 1.0:
            raise ValueError(
                f"queue_fraction must be in [0,1], got {self.queue_fraction}"
            )
        if self.cross_group_span < 2:
            raise ValueError(
                f"cross_group_span must be >= 2, got {self.cross_group_span}"
            )
        if self.n_transactions < 0 or self.ops_per_transaction <= 0:
            raise ValueError("workload sizes must be positive")
        if self.n_attributes <= 0 or self.n_rows <= 0:
            raise ValueError("data dimensions must be positive")
        if self.n_threads <= 0:
            raise ValueError("need at least one client thread")
        if self.target_rate_per_thread <= 0:
            raise ValueError("target rate must be positive")
        if self.open_loop:
            if self.n_users <= 0 or self.pool_size <= 0 or self.max_pending <= 0:
                raise ValueError(
                    "open-loop n_users, pool_size and max_pending must be positive"
                )
            if self.offered_load <= 0 or self.open_duration_ms <= 0:
                raise ValueError(
                    "open-loop offered_load and open_duration_ms must be positive"
                )

    @property
    def mean_interarrival_ms(self) -> float:
        """Mean time between transactions on one thread, in ms."""
        return 1000.0 / self.target_rate_per_thread


# ---------------------------------------------------------------------------
# Which axis combinations run together
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Combination:
    """The axis values one compatibility check can see.

    The defaults are the paper's plain cell — one group, closed loop, 1SR,
    no faults — which no row of :data:`COMBINATION_RULES` refuses, so an
    entry point overrides only the axes it sees: ``Cluster.add_client`` the
    protocol and the isolation level, a workload driver everything its
    cluster and workload configs fix, an ``ExperimentSpec`` all of them.
    """

    protocol: ProtocolName = "paxos"
    isolation: IsolationLevel = "1sr"
    #: Entity groups the workload can reach.
    groups: int = 1
    shards: int = 1
    open_loop: bool = False
    #: ``cross_group_fraction > 0``: 2PC traffic.
    two_pc: bool = False
    #: ``queue_fraction > 0``: queue sends, and the pumps that deliver them.
    queues: bool = False
    pinned: bool = False
    per_datacenter: bool = False

    @classmethod
    def of(cls, cluster: ClusterConfig, workload: WorkloadConfig,
           protocol: ProtocolName, **axes) -> "Combination":
        """Every axis *cluster*, *workload* and *protocol* fix; *axes* adds
        the rest or overrides one (a single-group driver on a multi-group
        cluster reaches ``groups=1``)."""
        return cls(**{
            "protocol": protocol,
            "isolation": cluster.isolation,
            "groups": cluster.placement.n_groups,
            "shards": cluster.shards,
            "open_loop": workload.open_loop,
            "two_pc": workload.cross_group_fraction > 0,
            "queues": workload.queue_fraction > 0,
            "pinned": workload.group_distribution == "pinned",
            **axes,
        })


@dataclass(frozen=True)
class CombinationRule:
    """One row of the compatibility table: two axes that do not run
    together, the predicate that spots them, and why."""

    axes: tuple[str, str]
    refuses: Callable[[Combination], bool]
    reason: str


#: Every combination of protocol × isolation × traffic mix × open/closed
#: loop × shards × faults that no row refuses runs, which
#: ``tests/harness/test_axis_matrix.py`` checks cell by cell.  Rows are
#: tried in order and the first that refuses names the reason.  Crash
#: windows × queue traffic is deliberately absent: it runs.
COMBINATION_RULES: tuple[CombinationRule, ...] = (
    CombinationRule(
        ("open loop", "shards > 1"),
        lambda c: c.open_loop and c.shards > 1,
        "the open-loop engine needs a single-lane deployment (shards=1): "
        "pooled clients roam groups, which the sharded kernel's lane "
        "pinning cannot express",
    ),
    CombinationRule(
        ("isolation si", "leased-leader"),
        lambda c: c.isolation != "1sr" and c.protocol == "leased-leader",
        "isolation 'si' needs the paxos or paxos-cp protocol (the "
        "leased leader validates commits server-side, where the snapshot "
        "window is invisible)",
    ),
    CombinationRule(
        ("isolation si", "2PC or queue traffic"),
        lambda c: c.isolation != "1sr" and (c.two_pc or c.queues),
        "isolation 'si' currently covers single-group commits only; "
        "cross_group_fraction and queue_fraction must be 0 (the 2PC and "
        "queue layers still validate against 1SR)",
    ),
    CombinationRule(
        ("open loop", "per-datacenter instances"),
        lambda c: c.open_loop and c.per_datacenter,
        "open-loop mode drives one pooled instance; "
        "per_datacenter_instances is not supported",
    ),
    CombinationRule(
        ("open loop", "2PC or queue traffic"),
        lambda c: c.open_loop and (c.two_pc or c.queues),
        "open-loop mode does not support cross_group_fraction or "
        "queue_fraction yet; the pooled clients pin each transaction to its "
        "user's home group",
    ),
    CombinationRule(
        ("leased-leader", "2PC traffic"),
        lambda c: c.protocol == "leased-leader" and c.two_pc,
        "cross_group_fraction needs the paxos or paxos-cp protocol: the "
        "leased leader owns its group's log positions, so 2PC prepares "
        "cannot compete for them",
    ),
    CombinationRule(
        ("leased-leader", "queue traffic"),
        lambda c: c.protocol == "leased-leader" and c.queues,
        "queue_fraction needs the paxos or paxos-cp protocol: the delivery "
        "pump appends queue_apply entries with plain Synod proposals, which "
        "cannot compete with a leased leader's ownership of the receiver "
        "group's positions",
    ),
    CombinationRule(
        ("2PC traffic", "one entity group"),
        lambda c: c.two_pc and c.groups < 2,
        "cross_group_fraction needs a multi-group workload (a cluster "
        "placement with more than one group)",
    ),
    CombinationRule(
        ("queue traffic", "one entity group"),
        lambda c: c.queues and c.groups < 2,
        "queue_fraction needs a multi-group workload (a cluster placement "
        "with more than one group to send to)",
    ),
    CombinationRule(
        ("pinned group distribution", "one entity group"),
        lambda c: c.pinned and c.groups < 2,
        "group_distribution 'pinned' needs a multi-group workload (a "
        "cluster placement with more than one group to pin threads to)",
    ),
)


def check_combination(
    combination: Combination,
    error: type[Exception] = InvalidExperimentSpec,
) -> None:
    """Raise *error* with the reason of the first row that refuses
    *combination*; return quietly when every row lets it run.

    ``ExperimentSpec`` construction is the one place a whole combination is
    known; the workload drivers and ``Cluster.add_client`` check the axes
    they see, and an API-call guard passes its own *error* type.
    """
    for rule in COMBINATION_RULES:
        if rule.refuses(combination):
            raise error(rule.reason)
