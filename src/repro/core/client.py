"""The Transaction Client (§2.2, §4): the library applications link against.

API (the paper's, §2.2): ``begin(groupKey)``, ``read(groupKey, key)``,
``write(groupKey, key, value)``, ``commit(groupKey)``.  Here a
:class:`TransactionHandle` stands for the active transaction on a group, and
the methods are simulation generators (they exchange messages and take
simulated time).

Behaviour lifted from the transaction protocol of §4:

1. ``begin`` pins the *read position* — the last written log entry known to
   the local Transaction Service — falling over to remote services when the
   local one does not answer.
2. ``read`` returns buffered writes first (property A1), then asks a service
   for the value at the pinned position (property A2), again with failover.
3. ``write`` is buffered locally; nothing is sent before commit.
4. ``commit`` returns immediately for read-only transactions; otherwise it
   drives the configured commit protocol and reports commit/abort.

Beyond the paper, ``begin()`` *without* a group pin opens a **cross-group**
transaction (:class:`MultiGroupHandle`): reads and writes route to their
rows' entity groups via the deployment placement, each group's read position
is pinned on first touch, and ``commit`` dispatches by the number of groups
actually touched — one group takes the existing single-group commit path
unchanged (same messages, same protocol), several run the Megastore-style
two-phase commit of :mod:`repro.core.commit_2pc` over the per-group logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator

from repro.config import (
    Combination,
    IsolationLevel,
    ProtocolConfig,
    ProtocolName,
    check_combination,
)
from repro.core.retry import backoff_delay_ms
from repro.errors import (
    CrossGroupTransaction,
    DeadlineExceeded,
    ServiceUnavailable,
    TransactionStateError,
)
from repro.model import (
    CROSS_GROUP,
    AbortReason,
    Item,
    Placement,
    QueueSend,
    Transaction,
    TransactionOutcome,
    TransactionStatus,
)
from repro.core.service import (
    BEGIN,
    READ,
    BeginReply,
    BeginRequest,
    ReadReply,
    ReadRequest,
)
from repro.net.node import Node
from repro.wal.entry import LogEntry

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network
    from repro.sim.env import Environment
    from repro.sim.shard import ShardMap


@dataclass(slots=True)
class TransactionHandle:
    """Client-side state of one active transaction (readSet/writeSet)."""

    group: str
    read_position: int
    leader_dc: str
    begin_time: float
    read_cache: dict[Item, Any] = field(default_factory=dict)
    read_set: set[Item] = field(default_factory=set)
    read_snapshot: list[tuple[Item, Any]] = field(default_factory=list)
    write_buffer: dict[Item, Any] = field(default_factory=dict)
    write_order: list[tuple[Item, Any]] = field(default_factory=list)
    #: Deferred remote writes, per target group (the queue alternative to
    #: 2PC): buffered like writes, made durable by this group's commit entry.
    queue_buffer: dict[str, list[tuple[Item, Any]]] = field(default_factory=dict)
    active: bool = True
    #: False while a write-only sub-handle of a cross-group transaction has
    #: not yet fixed its read position (``read_position`` is -1 then).
    pinned: bool = True

    def buffered(self, item: Item) -> bool:
        return item in self.write_buffer


@dataclass
class MultiGroupHandle:
    """Client-side state of one active *cross-group* transaction.

    Tracks one :class:`TransactionHandle` per entity group touched so far.
    A group is *pinned* (a normal ``begin`` exchange fixes its read
    position) the first time it is read; write-only groups defer their pin
    to commit time — shrinking the window another transaction can slip into
    — which is still sound: the global serializability argument only needs
    every pin to precede the transaction's first prepare message.
    """

    begin_time: float
    handles: dict[str, TransactionHandle] = field(default_factory=dict)
    active: bool = True

    @property
    def groups(self) -> tuple[str, ...]:
        """Every group this transaction touched, sorted."""
        return tuple(sorted(self.handles))


@dataclass
class CommitContext:
    """Mutable record the commit protocols fill in as they run."""

    transaction: Transaction
    leader_dc: str | None
    home_dc: str
    commit_position: int | None = None
    entry: LogEntry | None = None
    fast_path: bool = False
    promotions: int = 0
    combined: bool = False
    abort_reason: AbortReason | None = None

    def record_commit(
        self,
        position: int,
        entry: LogEntry | None,
        fast_path: bool = False,
        promotions: int = 0,
        combined: bool = False,
    ) -> None:
        self.commit_position = position
        self.entry = entry
        self.fast_path = fast_path
        self.promotions = promotions
        self.combined = combined

    def record_abort(self, reason: AbortReason, promotions: int = 0) -> None:
        self.abort_reason = reason
        self.promotions = promotions


class TransactionClient:
    """One application instance's window into the transaction tier."""

    def __init__(
        self,
        env: "Environment",
        network: "Network",
        datacenter: str,
        name: str,
        datacenters: list[str],
        config: ProtocolConfig,
        shard_map: "ShardMap",
        protocol: ProtocolName = "paxos",
        home_dc: str | None = None,
        placement: Placement | None = None,
        lane: int = 0,
        isolation: IsolationLevel = "1sr",
        items: dict[Item, Item] | None = None,
    ) -> None:
        self.env = env
        self.datacenter = datacenter
        self.config = config
        self.node = Node(env, network, name, datacenter, lane=lane)
        self.datacenters = list(datacenters)
        self.home_dc = home_dc or self.datacenters[0]
        self.protocol_name = protocol
        #: Isolation level the commit engines validate under.  Must be set
        #: before ``_make_protocol`` — engines capture the client.
        self.isolation = isolation
        self.protocol = self._make_protocol(protocol)
        self.placement = placement
        #: Group → event-lane routing and service naming (a one-lane map
        #: gives every group the historic ``svc:{datacenter}`` services).
        self.shard_map = shard_map
        #: ``service_names`` by service lane: every request asks, and the
        #: answer is fixed once ``datacenters``, ``datacenter`` and
        #: ``shard_map`` are.  By lane, not by group — a 2PC decision group
        #: is named per transaction, so groups are unbounded and lanes few.
        self._service_names: dict[int, tuple[str, ...]] = {}
        self._txn_counter = 0
        #: Jitter stream for the failover retry loop.  Drawn from only when
        #: a full service sweep actually failed, so fault-free runs are
        #: bit-identical whatever the retry settings (creating a named
        #: stream never perturbs the others — seeds derive per name).
        self._retry_rng = env.rng.stream(f"client.retry.{name}")
        #: Intern table: each ``(row, attribute)`` item is one object in every
        #: record this client keeps (read and write sets, snapshots, queue
        #: sends) — a retained history otherwise holds a fresh tuple per
        #: operation.  A cluster hands all its clients one table, so it is
        #: per simulation: never module-global (it would outlive the cell)
        #: nor per client (a pool of clients would each hold a copy).
        self._items: dict[Item, Item] = {} if items is None else items

    def _make_protocol(self, protocol: ProtocolName):
        # Imported here to keep module import order acyclic.
        from repro.core.commit_basic import BasicPaxosCommit
        from repro.core.commit_cp import PaxosCPCommit
        from repro.core.leased_leader import LeasedLeaderCommit

        factories = {
            "paxos": BasicPaxosCommit,
            "paxos-cp": PaxosCPCommit,
            "leased-leader": LeasedLeaderCommit,
        }
        try:
            return factories[protocol](self)
        except KeyError:
            raise ValueError(f"unknown commit protocol {protocol!r}") from None

    # ------------------------------------------------------------------
    # Topology helpers used by the protocols
    # ------------------------------------------------------------------

    def service_names(self, group: str) -> tuple[str, ...]:
        """All of *group*'s Transaction Service names, local datacenter first.

        The group's lane picks the services (on a one-lane deployment every
        group shares the one service per datacenter).
        """
        lane = self.shard_map.lane_of(group)
        names = self._service_names.get(lane)
        if names is None:
            names = self._service_names[lane] = tuple(
                self.shard_map.ordered_service_names(
                    self.datacenters, self.datacenter, group
                )
            )
        return names

    def service_in(self, datacenter: str, group: str) -> str | None:
        """Service node name in *datacenter*, if it is part of the deployment."""
        if datacenter not in self.datacenters:
            return None
        return self.shard_map.service_name(datacenter, group)

    # ------------------------------------------------------------------
    # Group routing
    # ------------------------------------------------------------------

    def group_for(self, row: str) -> str:
        """The entity group row *row* routes to under the deployment's
        placement."""
        if self.placement is None:
            raise TransactionStateError(
                "group_for: this client has no placement (single-group deployment)"
            )
        return self.placement.group_of(row)

    def _check_group(self, handle: TransactionHandle, row: str) -> None:
        """Reject operations that would leave the transaction's group.

        Transactions are scoped to one entity group (§2); when the client
        knows the deployment's placement, an operation on a row that routes
        elsewhere fails fast with a typed error instead of silently reading
        or writing another group's log.
        """
        if self.placement is None:
            return
        row_group = self.placement.group_of(row)
        if row_group != handle.group:
            raise CrossGroupTransaction(handle.group, row, row_group)

    # ------------------------------------------------------------------
    # Transaction API (§2.2)
    # ------------------------------------------------------------------

    def begin(self, group: str | None = None, *, key: str | None = None) -> Generator:
        """Start a transaction.

        With a target — named directly (*group*) or derived from a row key
        (*key*) via the deployment's placement — returns a pinned
        :class:`TransactionHandle`: the paper's single-group transaction,
        contacting the local Transaction Service for the read position and
        failing over to the other datacenters in order (§4 step 1).

        With *neither*, returns a :class:`MultiGroupHandle`: a cross-group
        transaction whose operations route by row key and whose groups pin
        lazily.  Requires a placement (the routing map).
        """
        if group is not None and key is not None:
            raise TransactionStateError("begin: pass at most one of group or key")
        if group is None and key is None:
            if self.placement is None:
                raise TransactionStateError(
                    "begin() without a group needs a placement to route by "
                    "row key (single-group deployments must name the group)"
                )
            return MultiGroupHandle(begin_time=self.env.now)
        if group is None:
            assert key is not None
            group = self.group_for(key)
        handle = yield from self._begin_group(group, self.env.now)
        return handle

    def _retry_backoff(self, attempt: int, begin_time: float,
                       operation: str) -> Generator:
        """Back off before retry *attempt*, or die on the deadline budget.

        The deadline is anchored at the *transaction's* begin time, not the
        operation's, so a transaction that keeps limping through a brown-out
        eventually terminates with a typed ``timeout`` instead of wedging
        its thread on endless sweeps.
        """
        deadline = self.config.deadline_ms
        if deadline is not None:
            elapsed = self.env.now - begin_time
            if elapsed >= deadline:
                raise DeadlineExceeded(operation, elapsed, deadline)
        yield self.env.timeout(
            backoff_delay_ms(self._retry_rng, self.config, attempt)
        )

    def _begin_group(self, group: str, begin_time: float) -> Generator:
        """The ``begin`` exchange for one group (§4 step 1, with failover).

        Each *sweep* tries every datacenter's service in order; an empty
        sweep (nobody answered within ``timeout_ms``) backs off with capped
        exponential jitter and retries, up to ``retry_attempts`` extra
        sweeps or the transaction's deadline budget — a brown-out degrades
        into late commits and typed aborts, not hung client threads.
        """
        request = BeginRequest(group)
        for attempt in range(self.config.retry_attempts + 1):
            if attempt:
                yield from self._retry_backoff(
                    attempt - 1, begin_time, f"begin {group}"
                )
            for svc in self.service_names(group):
                reply = yield self.node.request(
                    svc, BEGIN, request, timeout_ms=self.config.timeout_ms
                )
                if reply is not None:
                    begun: BeginReply = reply.payload
                    return TransactionHandle(
                        group=group,
                        read_position=begun.read_position,
                        leader_dc=begun.leader_dc,
                        begin_time=begin_time,
                    )
        raise ServiceUnavailable("begin: no Transaction Service answered")

    def _unpinned_handle(self, group: str, begin_time: float) -> TransactionHandle:
        """A write-only sub-handle whose read position is fixed at commit."""
        return TransactionHandle(
            group=group, read_position=-1,
            leader_dc=self._home_for(group),
            begin_time=begin_time, pinned=False,
        )

    def _pin(self, sub: TransactionHandle) -> Generator:
        """Fix an unpinned sub-handle's read position (one begin exchange)."""
        pinned = yield from self._begin_group(sub.group, sub.begin_time)
        sub.read_position = pinned.read_position
        sub.leader_dc = pinned.leader_dc
        sub.pinned = True

    def _sub_handle(self, handle: MultiGroupHandle, row: str, pin: bool) -> Generator:
        """The per-group handle *row* routes to, pinning it if *pin*."""
        group = self.group_for(row)
        sub = handle.handles.get(group)
        if sub is None:
            if pin:
                sub = yield from self._begin_group(group, handle.begin_time)
            else:
                sub = self._unpinned_handle(group, handle.begin_time)
            handle.handles[group] = sub
        elif pin and not sub.pinned:
            yield from self._pin(sub)
        return sub

    def read(self, handle: TransactionHandle | MultiGroupHandle,
             row: str, attribute: str) -> Generator:
        """Read one item at the pinned position (§4 step 2).

        Returns the buffered value for items this transaction already wrote
        (A1); otherwise asks the local service (with failover) for the value
        at ``handle.read_position`` (A2) and records it in the read set.
        On a cross-group handle the row's group is pinned first.
        """
        if not handle.active:
            self._require_active(handle)
        if isinstance(handle, MultiGroupHandle):
            buffered = handle.handles.get(self.group_for(row))
            if buffered is not None and buffered.buffered((row, attribute)):
                # Read-your-own-write (A1) needs no read position — don't
                # spend a begin exchange (or an early pin) on it.
                return buffered.write_buffer[(row, attribute)]
            sub = yield from self._sub_handle(handle, row, pin=True)
            value = yield from self.read(sub, row, attribute)
            return value
        # One call per read in every workload: the checks of
        # ``_require_active``, ``_check_group`` and ``buffered`` are inline.
        group = handle.group
        placement = self.placement
        if placement is not None and placement.group_of(row) != group:
            raise CrossGroupTransaction(group, row, placement.group_of(row))
        item: Item = (row, attribute)
        item = self._items.setdefault(item, item)
        write_buffer = handle.write_buffer
        if item in write_buffer:
            return write_buffer[item]
        read_cache = handle.read_cache
        if item in read_cache:
            return read_cache[item]
        request = ReadRequest(group, row, attribute, handle.read_position)
        services = self.service_names(group)
        timeout_ms = self.config.timeout_ms
        request_from = self.node.request
        for attempt in range(self.config.retry_attempts + 1):
            if attempt:
                yield from self._retry_backoff(
                    attempt - 1, handle.begin_time, f"read {item}"
                )
            for svc in services:
                reply = yield request_from(svc, READ, request, timeout_ms)
                if reply is not None and reply.payload.ok:
                    read: ReadReply = reply.payload
                    read_cache[item] = read.value
                    handle.read_set.add(item)
                    handle.read_snapshot.append((item, read.value))
                    return read.value
        raise ServiceUnavailable(f"read: no Transaction Service could serve {item}")

    def write(self, handle: TransactionHandle | MultiGroupHandle,
              row: str, attribute: str, value: Any) -> None:
        """Buffer one write locally (§4 step 3); no messages are sent.

        On a cross-group handle the write lands in the row's group's
        sub-handle; a group only ever written stays unpinned until commit.
        """
        self._require_active(handle)
        if isinstance(handle, MultiGroupHandle):
            group = self.group_for(row)
            sub = handle.handles.get(group)
            if sub is None:
                sub = self._unpinned_handle(group, handle.begin_time)
                handle.handles[group] = sub
            handle = sub
        self._check_group(handle, row)
        item: Item = (row, attribute)
        item = self._items.setdefault(item, item)
        handle.write_buffer[item] = value
        handle.write_order.append((item, value))

    def enqueue(self, handle: TransactionHandle | MultiGroupHandle,
                row: str, attribute: str, value: Any) -> None:
        """Defer a write to another group's row (the queue path, no 2PC).

        The send is buffered like a write and becomes durable with this
        transaction's own commit entry on the fast single-group path; a
        delivery pump later applies it at *row*'s group exactly once, in
        send order per (sender, receiver) stream.  Unlike :meth:`write` the
        target row must route *outside* the transaction's group — a local
        deferred write would just be a write — and unlike 2PC the commit
        gives no atomic visibility: the remote write lands eventually.

        Cross-group (2PC) handles cannot enqueue: they already write remote
        groups atomically, and mixing the two disciplines in one transaction
        would leave half its remote effects outside the all-or-nothing
        guarantee.
        """
        self._require_active(handle)
        if isinstance(handle, MultiGroupHandle):
            raise TransactionStateError(
                "enqueue: cross-group (2PC) transactions write remote groups "
                "directly; queues are the single-group alternative"
            )
        if self.placement is None:
            raise TransactionStateError(
                "enqueue: this client has no placement to route the send "
                "(single-group deployments have no remote groups)"
            )
        target = self.placement.group_of(row)
        if target == handle.group:
            raise TransactionStateError(
                f"enqueue: {row!r} routes to the transaction's own group "
                f"{handle.group!r}; use write() for local rows"
            )
        item: Item = (row, attribute)
        item = self._items.setdefault(item, item)
        handle.queue_buffer.setdefault(target, []).append((item, value))

    def commit(self, handle: TransactionHandle | MultiGroupHandle) -> Generator:
        """Try to commit (§4 step 4); returns a :class:`TransactionOutcome`.

        A cross-group handle that touched exactly one group takes this very
        path (same messages, same protocol); several groups run 2PC.
        """
        self._require_active(handle)
        handle.active = False
        if isinstance(handle, MultiGroupHandle):
            groups = handle.groups
            if len(groups) > 1:
                outcome = yield from self._commit_cross_group(handle)
                return outcome
            if not groups:
                # Nothing was touched: trivially committed, nothing to log.
                return TransactionOutcome(
                    transaction=self._build_empty_transaction(),
                    status=TransactionStatus.COMMITTED,
                    begin_time=handle.begin_time,
                    end_time=self.env.now,
                )
            handle = handle.handles[groups[0]]
            if not handle.pinned and handle.write_order:
                yield from self._pin(handle)
            handle.active = False
        txn = self._build_transaction(handle)
        if txn.is_read_only:
            # "If the transaction is read-only, commit automatically
            # succeeds, and no communication with the Transaction Service is
            # needed." (§2.2)
            return TransactionOutcome(
                transaction=txn,
                status=TransactionStatus.COMMITTED,
                begin_time=handle.begin_time,
                end_time=self.env.now,
            )
        context = CommitContext(
            transaction=txn,
            leader_dc=handle.leader_dc,
            home_dc=self._home_for(handle.group),
        )
        status = yield from self.protocol.commit(context)
        return TransactionOutcome(
            transaction=txn,
            status=status,
            abort_reason=context.abort_reason,
            begin_time=handle.begin_time,
            end_time=self.env.now,
            commit_position=context.commit_position,
            promotions=context.promotions,
            combined=context.combined,
        )

    def _commit_cross_group(self, handle: MultiGroupHandle) -> Generator:
        """Commit a transaction spanning several groups via 2PC."""
        from repro.core.commit_2pc import TwoPhaseCommit

        check_combination(
            Combination(protocol=self.protocol_name, two_pc=True,
                        groups=len(handle.groups)),
            TransactionStateError,
        )
        # Pin every write-only group now, before any prepare is sent: the
        # global serializability argument needs all pins to precede the
        # first prepare message.
        for group in handle.groups:
            sub = handle.handles[group]
            if not sub.pinned:
                yield from self._pin(sub)
            sub.active = False
        self._txn_counter += 1
        gtid = f"{self.node.name}#{self._txn_counter}"
        coordinator = TwoPhaseCommit(self)
        result = yield from coordinator.commit(gtid, handle.handles)
        txn = self._build_global_transaction(gtid, handle)
        status = (
            TransactionStatus.COMMITTED if result.committed
            else TransactionStatus.ABORTED
        )
        outcome = TransactionOutcome(
            transaction=txn,
            status=status,
            abort_reason=result.abort_reason,
            begin_time=handle.begin_time,
            end_time=self.env.now,
        )
        outcome.extra["prepare_positions"] = dict(result.prepare_positions)
        return outcome

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _home_for(self, group: str) -> str:
        """The home datacenter of *group* (per-group override or default)."""
        if self.placement is None:
            return self.home_dc
        return self.placement.home_of(group, self.home_dc)

    def _build_transaction(self, handle: TransactionHandle) -> Transaction:
        self._txn_counter += 1
        return Transaction(
            tid=f"{self.node.name}#{self._txn_counter}",
            group=handle.group,
            read_set=frozenset(handle.read_set),
            writes=tuple(handle.write_order),
            read_position=handle.read_position,
            origin=self.node.name,
            origin_dc=self.datacenter,
            read_snapshot=tuple(handle.read_snapshot),
            # Sorted by target so every enumeration of the log derives the
            # same per-stream send order (seqnos must be crash-stable).
            sends=tuple(
                QueueSend(target_group=group, writes=tuple(writes))
                for group, writes in sorted(handle.queue_buffer.items())
            ),
        )

    def _build_empty_transaction(self) -> Transaction:
        self._txn_counter += 1
        return Transaction(
            tid=f"{self.node.name}#{self._txn_counter}",
            group=CROSS_GROUP,
            read_set=frozenset(),
            writes=(),
            read_position=-1,
            origin=self.node.name,
            origin_dc=self.datacenter,
        )

    def _build_global_transaction(
        self, gtid: str, handle: MultiGroupHandle
    ) -> Transaction:
        """The client-facing record of a cross-group transaction.

        Items are namespaced ``{group}/{row}`` so rows that share a name
        across groups stay distinct in the merged (global) history.  Each
        group's item is named once and interned like a local one.
        """
        items = self._items
        read_set: set[Item] = set()
        writes: list[tuple[Item, Any]] = []
        snapshot: list[tuple[Item, Any]] = []
        for group in handle.groups:
            sub = handle.handles[group]
            named: dict[Item, Item] = {}

            def global_item(item: Item) -> Item:
                name = named.get(item)
                if name is None:
                    row, attribute = item
                    name = (f"{group}/{row}", attribute)
                    name = named[item] = items.setdefault(name, name)
                return name

            read_set |= {global_item(item) for item in sub.read_set}
            writes += [(global_item(item), value) for item, value in sub.write_order]
            snapshot += [(global_item(item), value)
                         for item, value in sub.read_snapshot]
        return Transaction(
            tid=gtid,
            group=CROSS_GROUP,
            read_set=frozenset(read_set),
            writes=tuple(writes),
            read_position=-1,
            origin=self.node.name,
            origin_dc=self.datacenter,
            read_snapshot=tuple(snapshot),
            groups=handle.groups,
        )

    @staticmethod
    def _require_active(handle: TransactionHandle) -> None:
        if not handle.active:
            raise TransactionStateError(
                "transaction handle is no longer active (already committed or aborted)"
            )
