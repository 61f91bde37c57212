"""The Transaction Service (§2.2, §4).

Every datacenter runs one Transaction Service per deployment.  "The
Transaction Service handles each client request in its own service process,
and these processes are stateless" — all durable state lives in the
datacenter's key-value store.  Here each incoming message spawns a handler
process on the service's node; the only in-memory state besides caches is
the leader-claim table (which Megastore likewise keeps at the leader site)
and the applied-log watermark (recoverable by scanning the store).

Responsibilities:

* Paxos acceptor for every (group, position) — :class:`repro.paxos.acceptor.Acceptor`;
* ``begin``: report the local read position and the leader for the next
  position (transaction protocol step 1);
* ``read``: serve an attribute at a pinned log position, first applying any
  committed-but-unapplied entries ("If the log entries up through read
  position have not yet been applied to the datastore, the Transaction
  Service applies these operations", step 2), running catch-up for missing
  decisions (§4.1 Fault Tolerance);
* leader-claim arbitration for the fast path (§4.1 optimization).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, NamedTuple

from repro.config import ProtocolConfig
from repro.core.queues import DeliveryTable
from repro.kvstore.service import StoreAccessor
from repro.kvstore.store import MultiVersionStore
from repro.kvstore.txnstatus import (
    TxnStatusTable,
    decision_group,
    gtid_of_decision_group,
    is_decision_group,
)
from repro.model import TransactionStatusRecord
from repro.net.message import Message
from repro.net.node import Node
from repro.paxos import messages as m
from repro.paxos.acceptor import Acceptor
from repro.paxos.learner import Learner
from repro.sim.shard import service_node_name
from repro.sim.sync import Lock
from repro.wal.log import LogReplica, data_row_key
from repro.wal.entry import LogEntry

if TYPE_CHECKING:  # pragma: no cover
    from typing import Mapping

    from repro.net.network import Network
    from repro.sim.env import Environment

#: Message types served in addition to the Paxos ones.
BEGIN = "txn.begin"
READ = "txn.read"


# The four records below travel in every begin and read exchange, so they
# are NamedTuples, like the Paxos payloads (see ``repro.paxos.messages``).


class BeginReply(NamedTuple):
    """Answer to ``begin``: where to read, and who leads the next position."""

    read_position: int
    leader_dc: str


class ReadReply(NamedTuple):
    """Answer to ``read``; ``ok=False`` means the service could not catch up."""

    ok: bool
    value: Any = None


class ReadRequest(NamedTuple):
    """A pinned read: ``row.attribute`` as of log ``position``."""

    group: str
    row: str
    attribute: str
    position: int


class BeginRequest(NamedTuple):
    group: str


class TransactionService:
    """One datacenter's transaction tier endpoint."""

    def __init__(
        self,
        env: "Environment",
        network: "Network",
        datacenter: str,
        store: MultiVersionStore,
        config: ProtocolConfig,
        home_dc: str,
        store_accessor: StoreAccessor | None = None,
        group_homes: "Mapping[str, str] | None" = None,
        lane: int = 0,
    ) -> None:
        self.env = env
        self.datacenter = datacenter
        self.config = config
        self.home_dc = home_dc
        self.group_homes = dict(group_homes or {})
        self.store = store
        self.accessor = store_accessor or StoreAccessor(env, store)
        self.lane = lane
        self.node = Node(env, network, service_node_name(datacenter, lane),
                         datacenter, lane=lane)
        self.acceptor = Acceptor(self.accessor)
        self.txn_status = TxnStatusTable(store)
        self.delivery = DeliveryTable(store)
        self._replicas: dict[str, LogReplica] = {}
        self._apply_locks: dict[str, Lock] = {}
        self._leader_claims: dict[tuple[str, int], str] = {}
        self._peers: list[str] = []
        self._decision_peers: list[str] = []
        #: Set by :func:`repro.core.leased_leader.install_leased_leader`.
        self.lease_host = None
        self._register_handlers()

    def set_peers(self, service_names: list[str],
                  decision_peers: list[str] | None = None) -> None:
        """Tell this service where the other replicas are (for catch-up).

        ``decision_peers`` names the services owning the 2PC decision
        instances (the shared lane on a sharded deployment); a group-lane
        service resolving an in-doubt prepare runs its LEARN round against
        them.  Defaults to the same peers — the single-lane layout, where
        one service per datacenter owns everything.
        """
        self._peers = list(service_names)
        self._decision_peers = list(
            decision_peers if decision_peers is not None else service_names
        )

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def _register_handlers(self) -> None:
        self.node.on(m.PREPARE, lambda msg: self.acceptor.on_prepare(msg.payload))
        self.node.on(m.ACCEPT, lambda msg: self.acceptor.on_accept(msg.payload))
        self.node.on(m.APPLY, self._on_apply)
        self.node.on(m.LEARN, lambda msg: self.acceptor.on_learn(msg.payload))
        self.node.on(m.LEADER_CLAIM, self._on_leader_claim)
        self.node.on(BEGIN, self._on_begin)
        self.node.on(READ, self._on_read)

    def replica(self, group: str) -> LogReplica:
        """The local log replica for *group* (created on first use)."""
        replica = self._replicas.get(group)
        if replica is None:
            replica = LogReplica(self.store, group)
            self._replicas[group] = replica
        return replica

    def _apply_lock(self, group: str) -> Lock:
        lock = self._apply_locks.get(group)
        if lock is None:
            lock = Lock(self.env)
            self._apply_locks[group] = lock
        return lock

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def _on_apply(self, msg: Message) -> Generator:
        """APPLY also invalidates the replica's chosen-entry cache path."""
        payload: m.ApplyPayload = msg.payload
        yield from self.acceptor.on_apply(payload)
        if is_decision_group(payload.group):
            # A 2PC decision became durable: project it into the local
            # transaction-status table so readers resolve in-doubt prepares
            # without messaging.
            self.txn_status.record(TransactionStatusRecord(
                gtid=gtid_of_decision_group(payload.group),
                committed=payload.value.kind == "commit",
                participants=payload.value.participants,
            ))
            return None
        # Seed the cache so read_position() sees the new entry without
        # another store read.
        self.replica(payload.group)._chosen_cache.setdefault(payload.position, payload.value)
        return None

    def _on_begin(self, msg: Message) -> Generator:
        """Report the local read position and next-position leader.

        Costs one store read (the metadata lookup a real service performs).
        The returned position is the transaction's *snapshot*: every read it
        performs resolves at this position, under all isolation levels —
        the levels diverge only in what commit-time validation the client
        runs against entries chosen after it (:mod:`repro.core.isolation`).
        """
        payload: BeginRequest = msg.payload
        replica = self.replica(payload.group)
        yield self.accessor.read(data_row_key(payload.group, "_head"))
        position = replica.read_position()
        return BeginReply(position, self.leader_dc(payload.group, position + 1))

    def home_for(self, group: str) -> str:
        """The home datacenter of *group*: the per-group placement override
        when one exists, else the deployment's home."""
        return self.group_homes.get(group, self.home_dc)

    def leader_dc(self, group: str, position: int) -> str:
        """The leader site for *position*: the datacenter of the winner of
        ``position - 1``; the group's home datacenter when there is no
        previous winner (start of the log or unknown locally) or the winner
        names no origin (2PC decision markers)."""
        if position <= 1:
            return self.home_for(group)
        previous = self.replica(group).chosen_entry(position - 1)
        if previous is None:
            return self.home_for(group)
        return previous.head_origin_dc(self.home_for(group))

    def _on_leader_claim(self, msg: Message):
        """Fast-path arbitration: first claimant per (group, position) wins."""
        payload: m.LeaderClaimPayload = msg.payload
        key = (payload.group, payload.position)
        holder = self._leader_claims.setdefault(key, payload.claimant)
        return m.LeaderClaimReply(holder == payload.claimant)

    def _on_read(self, msg: Message) -> Generator:
        """Serve a pinned read, applying the log as needed (step 2)."""
        request: ReadRequest = msg.payload
        replica = self.replica(request.group)
        # Nearly every read is pinned at or below what is already applied:
        # then there is nothing to apply and no sub-generator to enter.
        if replica.applied_through < request.position:
            caught_up = yield from self._ensure_applied(
                request.group, request.position
            )
            if not caught_up:
                return ReadReply(False)
        version = yield self.accessor.read(
            data_row_key(request.group, request.row), timestamp=request.position
        )
        value = None if version is None else version.get(request.attribute)
        return ReadReply(True, value)

    # ------------------------------------------------------------------
    # Log application and catch-up
    # ------------------------------------------------------------------

    def _ensure_applied(self, group: str, position: int) -> Generator:
        """Apply committed entries through *position*; catch up on gaps.

        Returns True on success, False if some decision could not be learned
        (e.g. a majority of replicas is unreachable) or an in-doubt 2PC
        prepare blocks the prefix (its global decision is not yet knowable —
        readers pinned at or past it must wait, which is 2PC's blocking
        window surfacing exactly where it should).
        """
        replica = self.replica(group)
        if replica.applied_through >= position:
            return True
        # Learn any missing decisions first, without holding the apply lock.
        for missing in range(replica.applied_through + 1, position + 1):
            if replica.is_chosen(missing):
                continue
            entry = yield from self._catch_up(group, missing)
            if entry is None:
                return False
        lock = self._apply_lock(group)
        yield lock.acquire()
        try:
            while replica.applied_through < position:
                next_position = replica.applied_through + 1
                entry = replica.chosen_entry(next_position)
                if entry is None:  # raced with a concurrent catch-up failure
                    return False
                if entry.is_marker:
                    # A 2PC decision marker: resolves the earlier prepare,
                    # writes nothing itself.
                    self.txn_status.record(TransactionStatusRecord(
                        gtid=entry.gtid or "",
                        committed=entry.kind == "commit",
                        participants=entry.participants,
                    ))
                    replica.mark_applied(next_position)
                    continue
                if entry.kind == "queue_apply":
                    # Idempotent delivery: a redelivered message (pump crash
                    # between append and progress write) applies nothing the
                    # second time.  The durable per-stream record — not the
                    # in-memory watermark — is what deduplicates, so it
                    # survives anything that survives the store.
                    assert entry.sender_group is not None
                    assert entry.queue_seqno is not None
                    if self.delivery.is_applied(
                        group, entry.sender_group, entry.queue_seqno
                    ):
                        replica.mark_applied(next_position)
                        continue
                    for row, attributes in entry.write_image().items():
                        yield self.accessor.write(
                            data_row_key(group, row), attributes,
                            timestamp=next_position,
                        )
                    self.delivery.mark_applied(
                        group, entry.sender_group, entry.queue_seqno
                    )
                    replica.mark_applied(next_position)
                    continue
                if entry.kind == "prepare":
                    committed = yield from self._resolve_decision(entry)
                    if committed is None:
                        return False  # in-doubt: cannot serve this prefix yet
                    if not committed:
                        replica.mark_applied(next_position)
                        continue
                for row, attributes in entry.write_image().items():
                    yield self.accessor.write(
                        data_row_key(group, row), attributes, timestamp=next_position
                    )
                replica.mark_applied(next_position)
        finally:
            lock.release()
        return True

    def _resolve_decision(self, entry: LogEntry) -> Generator:
        """The global decision for a prepare entry's transaction.

        Returns True (commit), False (abort), or ``None`` while in doubt.
        Cheapest source first: the local status table, the local copy of the
        decision instance, then a passive LEARN round over the peers (never
        *proposing* — forcing a decision is recovery's job, not a reader's).
        """
        gtid = entry.gtid or ""
        record = self.txn_status.get(gtid)
        if record is not None:
            return record.committed
        instance = decision_group(gtid)
        decided = self.replica(instance).chosen_entry(1)
        if decided is None:
            learner = Learner(
                self.node, instance,
                self._decision_peers or self._peers or [self.node.name],
                self.config,
            )
            decided = yield from learner.learn(1)
        if decided is None:
            return None
        self.txn_status.record(TransactionStatusRecord(
            gtid=gtid,
            committed=decided.kind == "commit",
            participants=decided.participants,
        ))
        self.replica(instance).record_chosen(1, decided)
        return decided.kind == "commit"

    def _catch_up(self, group: str, position: int) -> Generator:
        """Learn one missing decision from the peer replicas (§4.1)."""
        learner = Learner(self.node, group, self._peers or [self.node.name], self.config)
        entry = yield from learner.learn_or_decide(position)
        if entry is not None:
            self.replica(group).record_chosen(position, entry)
        return entry

    # ------------------------------------------------------------------
    # Crash-restart recovery
    # ------------------------------------------------------------------

    def crash_reset(self) -> None:
        """Drop every piece of volatile service state (the crash's RAM loss).

        Replicas carry the chosen-entry cache, the applied watermark, and
        the read-position hint; the apply locks may be held by (or queued
        with) processes the crash killed; the leader-claim table and the
        leased-leader host state are in-memory by design.  All of it is
        rebuilt from the durable ``_paxos/`` rows by :meth:`spawn_recovery`
        and by the normal lazy paths.
        """
        self._replicas = {}
        self._apply_locks = {}
        self._leader_claims = {}
        if self.lease_host is not None:
            self.lease_host.on_crash()

    def durable_groups(self) -> list[str]:
        """Groups with durable Paxos state in this store, decision
        instances excluded (their projection recovers lazily through
        :meth:`_resolve_decision` from the durable decision rows)."""
        groups: set[str] = set()
        for key in self.store.keys("_paxos/"):
            groups.add(key[len("_paxos/"):].rsplit("/", 1)[0])
        return sorted(g for g in groups if not is_decision_group(g))

    def spawn_recovery(self) -> "dict[str, Any]":
        """Rebuild the volatile apply projections after a restart.

        One background process per durable group replays the WAL through
        the highest locally-chosen position — :meth:`_ensure_applied` does
        the work, so gaps below it run the ordinary Paxos catch-up against
        the peer replicas and the row/txn-status/delivery projections come
        back exactly as the apply path originally built them.  Returns
        ``{group: process}``; the processes are adopted into the node's
        tracked set so a second crash kills in-flight recovery too.
        """
        processes: dict[str, Any] = {}
        for group in self.durable_groups():
            target = self.replica(group).max_chosen_position()
            process = self.env.process(
                self._recover_group(group, target),
                name=f"{self.node.name}:recover:{group}",
                lane=self.lane,
            )
            self.node.adopt(process)
            processes[group] = process
        return processes

    def _recover_group(self, group: str, target: int) -> Generator:
        yield from self._ensure_applied(group, target)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TransactionService {self.datacenter}>"
