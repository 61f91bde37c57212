"""Asynchronous cross-group queues: deferred messages over the group logs.

The paper's cross-group toolbox has two arms.  Synchronous 2PC
(:mod:`repro.core.commit_2pc`) buys atomicity at the price of a prepare
round and an in-doubt read-blocking window.  This module implements the
other arm — Megastore-style *intra-datastore queues* (the commutative
deferral Consus also leans on): a transaction scoped to one entity group
enqueues writes against rows of *other* groups, commits down the ordinary
single-group path (the sends ride in its own commit entry, so they are
durable iff the transaction is), and a background **delivery pump** later
applies each send at its receiver as a separate, idempotent ``queue_apply``
log entry.

Delivery contract (the invariant :func:`check_queue_delivery` enforces and
the fault-injection campaign exercises):

* **eventual delivery** — every send made durable by a committed sender
  entry is eventually applied at its receiver (the offline
  :meth:`repro.cluster.Cluster.drain_queues` completes whatever the pump
  had not finished when the run ended);
* **exactly-once apply** — redelivery after a crash of the pump's home
  replica may append the same message at several log positions, but only
  the *first* occurrence in receiver log order takes effect; the runtime
  apply path deduplicates via a per-stream delivery record in the
  key-value store, which log replay rebuilds after a crash;
* **sender order** — messages of one ``sender_group → receiver_group``
  stream take effect in the order the sender log committed them (their
  ``seqno`` is their 1-based index in that enumeration, which is derived
  from the immutable log, never from pump state — so it survives crashes).

The pump itself is deliberately client-like: its own network node, plain
Synod proposals for the receiver positions (the same machinery 2PC decision
markers use), and its delivery progress in its own memory — a crash of its
home replica kills it mid-delivery, and the fresh pump the restart starts
rescans the sender log from position 1: exactly the redelivery the dedup
layer exists for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Mapping

from repro.config import ProtocolConfig
from repro.core.commit_basic import find_winning_val
from repro.core.retry import backoff_delay_ms
from repro.kvstore.txnstatus import TxnStatusTable
from repro.model import Item, QueueSend, Transaction
from repro.net.node import Node
from repro.paxos.ballot import Ballot
from repro.paxos.proposer import SynodProposer
from repro.wal.entry import LogEntry
from repro.wal.invariants import InvariantViolation, effective_transactions
from repro.wal.log import LogReplica

if TYPE_CHECKING:  # pragma: no cover
    from repro.kvstore.store import MultiVersionStore
    from repro.net.network import Network
    from repro.sim.env import Environment
    from repro.sim.shard import ShardMap

#: Store-key prefix of the receiver-side delivery records.
RECV_PREFIX = "_queue/recv/"

#: ``Transaction.origin`` of applies installed by the offline drain — how
#: the statistics tell pump deliveries from drain completions in a log.
DRAIN_ORIGIN = "drain"


def recv_row_key(receiver_group: str, sender_group: str) -> str:
    """Key of the receiver-side delivery record for one stream."""
    return f"{RECV_PREFIX}{receiver_group}/{sender_group}"


def queue_apply_tid(sender_group: str, receiver_group: str, seqno: int) -> str:
    """Deterministic transaction id of one message's apply.

    Every pump (original or restarted after a crash) derives the same id
    from the stream identity, so redeliveries propose byte-identical values
    and Paxos vote counting treats them as one.
    """
    return f"queue:{sender_group}>{receiver_group}#{seqno}"


def build_queue_apply(
    sender_group: str,
    receiver_group: str,
    seqno: int,
    send: QueueSend,
    origin: str = "",
    origin_dc: str = "",
) -> LogEntry:
    """The ``queue_apply`` log entry for one message (deterministic value)."""
    message = Transaction(
        tid=queue_apply_tid(sender_group, receiver_group, seqno),
        group=receiver_group,
        read_set=frozenset(),
        writes=tuple(send.writes),
        read_position=-1,
        origin=origin,
        origin_dc=origin_dc,
    )
    return LogEntry.queue_apply(message, sender_group, seqno)


# ----------------------------------------------------------------------
# Stream enumeration (shared by the pump, the offline drain, the checker)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StreamSend:
    """One send with its stream position, as derived from the sender log."""

    sender_group: str
    receiver_group: str
    seqno: int
    writes: tuple[tuple[Item, Any], ...]
    sender_tid: str
    sender_position: int


def enumerate_sends(
    sender_group: str,
    log: Mapping[int, LogEntry],
    decisions: Mapping[str, bool] | None = None,
) -> dict[str, list[StreamSend]]:
    """All committed sends of *sender_group*, per receiver, in stream order.

    Seqnos are 1-based indices in sender-log order (position, then member
    order inside combined entries, then the transaction's own send order).
    The enumeration depends only on the immutable log — every caller
    (online pump, offline drain, invariant checker) derives identical
    seqnos, which is what makes crash-redelivery deduplicable.

    Sends of a 2PC prepare entry count iff its decision is COMMIT (branches
    cannot enqueue today, so this is defensive, not load-bearing).
    """
    streams: dict[str, list[StreamSend]] = {}
    counters: dict[str, int] = {}
    for position in sorted(log):
        for txn in effective_transactions(log[position], decisions):
            for send in txn.sends:
                seqno = counters.get(send.target_group, 0) + 1
                counters[send.target_group] = seqno
                streams.setdefault(send.target_group, []).append(StreamSend(
                    sender_group=sender_group,
                    receiver_group=send.target_group,
                    seqno=seqno,
                    writes=tuple(send.writes),
                    sender_tid=txn.tid,
                    sender_position=position,
                ))
    return streams


def first_applies(
    log: Mapping[int, LogEntry], sender_group: str | None = None
) -> dict[tuple[str, int], int]:
    """First-occurrence position of every queue_apply key in *log*.

    Later occurrences of a key are redelivery shadows: the apply path skips
    them and the invariant checkers treat them as no-ops.
    """
    seen: dict[tuple[str, int], int] = {}
    for position in sorted(log):
        key = log[position].queue_key
        if key is None:
            continue
        if sender_group is not None and key[0] != sender_group:
            continue
        seen.setdefault(key, position)
    return seen


# ----------------------------------------------------------------------
# Durable delivery state
# ----------------------------------------------------------------------


class DeliveryTable:
    """Queue-delivery state in one datacenter's key-value store.

    The **receiver record** (``_queue/recv/{receiver}/{sender}``) marks
    every seqno this datacenter's apply path has taken effect for — the
    authoritative dedup for redeliveries.  Like the txn-status table it is
    a projection row a local reader can consult without messaging, which
    log replay rebuilds after a crash.
    """

    def __init__(self, store: "MultiVersionStore") -> None:
        self.store = store

    # -- receiver side --------------------------------------------------

    def is_applied(self, receiver: str, sender: str, seqno: int) -> bool:
        version = self.store.read(recv_row_key(receiver, sender))
        return bool(version and version.get(f"s{seqno}"))

    def mark_applied(self, receiver: str, sender: str, seqno: int) -> None:
        if self.is_applied(receiver, sender, seqno):
            return
        self.store.write(recv_row_key(receiver, sender), {f"s{seqno}": True})

    def applied_seqnos(self, receiver: str, sender: str) -> set[int]:
        version = self.store.read(recv_row_key(receiver, sender))
        if version is None:
            return set()
        return {
            int(name[1:])
            for name, value in version.attributes.items()
            if name.startswith("s") and value
        }

    def streams_into(self, receiver: str) -> dict[str, set[int]]:
        """Every locally-recorded stream into *receiver*: sender → seqnos."""
        prefix = f"{RECV_PREFIX}{receiver}/"
        return {
            key[len(prefix):]: self.applied_seqnos(receiver, key[len(prefix):])
            for key in self.store.keys(prefix)
        }


# ----------------------------------------------------------------------
# The delivery pump
# ----------------------------------------------------------------------


@dataclass
class QueueStats:
    """Delivery statistics of one run (filled by ``Cluster.queue_stats``).

    Every committed send lands in exactly one of three buckets:
    ``applied_online`` (a pump's entry is in the receiver log),
    ``drained_offline`` (only the post-run drain completed it), or
    ``undelivered`` (still absent from the logs — possible only when no
    drain ran).  ``stalled`` counts sends that were committed but unapplied
    past the configured lag threshold — the latter two buckets plus slow
    online deliveries.  The report surfaces it as a distinct condition so
    delivery trouble never hides inside aggregate latency.
    """

    sends: int = 0
    applied_online: int = 0
    drained_offline: int = 0
    undelivered: int = 0
    max_depth: int = 0
    mean_lag_ms: float = float("nan")
    max_lag_ms: float = float("nan")
    stalled: int = 0
    stall_threshold_ms: float = 0.0


@dataclass
class DeliveryRecord:
    """One message the pump confirmed applied (for the lag metrics)."""

    sender_group: str
    receiver_group: str
    seqno: int
    observed_ms: float
    applied_ms: float

    @property
    def lag_ms(self) -> float:
        return self.applied_ms - self.observed_ms


class QueueDeliveryPump:
    """Delivers one sender group's outgoing queue messages.

    Runs in the sender group's home datacenter, scanning the local replica
    of the sender log for acknowledged (contiguously chosen) entries that
    carry sends, and appending the corresponding ``queue_apply`` entries to
    each receiver's log with plain Synod proposals.  A message is confirmed
    — and the stream's counter advanced — only once its entry is
    *chosen* at the receiver; on failure the pump stalls that scan and
    retries next poll, so first occurrences always land in sender order.

    Crash model: the pump is a process of its home replica.  A crash of
    that replica (:meth:`repro.cluster.Cluster.crash_service`) kills it at
    whatever yield it is in, and the restart starts a fresh pump.  Nothing
    it must not lose lives in the pump: the sender log is durable, and the
    delivery progress is pump memory that dies with it, so the fresh pump
    rescans the sender log from position 1 and redelivers, which receiver
    dedup absorbs.
    """

    #: Synod walk budget per message append.
    MAX_APPEND_ATTEMPTS = 16

    def __init__(
        self,
        env: "Environment",
        network: "Network",
        datacenter: str,
        name: str,
        sender_group: str,
        store: "MultiVersionStore",
        config: ProtocolConfig,
        shard_map: "ShardMap",
        datacenters: list[str],
    ) -> None:
        self.env = env
        self.sender_group = sender_group
        self.config = config
        #: On a sharded deployment the pump lives in its *sender group's*
        #: lane — it polls that group's durable log and status tables, which
        #: only exist in that lane's store partition.  (Receiver-group state
        #: is reached by messaging, never by store reads.)
        lane = shard_map.lane_of(sender_group)
        self.node = Node(env, network, name, datacenter, lane=lane)
        self.store = store
        self.status = TxnStatusTable(store)
        #: One log view per group this pump reads (its sender group and each
        #: receiver it appends to), kept for the incarnation's lifetime so a
        #: poll advances the known head instead of re-walking the log.  The
        #: incarnation dies with its home replica, so no crash erases the
        #: store under these views.  Only the chosen-entry index is used,
        #: never ``applied_through``.
        self._replicas: dict[str, LogReplica] = {}
        self.shard_map = shard_map
        self.datacenters = list(datacenters)
        #: Last receiver position this incarnation confirmed, per receiver.
        #: A multi-lane pump cannot see receiver logs in its local store
        #: partition (they belong to other lanes), so without this hint
        #: every append would Synod-walk from position 1.  Only consulted on
        #: multi-lane maps — the single-lane path stays byte-identical.
        self._receiver_heads: dict[str, int] = {}
        self._rng = env.rng.stream(f"queuepump.{name}")
        #: Confirmed deliveries, for the harness lag/depth metrics.
        self.delivered: list[DeliveryRecord] = []
        self.max_depth = 0
        #: When each pending message was first observed (backlog tracking).
        self._observed_ms: dict[tuple[str, int], float] = {}
        #: ``(last fully-delivered sender position, confirmed count per
        #: stream)``.  A scan that finds the acknowledged head at that
        #: position has nothing to deliver; a stall leaves it behind.
        self.progress: tuple[int, dict[str, int]] = (0, {})

    def _replica(self, group: str) -> LogReplica:
        """This pump's view of *group*'s log in its home store."""
        replica = self._replicas.get(group)
        if replica is None:
            replica = self._replicas[group] = LogReplica(self.store, group)
        return replica

    def _acknowledged_entry(self, replica: LogReplica, position: int) -> LogEntry:
        """The entry at a *position* at or below ``replica.read_position()``.

        Such a position is chosen locally by definition, chosen rows are
        durable, and the log is never truncated — a miss is a broken store
        invariant, not a race to ride out.
        """
        entry = replica.chosen_entry(position)
        if entry is None:
            raise InvariantViolation([
                f"{self.store.name}: {replica.group} position {position} is "
                f"below the acknowledged head but has no chosen entry"
            ])
        return entry

    # ------------------------------------------------------------------
    # The pump loop
    # ------------------------------------------------------------------

    def run(self, poll_ms: float = 25.0, idle_stop_after: int = 200) -> Generator:
        """Poll-deliver until the log stays quiet for *idle_stop_after* polls.

        The idle stop keeps a finished simulation drainable (an immortal
        pump would hold the event queue open forever); sends committed
        after it stops are completed by the offline drain and surface as
        delivery *stalls* in the report.
        """
        idle = 0
        while idle < idle_stop_after:
            delivered = yield from self.deliver_pending()
            idle = 0 if delivered else idle + 1
            yield self.env.timeout(poll_ms)

    def deliver_pending(self) -> Generator:
        """One scan: deliver every undelivered send visible locally.

        Returns the number of messages confirmed this scan.  Progress is
        recorded per fully-delivered sender position; a failure mid-position
        leaves progress untouched, so the next scan redelivers the whole
        position (dedup at the receivers makes that harmless).
        """
        replica = self._replica(self.sender_group)
        acknowledged = replica.read_position()
        position, counters = self.progress
        if acknowledged == position:
            return 0
        counters = dict(counters)
        backlog = self._backlog_size(replica, position, acknowledged, counters)
        self.max_depth = max(self.max_depth, backlog)
        delivered = 0
        while position < acknowledged:
            position += 1
            entry = self._acknowledged_entry(replica, position)
            disposition = self._send_disposition(entry)
            if disposition == "stall":
                # An in-doubt prepare carrying sends: cannot know yet
                # whether its sends committed; retry next poll.
                return delivered
            if disposition == "skip":
                self.progress = (position, dict(counters))
                continue
            for txn in entry.transactions:
                for send in txn.sends:
                    seqno = counters.get(send.target_group, 0) + 1
                    key = (send.target_group, seqno)
                    self._observed_ms.setdefault(key, self.env.now)
                    done = yield from self._append_apply(
                        send.target_group, seqno, send
                    )
                    if not done:
                        return delivered
                    counters[send.target_group] = seqno
                    self.delivered.append(DeliveryRecord(
                        sender_group=self.sender_group,
                        receiver_group=send.target_group,
                        seqno=seqno,
                        observed_ms=self._observed_ms.pop(key),
                        applied_ms=self.env.now,
                    ))
                    delivered += 1
            # The position's sends are all confirmed: record progress.
            self.progress = (position, dict(counters))
        return delivered

    def _send_disposition(self, entry: LogEntry) -> str:
        """``"deliver"``, ``"skip"``, or ``"stall"`` for *entry*'s sends.

        Data entries always deliver.  A prepare entry carrying sends
        follows its 2PC decision — resolved from the local status table
        only (the pump never forces a decision; that is recovery's job):
        COMMIT delivers, a resolved ABORT skips (the sends never happened,
        exactly as :func:`enumerate_sends` skips them), and an *unresolved*
        decision stalls the scan.  Markers and queue applies carry nothing.
        """
        if entry.kind == "data":
            return "deliver"
        if entry.kind == "prepare" and entry.queue_sends:
            record = self.status.get(entry.gtid or "")
            if record is None:
                return "stall"
            return "deliver" if record.committed else "skip"
        return "skip"  # markers and queue applies carry no sends

    def _backlog_size(
        self,
        replica: LogReplica,
        from_position: int,
        acknowledged: int,
        counters: Mapping[str, int],
    ) -> int:
        """Sends committed but not yet confirmed delivered (queue depth).

        Numbers the stream exactly as :meth:`deliver_pending` will (same
        disposition filter), so observation timestamps key to the seqnos
        the delivery actually uses.
        """
        depth = 0
        now = self.env.now
        running = dict(counters)
        for position in range(from_position + 1, acknowledged + 1):
            entry = self._acknowledged_entry(replica, position)
            disposition = self._send_disposition(entry)
            if disposition == "stall":
                break
            if disposition == "skip":
                continue
            for send in entry.queue_sends:
                seqno = running.get(send.target_group, 0) + 1
                running[send.target_group] = seqno
                self._observed_ms.setdefault((send.target_group, seqno), now)
                depth += 1
        return depth

    # ------------------------------------------------------------------
    # Appending one message at the receiver
    # ------------------------------------------------------------------

    def _append_apply(
        self, receiver: str, seqno: int, send: QueueSend
    ) -> Generator:
        """Append the message's queue_apply entry to *receiver*'s log.

        Walks forward from the receiver's locally-known head until the
        entry is chosen somewhere (ours or a redelivered twin with the same
        stream key — either way the message is durably in the log).
        Returns True on confirmation, False when the attempt budget runs
        out (partition, lost quorum); the caller stalls the stream.
        """
        # The origin is the *stable* pump identity, not this incarnation's
        # node name: a restarted pump must propose a byte-identical value,
        # or Paxos vote counting and the redelivery-twin check would see
        # two different messages for one stream slot.
        value = build_queue_apply(
            self.sender_group, receiver, seqno, send,
            origin=f"pump:{self.sender_group}", origin_dc=self.node.datacenter,
        )
        position = self._replica(receiver).read_position() + 1
        if not self.shard_map.single_lane:
            position = max(position, self._receiver_heads.get(receiver, 0) + 1)
        services = self.shard_map.ordered_service_names(
            self.datacenters, self.node.datacenter, receiver
        )
        identity = f"{queue_apply_tid(self.sender_group, receiver, seqno)}:{self.node.name}"
        attempts = 0
        while attempts < self.MAX_APPEND_ATTEMPTS:
            proposer = SynodProposer(
                self.node, receiver, position, services, self.config
            )
            outcome = yield from proposer.round(
                Ballot(1, identity),
                lambda prepare: find_winning_val(prepare, value),
            )
            # A position found already chosen costs no attempt.
            if outcome.kind != "chosen":
                attempts += 1
            if outcome.kind in ("chosen", "decided"):
                # Remember every position observed occupied, not just the
                # one our entry finally lands in: a busy receiver log would
                # otherwise be re-walked from the same stale head on every
                # poll (and each re-walked position would burn an attempt),
                # which is a prepare-storm that can starve delivery outright.
                self._receiver_heads[receiver] = position
                if outcome.value.queue_key == value.queue_key:
                    return True
                position += 1
                continue
            # Failed rounds back off with the shared capped-exponential
            # policy (flat at the default cap — see repro.core.retry).
            yield self.env.timeout(
                backoff_delay_ms(self._rng, self.config, attempts - 1)
            )
        return False


