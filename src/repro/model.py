"""Shared data model: transactions, data items, and conflict predicates.

A *data item* is one attribute of one row — the granularity at which the
paper's combination and promotion enhancements detect conflicts.  Items are
``(row_key, attribute)`` tuples.

A :class:`Transaction` here is the *committed-form* record that travels
through the commit protocol and into the write-ahead log: its read set, its
ordered writes, and the log position it read from.  The mutable in-progress
state (the client's readSet/writeSet buffers) lives in
:class:`repro.core.client.TransactionHandle`.

The conflict predicate that both Paxos-CP enhancements rely on is
*reads-from* interference (§5): transaction ``t`` cannot be placed after
transaction ``s`` in the same or a later log position if ``t`` read any item
that ``s`` wrote, because ``t``'s reads would no longer be the latest writes
before its commit position.  Write-write overlap alone is harmless — the log
order serializes blind writes.
"""

from __future__ import annotations

import enum
import re
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.config import PlacementConfig

#: A data item: (row key, attribute name).
Item = tuple[str, str]

#: The ``Transaction.group`` value of a *cross-group* transaction record (the
#: client-facing outcome of a 2PC commit).  Never a real group name: placement
#: group names are ``{prefix}{index}`` and user-supplied group keys come from
#: application code, which has no business starting names with ``*``.
CROSS_GROUP = "*cross*"

_TRAILING_DIGITS = re.compile(r"(\d+)$")


class Placement:
    """The key → entity-group map of a deployment (§2, §4).

    Every row key routes to exactly one group, stably: the same key always
    lands in the same group, independent of call order, process, or seed.
    Group names are ``group-0`` … ``group-{n-1}``.

    Transactions live entirely within one group — that is the paper's scope
    ("each transaction accesses only data from a single entity group") — so
    the client uses this map to reject cross-group operations with
    :class:`repro.errors.CrossGroupTransaction`.
    """

    def __init__(self, config: PlacementConfig | None = None) -> None:
        self.config = config or PlacementConfig()
        self.groups: tuple[str, ...] = tuple(
            self.group_name(index) for index in range(self.config.n_groups)
        )

    @classmethod
    def single(cls) -> "Placement":
        """The degenerate one-group placement of the seed system."""
        return cls(PlacementConfig(n_groups=1))

    @property
    def n_groups(self) -> int:
        return self.config.n_groups

    def group_name(self, index: int) -> str:
        return f"group-{index}"

    def group_index(self, key: str) -> int:
        """The group index of row *key* (stable across calls and runs)."""
        if self.config.n_groups == 1:
            return 0
        if self.config.assignment == "range":
            match = _TRAILING_DIGITS.search(key)
            if match is not None:
                number = int(match.group(1))
                universe = self.config.key_universe
                assert universe is not None  # enforced by PlacementConfig
                if number < universe:
                    return number * self.config.n_groups // universe
            # Keys outside the numbered universe fall back to hashing so
            # every key still routes somewhere deterministic.
        return zlib.crc32(key.encode("utf-8")) % self.config.n_groups

    def group_of(self, key: str) -> str:
        """The group name row *key* belongs to."""
        return self.group_name(self.group_index(key))

    def split_by_group(self, keys: Iterable[str]) -> dict[str, list[str]]:
        """Partition *keys* into ``{group name: [keys]}`` (all groups listed,
        including empty ones)."""
        partition: dict[str, list[str]] = {group: [] for group in self.groups}
        for key in keys:
            partition[self.group_of(key)].append(key)
        return partition

    def home_of(self, group: str, default: str) -> str:
        """The home datacenter of *group*: its ``group_homes`` override when
        the placement has one, else *default* (the deployment's home)."""
        homes = self.config.group_homes
        if homes is None:
            return default
        return homes.get(group, default)

    def place_rows(
        self, rows: Mapping[str, Mapping[str, Any]]
    ) -> dict[str, dict[str, Mapping[str, Any]]]:
        """Partition a ``{row: attributes}`` image into per-group images."""
        images: dict[str, dict[str, Mapping[str, Any]]] = {}
        for row, attributes in rows.items():
            images.setdefault(self.group_of(row), {})[row] = attributes
        return images

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Placement(n_groups={self.config.n_groups}, "
            f"assignment={self.config.assignment!r})"
        )


class TransactionStatus(enum.Enum):
    """Terminal status of a transaction attempt, as reported to the client."""

    COMMITTED = "committed"
    ABORTED = "aborted"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class AbortReason(enum.Enum):
    """Why the commit protocol aborted a transaction."""

    LOST_POSITION = "lost_position"          # basic Paxos: another value won
    PROMOTION_CONFLICT = "promotion_conflict"  # CP: read something a winner wrote
    PROMOTION_CAP = "promotion_cap"          # CP: configured promotion limit hit
    TIMEOUT = "timeout"                      # could not reach a quorum
    CLIENT_CRASH = "client_crash"            # fault injection killed the client
    SERVICE_UNAVAILABLE = "service_unavailable"  # no service answered begin/read
    CROSS_GROUP = "cross_group"              # pinned txn touched another group
    PREPARE_FAILED = "prepare_failed"        # 2PC: a participant group's prepare lost
    WRITE_CONFLICT = "write_conflict"        # SI: lost first-committer-wins

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class QueueSend:
    """A deferred cross-group message riding in a committing transaction.

    The paper's second cross-group tool (§2, after Megastore's queues): a
    transaction scoped to one entity group may *enqueue* writes against rows
    of other groups.  The sends become durable with the sender's own commit
    entry — no prepare round, no in-doubt window — and a delivery pump later
    applies them at each receiver as separate, idempotent ``queue_apply``
    log entries (see :mod:`repro.core.queues`).

    ``writes`` are ordered ``(item, value)`` pairs on the *receiver's* rows;
    the sender's own ``writes`` never include them.
    """

    target_group: str
    writes: tuple[tuple[Item, Any], ...]

    @property
    def write_set(self) -> frozenset[Item]:
        return frozenset(item for item, _value in self.writes)

    def write_image(self) -> dict[str, dict[str, Any]]:
        """Writes grouped by row: ``{row_key: {attribute: value}}``."""
        image: dict[str, dict[str, Any]] = {}
        for (row, attribute), value in self.writes:
            image.setdefault(row, {})[attribute] = value
        return image


@dataclass(frozen=True)
class Transaction:
    """A read/write transaction in the form the commit protocol ships around.

    Attributes
    ----------
    tid:
        Globally unique transaction id (client name + local counter).
    group:
        Transaction group key (the paper's entity-group key).
    read_set:
        Items read from the datastore (excludes read-your-own-write reads,
        which never touch the store).
    writes:
        Ordered ``(item, value)`` pairs; order matters when a transaction
        writes the same item twice (last write wins at apply time).
    read_position:
        The log position all datastore reads were served at (property A2).
    origin:
        Name of the client node that executed the transaction; its
        datacenter determines the leader for the following log position.
    read_snapshot:
        The ``(item, value)`` pairs actually observed by the datastore reads.
        The protocols never consult this; it rides along so the offline
        one-copy-serializability checker can replay the log and verify that
        every committed transaction read exactly the state its serial
        position implies (Definition 1).
    groups:
        Empty for ordinary single-group transactions.  For the client-facing
        record of a *cross-group* transaction (``group == CROSS_GROUP``) it
        names every participant entity group; the per-group branches that
        actually enter the logs are separate :class:`Transaction` records
        built by the 2PC coordinator.
    sends:
        Deferred messages to *other* groups (:class:`QueueSend`), one per
        target group, sorted by target.  They become durable with this
        transaction's commit entry and are applied asynchronously by the
        queue delivery pump — never by this transaction's own apply.
    """

    tid: str
    group: str
    read_set: frozenset[Item]
    writes: tuple[tuple[Item, Any], ...]
    read_position: int
    origin: str = ""
    origin_dc: str = ""
    read_snapshot: tuple[tuple[Item, Any], ...] = ()
    groups: tuple[str, ...] = ()
    sends: tuple[QueueSend, ...] = ()

    @property
    def is_cross_group(self) -> bool:
        """True for the client-facing record of a 2PC transaction."""
        return self.group == CROSS_GROUP

    @property
    def write_set(self) -> frozenset[Item]:
        """The set of items this transaction writes."""
        return frozenset(item for item, _value in self.writes)

    @property
    def is_read_only(self) -> bool:
        """Read-only transactions never enter the commit protocol.

        A transaction that *only* enqueues remote writes is not read-only:
        its sends need the durability of a log entry, so it commits through
        the protocol like any writer.
        """
        return not self.writes and not self.sends

    def reads_from(self, other: "Transaction") -> bool:
        """True if this transaction read an item *other* writes.

        This is the interference predicate of §5: if true, ``self`` cannot be
        serialized after ``other`` without re-reading.
        """
        return bool(self.read_set & other.write_set)

    def write_image(self) -> dict[str, dict[str, Any]]:
        """Writes grouped by row: ``{row_key: {attribute: value}}``."""
        image: dict[str, dict[str, Any]] = {}
        for (row, attribute), value in self.writes:
            image.setdefault(row, {})[attribute] = value
        return image

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.tid


@dataclass(frozen=True)
class TransactionStatusRecord:
    """One row of the durable transaction-status table (2PC recovery).

    Keyed by the global transaction id; written to every datacenter's
    key-value store once the commit/abort decision for a cross-group
    transaction is durable, so recovery can resolve in-doubt participant
    groups without the coordinator.
    """

    gtid: str
    committed: bool
    participants: tuple[str, ...] = ()

    @property
    def status(self) -> TransactionStatus:
        return (
            TransactionStatus.COMMITTED if self.committed
            else TransactionStatus.ABORTED
        )


def is_serializable_sequence(transactions: Iterable[Transaction]) -> bool:
    """Check the combination validity rule of §5.

    An ordered transaction list may share one log position iff no transaction
    reads an item written by any *preceding* transaction in the list (the
    list is then one-copy equivalent to the serial history in list order).
    """
    seen_writes: set[Item] = set()
    for txn in transactions:
        if txn.read_set & seen_writes:
            return False
        seen_writes |= txn.write_set
    return True


def union_write_set(transactions: Iterable[Transaction]) -> frozenset[Item]:
    """All items written by any transaction in *transactions*."""
    items: set[Item] = set()
    for txn in transactions:
        items |= txn.write_set
    return frozenset(items)


@dataclass
class TransactionOutcome:
    """What the harness records about one transaction attempt.

    ``promotions`` is the number of promotion rounds the transaction went
    through before committing or aborting (0 = decided at its first commit
    position); ``combined`` is true when it committed as a non-head member of
    a combined log entry.
    """

    transaction: Transaction
    status: TransactionStatus
    abort_reason: AbortReason | None = None
    begin_time: float = 0.0
    end_time: float = 0.0
    commit_position: int | None = None
    promotions: int = 0
    combined: bool = False
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def latency_ms(self) -> float:
        """End-to-end latency (begin → decision) in simulated ms."""
        return self.end_time - self.begin_time

    @property
    def committed(self) -> bool:
        return self.status is TransactionStatus.COMMITTED
