"""Per-datacenter view of the replicated write-ahead log.

Algorithm 1 stores the Paxos state for log position *P* in the local
key-value store and the APPLY step writes the chosen value into that same
row.  :class:`LogReplica` owns the row-key scheme, the chosen-entry index,
and the bookkeeping for applying committed writes to data rows.

All methods here are synchronous (they touch the in-memory store directly);
the Transaction Service wraps the latency-bearing path through its
:class:`~repro.kvstore.service.StoreAccessor` and uses this class for
bookkeeping and for the catch-up logic's queries.  Invariant checkers and
tests also read logs through this class.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.kvstore.store import MultiVersionStore
from repro.wal.entry import LogEntry

#: Attribute names of a Paxos state row (Algorithm 1 line 2).
ATTR_NEXT_BAL = "nextBal"
ATTR_BALLOT = "ballotNumber"
ATTR_VALUE = "value"
ATTR_CHOSEN = "chosen"


def paxos_row_key(group: str, position: int) -> str:
    """Key of the Paxos state row (= log cell) for *group* at *position*."""
    return f"_paxos/{group}/{position:010d}"


def paxos_group_prefix(group: str) -> str:
    """Prefix shared by every Paxos row key of *group*'s instances."""
    return f"_paxos/{group}/"


def data_row_key(group: str, row: str) -> str:
    """Key of a data row, namespaced by transaction group."""
    return f"data/{group}/{row}"


class LogReplica:
    """One datacenter's replica of one transaction group's log.

    Reuse contract: construct **once per (store, group) and keep it**.  The
    instance remembers the contiguous chosen head and the entries below it,
    so :meth:`read_position` costs O(entries chosen since the last call); a
    fresh instance re-walks from position 0, one store read per position.
    That memory is sound for the object's whole lifetime, faults included:
    it holds only chosen entries, which are durable (``_paxos/`` rows
    survive :meth:`MultiVersionStore.erase_volatile`) and immutable (R1).
    The one volatile field is the ``applied_through`` watermark — an owner
    whose data rows can be erased under it must drop the instance on crash
    (:meth:`TransactionService.crash_reset` does).  A queue pump's
    instances go with the pump, which dies with its home replica.
    """

    def __init__(self, store: MultiVersionStore, group: str) -> None:
        self.store = store
        self.group = group
        self._chosen_cache: dict[int, LogEntry] = {}
        self._applied_through = 0
        self._read_position_hint = 0

    # ------------------------------------------------------------------
    # Chosen-entry queries
    # ------------------------------------------------------------------

    def chosen_entry(self, position: int) -> LogEntry | None:
        """The decided entry at *position*, or ``None`` if not yet known here."""
        cached = self._chosen_cache.get(position)
        if cached is not None:
            return cached
        version = self.store.read(paxos_row_key(self.group, position))
        if version is None or not version.get(ATTR_CHOSEN):
            return None
        entry = version.get(ATTR_VALUE)
        if entry is not None:
            self._chosen_cache[position] = entry
        return entry

    def is_chosen(self, position: int) -> bool:
        """True if this replica knows the decided value for *position*."""
        return self.chosen_entry(position) is not None

    def read_position(self) -> int:
        """The last *contiguous* chosen position known locally.

        This is "the position of the last written log entry" a client's
        ``begin`` pins its reads to (transaction protocol step 1).  Position
        0 is the empty log.
        """
        position = self._read_position_hint
        while self.is_chosen(position + 1):
            position += 1
        self._read_position_hint = position
        return position

    def max_chosen_position(self) -> int:
        """Highest chosen position known locally (may exceed read_position
        when intermediate decisions were missed and not yet caught up)."""
        position = self.read_position()
        probe = position + 1
        # Bounded scan: gaps are short-lived (catch-up fills them), so walk
        # until a run of unknown positions.
        misses = 0
        highest = position
        while misses < 8:
            if self.is_chosen(probe):
                highest = probe
                misses = 0
            else:
                misses += 1
            probe += 1
        return highest

    def entries(self) -> dict[int, LogEntry]:
        """All chosen entries known to this replica, keyed by position."""
        found: dict[int, LogEntry] = {}
        prefix = paxos_group_prefix(self.group)
        for key in self.store.keys(prefix):
            position = int(key[len(prefix):])
            entry = self.chosen_entry(position)
            if entry is not None:
                found[position] = entry
        return found

    # ------------------------------------------------------------------
    # Applying committed writes to data rows (§3.2)
    # ------------------------------------------------------------------

    @property
    def applied_through(self) -> int:
        """All data writes of entries up to this position have been applied."""
        return self._applied_through

    def pending_applications(self, through: int) -> Iterator[tuple[int, LogEntry]]:
        """Entries that must be applied to serve a read at *through*.

        Raises ``LookupError`` if an entry in the range is unknown locally —
        the caller must run catch-up first (§4.1 "Fault Tolerance and
        Recovery").
        """
        for position in range(self._applied_through + 1, through + 1):
            entry = self.chosen_entry(position)
            if entry is None:
                raise LookupError(
                    f"{self.store.name}: log position {position} unknown; catch-up required"
                )
            yield position, entry

    def mark_applied(self, position: int) -> None:
        """Advance the applied watermark; positions must arrive in order."""
        if position != self._applied_through + 1:
            raise ValueError(
                f"out-of-order apply: position {position}, applied through "
                f"{self._applied_through}"
            )
        self._applied_through = position

    def record_chosen(self, position: int, entry: LogEntry) -> None:
        """Record a decided value learned out-of-band (catch-up/finalizer).

        Writes the chosen value into the Paxos row exactly as an APPLY
        message would.  No-op if this replica already knows the decision.
        Bumps the acceptor's ``seq`` guard so in-flight conditional writes
        cannot overwrite the decision (see
        :mod:`repro.paxos.acceptor`, deviation 2); safe to do synchronously
        because this method performs a single read-modify-write with no
        intervening yields.
        """
        if self.is_chosen(position):
            return
        key = paxos_row_key(self.group, position)
        current = self.store.read(key)
        seq = (current.get("seq") if current is not None else None) or 0
        self.store.write(key, {ATTR_VALUE: entry, ATTR_CHOSEN: True, "seq": seq + 1})
        self._chosen_cache[position] = entry

    def apply_entry(self, position: int, entry: LogEntry) -> None:
        """Write *entry*'s merged image into the data rows at *position*.

        Must be called in position order; the Transaction Service guards this
        with a lock.  Idempotent application is unnecessary because the lock
        plus the ``applied_through`` watermark guarantee exactly-once.
        """
        for row, attributes in entry.write_image().items():
            self.store.write(data_row_key(self.group, row), attributes, timestamp=position)
        self.mark_applied(position)

    def apply_through(self, through: int) -> None:
        """Synchronously apply all pending entries up to *through*."""
        for position, entry in list(self.pending_applications(through)):
            self.apply_entry(position, entry)

    # ------------------------------------------------------------------
    # Data reads at a log position (property A2)
    # ------------------------------------------------------------------

    def read_data(self, row: str, attribute: str, position: int, default: Any = None) -> Any:
        """Value of ``row.attribute`` as of log *position*.

        The caller must have applied the log through *position* first.
        """
        if position > self._applied_through:
            raise LookupError(
                f"read at position {position} but applied through {self._applied_through}"
            )
        return self.store.read_attribute(
            data_row_key(self.group, row), attribute, timestamp=position, default=default
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LogReplica(group={self.group!r}, store={self.store.name!r}, "
            f"applied_through={self._applied_through})"
        )
