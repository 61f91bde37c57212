"""History representation for serializability analysis.

A transaction is reduced to what Definition 1 cares about: *which version it
read of each item* (expressed as the writer transaction, ``None`` for the
initial version) and *which items it wrote*.  Operation order inside a
transaction does not affect one-copy serializability for the
read-before-write-per-item patterns our transaction tier produces, so it is
not represented.

``INITIAL`` stands for the imaginary transaction that wrote every item's
initial version; it precedes everything in any serial order.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.errors import HistoryError
from repro.model import Item

if TYPE_CHECKING:  # pragma: no cover
    from repro.wal.entry import LogEntry

#: Writer id of the initial version of every item.
INITIAL: str | None = None


@dataclass(frozen=True, slots=True)
class HistoryTxn:
    """One committed transaction, reduced for serializability analysis.

    ``reads`` maps each item the transaction read to the transaction that
    wrote the version it observed (``None`` = initial version).  ``writes``
    names each item the transaction wrote once, in first-write order.
    """

    tid: str
    reads: tuple[tuple[Item, str | None], ...] = ()
    writes: tuple[Item, ...] = ()

    @property
    def read_items(self) -> frozenset[Item]:
        return frozenset(item for item, _writer in self.reads)

    def reads_map(self) -> dict[Item, str | None]:
        return dict(self.reads)


@dataclass
class MVHistory:
    """A multi-version history with an explicit version order per item.

    ``version_order[item]`` lists the writers of *item*'s versions from
    oldest to newest, *excluding* the initial version (which precedes all).
    In our system the log order induces the version order; hand-built test
    histories supply their own.
    """

    transactions: dict[str, HistoryTxn] = field(default_factory=dict)
    version_order: dict[Item, list[str]] = field(default_factory=dict)

    def add(self, txn: HistoryTxn) -> None:
        if txn.tid in self.transactions:
            raise HistoryError(f"duplicate transaction id {txn.tid!r}")
        self.transactions[txn.tid] = txn

    def validate(self) -> None:
        """Sanity checks: every read names a real writer of that item, the
        version order only lists real writers, every writer is ordered."""
        for txn in self.transactions.values():
            for item, writer in txn.reads:
                if writer is INITIAL:
                    continue
                source = self.transactions.get(writer)
                if source is None:
                    raise HistoryError(
                        f"{txn.tid} reads {item} from unknown transaction {writer!r}"
                    )
                if item not in source.writes:
                    raise HistoryError(
                        f"{txn.tid} reads {item} from {writer}, which never wrote it"
                    )
        for item, order in self.version_order.items():
            if len(set(order)) != len(order):
                raise HistoryError(f"version order of {item} repeats a writer: {order}")
            for tid in order:
                source = self.transactions.get(tid)
                if source is None or item not in source.writes:
                    raise HistoryError(
                        f"version order of {item} lists {tid}, which never wrote it"
                    )
        # Every order lists distinct real writers, so it covers all of them
        # iff it is as long as the item has writers.
        writer_count: dict[Item, int] = {}
        for txn in self.transactions.values():
            for item in txn.writes:
                writer_count[item] = writer_count.get(item, 0) + 1
        for item, count in writer_count.items():
            if count > len(self.version_order.get(item, ())):
                ordered = set(self.version_order.get(item, []))
                missing = {
                    txn.tid for txn in self.transactions.values()
                    if item in txn.writes and txn.tid not in ordered
                }
                if missing:
                    raise HistoryError(
                        f"version order of {item} misses writers {sorted(missing)}"
                    )

    def version_index(self, item: Item, writer: str | None) -> int:
        """Position of *writer*'s version of *item* (initial version = 0)."""
        if writer is INITIAL:
            return 0
        order = self.version_order.get(item, [])
        try:
            return order.index(writer) + 1
        except ValueError:
            raise HistoryError(f"{writer} is not a writer of {item}") from None

    # ------------------------------------------------------------------
    # Construction from a finished run
    # ------------------------------------------------------------------

    @classmethod
    def from_log(
        cls,
        entries: Mapping[int, "LogEntry"],
        initial_image: Mapping[Item, object] | None = None,
    ) -> "MVHistory":
        """Derive the *observed* committed history from the write-ahead log.

        The log order defines the version order.  The reads-from relation is
        reconstructed from each transaction's ``read_snapshot``: the writer
        of the value it actually observed.

        Attribution rule per read ``(item, value)`` for a reader pinned to
        ``read_position`` *rp*: the most recent writer of exactly that value
        at a position ≤ *rp* (values may repeat — think bank balances — and
        the latest matching writer before the pin is the version a correct
        execution serves); failing that, the initial image (writer
        ``None``); failing that, the *latest* writer of that value anywhere
        in the log — a stale/future read that the MVSG test will then
        surface as a cycle rather than this constructor papering over it.
        Values that match nothing raise :class:`HistoryError` — the reader
        observed data no committed transaction wrote.

        The only index is three parallel lists per written item, one slot
        per write in log order: positions (bisected for the pin), writers
        and values.  The last fallback scans an item's values backwards, so
        it costs nothing unless a read is stale or from the future.
        """
        initial = initial_image or {}
        history = cls()
        version_order = history.version_order
        # index[item] = (positions, writers, values), one slot per write.
        index: dict[Item, tuple[list[int], list[str], list[object]]] = {}
        for position in sorted(entries):
            for txn in entries[position].transactions:
                for item, value in txn.writes:
                    slots = index.get(item)
                    if slots is None:
                        slots = index[item] = ([], [], [])
                    positions, writers, values = slots
                    positions.append(position)
                    writers.append(txn.tid)
                    values.append(value)

        def attribute(reader, item: Item, value: object) -> str | None:
            # The latest write at or before the read pin decides: if its
            # value matches, that writer is the observed version; if it
            # differs, the reader did not observe the pinned state and we
            # fall through to the bug-surfacing paths.
            slots = index.get(item)
            if slots is not None:
                positions, writers, values = slots
                at = bisect_right(positions, reader.read_position) - 1
                if at >= 0 and values[at] == value:
                    return writers[at]
            if item in initial and initial[item] == value:
                return INITIAL
            if item not in initial and value is None:
                return INITIAL
            if slots is not None:
                for at in range(len(values) - 1, -1, -1):
                    stored = values[at]
                    if stored is value or stored == value:
                        return writers[at]
            raise HistoryError(
                f"{reader.tid} read {item}={value!r}, which no committed "
                "transaction wrote and is not initial"
            )

        for position in sorted(entries):
            for txn in entries[position].transactions:
                reads = tuple(
                    (item, attribute(txn, item, value))
                    for item, value in sorted(
                        txn.read_snapshot, key=lambda pair: pair[0]
                    )
                )
                # One version per written item, even if written twice.
                written = tuple(dict.fromkeys(item for item, _value in txn.writes))
                history.add(HistoryTxn(txn.tid, reads, written))
                for item in written:
                    version_order.setdefault(item, []).append(txn.tid)
        return history

    def tids(self) -> list[str]:
        return list(self.transactions)

    def __len__(self) -> int:
        return len(self.transactions)


def serial_reads_from(order: Iterable[HistoryTxn]) -> dict[str, dict[Item, str | None]]:
    """Reads-from relation of the *serial* execution of ``order``.

    Executes the transactions one at a time against a single-copy store and
    records, for each transaction, the writer of each item it reads.  Used by
    the brute-force checker to compare against a candidate history.
    """
    last_writer: dict[Item, str | None] = {}
    result: dict[str, dict[Item, str | None]] = {}
    for txn in order:
        result[txn.tid] = {
            item: last_writer.get(item, INITIAL) for item in txn.read_items
        }
        for item in txn.writes:
            last_writer[item] = txn.tid
    return result
