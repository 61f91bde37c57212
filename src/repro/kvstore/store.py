"""The multi-version store with the paper's three atomic operations.

The simulation is single-threaded and cooperative, so each method executes
atomically by construction — exactly the atomicity contract §2.2 demands of
the key-value store.  The Paxos acceptor (Algorithm 1) performs *all* of its
state transitions through :meth:`check_and_write`, so the conditional-write
primitive is genuinely load-bearing in this reproduction, not decorative.

:meth:`MultiVersionStore.read` at a timestamp is also the *snapshot read*
every isolation level shares (``isolation`` axis, :mod:`repro.config`): a
transaction pins its read position at begin and every read resolves against
that prefix of versions.  1SR and SI differ only in commit-time
validation — neither needs a different read primitive.

Each row is a list of :class:`~repro.kvstore.row.RowVersion` objects,
oldest first.  A data row keeps every version, since its history is what a
snapshot read at a past timestamp is made of.  A *state* row
(:attr:`MultiVersionStore.STATE_PREFIXES`: Paxos acceptor state, queue
tables, intents, transaction status) keeps only its current version, as
Algorithm 1's acceptor keeps one triple per log position and overwrites it
on every ``checkAndWrite``: a write replaces the version, and a read at a
timestamp below it raises :class:`~repro.errors.StateHistoryError`.  Nothing
reads a state row at a timestamp; crash recovery reads only its latest
state.

A version of a narrow row (Paxos state, intents, transaction status) holds
its full image: a few attributes, decoded whole on every read.  A version
of a wide row (the workload's data rows) holds only what its writes changed
since the row's last full image, over that shared image, so a transaction
touching a few of a hundred attributes does not store the other ninety-odd
again in every replica.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Any, Mapping

from repro.errors import RowVersionError, StateHistoryError
from repro.kvstore.row import RowVersion

#: A version's sort key: a C getter, not a Python lambda per comparison.
_TIMESTAMP = attrgetter("timestamp")


class MultiVersionStore:
    """An in-memory multi-version key-value store for one datacenter."""

    #: Key prefixes of state rows, which keep only their current version:
    #: the acceptor table (``_paxos/``), the queue tables (``_queue/``),
    #: durable intents (``_meta/``) and transaction status
    #: (``_txnstatus/``).  Only data rows are read at a timestamp.  Each
    #: prefix starts with ``_``, which :meth:`write` tests first.
    STATE_PREFIXES: tuple[str, ...] = ("_paxos/", "_queue/", "_meta/", "_txnstatus/")

    def __init__(self, name: str = "kvstore") -> None:
        self.name = name
        self._rows: dict[str, list[RowVersion]] = {}
        #: Every row key, sorted, for :meth:`keys`; built on first use and
        #: dropped whenever a key is created or erased.
        self._sorted_keys: list[str] | None = None
        self.op_counts: dict[str, int] = {"read": 0, "write": 0, "check_and_write": 0}

    # ------------------------------------------------------------------
    # The paper's API (§2.2)
    # ------------------------------------------------------------------

    def read(self, key: str, timestamp: float | None = None) -> RowVersion | None:
        """Most recent version of *key* at or before *timestamp*.

        With ``timestamp=None`` returns the most recent version.  Returns
        ``None`` when the row does not exist (or had no version early
        enough) — the paper leaves this case to the caller.  A state row
        keeps only its current version, so a timestamp below that version
        raises :class:`StateHistoryError` instead.
        """
        self.op_counts["read"] += 1
        versions = self._rows.get(key)
        if not versions:
            return None
        if timestamp is None:
            return versions[-1]
        index = bisect_right(versions, timestamp, key=_TIMESTAMP)
        if index == 0:
            if key.startswith(self.STATE_PREFIXES):
                raise StateHistoryError(key, timestamp, versions[0].timestamp)
            return None
        return versions[index - 1]

    def write(
        self,
        key: str,
        attributes: Mapping[str, Any],
        timestamp: float | None = None,
    ) -> float:
        """Create a new version of *key*; returns the timestamp used.

        Per the paper: "If a version with greater timestamp exists, an error
        is returned" — surfaced here as :class:`RowVersionError`.  Writing at
        a timestamp that already exists replaces nothing and is likewise an
        error (the write-ahead log guarantees each position is written once
        per replica).  With ``timestamp=None`` a timestamp greater than every
        existing version is generated.

        The new version's content is the previous latest version's merged
        with *attributes* (per-column versioning semantics): a narrow row's
        version holds the merged image, a wide row's only its changes over
        a shared image (see :mod:`repro.kvstore.row`).  Since a timestamp at
        or below the latest one is refused, a new version is always the
        row's newest: a data row's is appended, a state row's
        (:attr:`STATE_PREFIXES`) replaces the one it keeps.  Either way the
        old version object is left as it was, for readers still holding it.
        """
        self.op_counts["write"] += 1
        versions = self._rows.get(key)
        if versions:
            latest = versions[-1]
            if timestamp is None:
                timestamp = latest.timestamp + 1
            elif timestamp <= latest.timestamp:
                raise RowVersionError(key, timestamp, latest.timestamp)
            # Every state prefix starts with "_" and no data key does: a data
            # write pays one character test, not four prefix tests.
            if key[:1] == "_" and key.startswith(self.STATE_PREFIXES):
                versions[-1] = latest.merged_with(attributes, timestamp)
            else:
                versions.append(latest.merged_with(attributes, timestamp))
            return timestamp
        if timestamp is None:
            timestamp = 1
        self._rows[key] = [RowVersion(timestamp=timestamp, attributes=attributes)]
        self._sorted_keys = None
        return timestamp

    def check_and_write(
        self,
        key: str,
        test_attribute: str,
        test_value: Any,
        attributes: Mapping[str, Any],
        timestamp: float | None = None,
    ) -> bool:
        """Atomic conditional write (the paper's ``checkAndWrite``).

        If the *latest* version of the row has ``test_attribute ==
        test_value``, performs :meth:`write` and returns ``True``; otherwise
        returns ``False`` and writes nothing.  A missing row (or missing
        attribute) compares as ``None``, which is what lets a caller create
        initial state with ``test_value=None``.  The test reads the one
        attribute through ``get``, so it never builds a wide row's image.
        """
        self.op_counts["check_and_write"] += 1
        latest = self._rows.get(key)
        current = latest[-1].get(test_attribute) if latest else None
        if current != test_value:
            return False
        self.write(key, attributes, timestamp)
        return True

    # ------------------------------------------------------------------
    # Introspection used by invariant checkers and tests
    # ------------------------------------------------------------------

    def read_attribute(
        self, key: str, attribute: str, timestamp: float | None = None, default: Any = None
    ) -> Any:
        """Convenience: attribute value at a timestamp (or *default*)."""
        version = self.read(key, timestamp)
        if version is None:
            return default
        return version.get(attribute, default)

    def versions(self, key: str) -> list[RowVersion]:
        """All versions of *key*, oldest first (copy; safe to inspect).

        A state row's list is its one current version.
        """
        return list(self._rows.get(key, []))

    # ------------------------------------------------------------------
    # Crash-restart: the durable / volatile split
    # ------------------------------------------------------------------

    #: Key prefixes that survive a replica crash.  ``_paxos/`` is the WAL +
    #: acceptor table (Algorithm 1's promised/accepted state — the paper
    #: stores it *in* the key-value store, which is the durable layer);
    #: ``_meta/`` holds small durable intents (lease incarnations, the
    #: leased leader's head-position intent).  Both are state rows, so what
    #: survives is each row's current version: the only one it keeps.
    DURABLE_PREFIXES: tuple[str, ...] = ("_paxos/", "_meta/")

    def erase_volatile(
        self, durable_prefixes: tuple[str, ...] | None = None
    ) -> int:
        """Simulate a crash: drop every version a restart would lose.

        Durable rows (``durable_prefixes``, default :data:`DURABLE_PREFIXES`)
        keep every version they hold.  Everything else keeps only its
        ``timestamp <= 0`` versions — the preloaded base image, which stands
        in for the durable backing files a fresh process maps in; versions
        written during the run (``timestamp > 0``) are the volatile apply
        *projection* of the WAL and are erased, to be rebuilt by log replay.
        Returns the number of versions erased, which counts a non-durable
        state row (one version) once.
        """
        prefixes = (
            self.DURABLE_PREFIXES if durable_prefixes is None
            else durable_prefixes
        )
        erased = 0
        for key in list(self._rows):
            if key.startswith(prefixes):
                continue
            versions = self._rows[key]
            kept = [v for v in versions if v.timestamp <= 0]
            erased += len(versions) - len(kept)
            if kept:
                self._rows[key] = kept
            else:
                del self._rows[key]
                self._sorted_keys = None
        return erased

    def latest_timestamp(self, key: str) -> float | None:
        """Timestamp of the newest version of *key*, or ``None``."""
        versions = self._rows.get(key)
        return versions[-1].timestamp if versions else None

    def keys(self, prefix: str = "") -> list[str]:
        """Row keys starting with *prefix* (default: every key), sorted.

        The keys sharing a prefix are one contiguous run of the sorted key
        list, found by two bisections instead of a test per key.  (The
        length check also catches a row deleted behind the store's back, as
        tests forging a lost durable row do.)
        """
        keys = self._sorted_keys
        if keys is None or len(keys) != len(self._rows):
            keys = self._sorted_keys = sorted(self._rows)
        if not prefix:
            return list(keys)
        width = len(prefix)
        low = bisect_left(keys, prefix)
        high = bisect_right(keys, prefix, low, key=lambda key: key[:width])
        return keys[low:high]

    def __contains__(self, key: str) -> bool:
        return key in self._rows and bool(self._rows[key])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MultiVersionStore({self.name!r}, rows={len(self._rows)})"
