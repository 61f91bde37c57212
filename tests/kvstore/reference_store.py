"""The multi-version store as it was before its hot-path rewrite: the
reference :mod:`tests.kvstore.test_store_oracle` runs the store against.

Kept verbatim apart from the class names: ``insort`` with a Python ``lambda``
key on every write, a bisection with the same lambda on every read at a
timestamp, a row image copied twice per version, and ``keys`` testing
``startswith`` on every key.  Slow and obviously right.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping

from repro.errors import RowVersionError


@dataclass(frozen=True)
class ReferenceRowVersion:
    """One immutable version of a row.

    Attributes
    ----------
    timestamp:
        Logical timestamp; for transactional data this is the write-ahead-log
        position of the committing transaction.
    attributes:
        Read-only mapping of attribute name to value (full row image).
    """

    timestamp: float
    attributes: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Freeze the attribute map so callers cannot mutate a stored version.
        object.__setattr__(self, "attributes", MappingProxyType(dict(self.attributes)))

    def get(self, attribute: str, default: Any = None) -> Any:
        """Value of *attribute* in this version, or *default*."""
        return self.attributes.get(attribute, default)

    def merged_with(self, updates: Mapping[str, Any], timestamp: float) -> "ReferenceRowVersion":
        """A new version at *timestamp* with *updates* applied over this image."""
        image = dict(self.attributes)
        image.update(updates)
        return ReferenceRowVersion(timestamp=timestamp, attributes=image)


class ReferenceStore:
    """An in-memory multi-version key-value store for one datacenter."""

    def __init__(self, name: str = "kvstore") -> None:
        self.name = name
        self._rows: dict[str, list[ReferenceRowVersion]] = {}
        self.op_counts: dict[str, int] = {"read": 0, "write": 0, "check_and_write": 0}

    # ------------------------------------------------------------------
    # The paper's API (§2.2)
    # ------------------------------------------------------------------

    def read(self, key: str, timestamp: float | None = None) -> ReferenceRowVersion | None:
        """Most recent version of *key* at or before *timestamp*.

        With ``timestamp=None`` returns the most recent version.  Returns
        ``None`` when the row does not exist (or had no version early
        enough) — the paper leaves this case to the caller.
        """
        self.op_counts["read"] += 1
        versions = self._rows.get(key)
        if not versions:
            return None
        if timestamp is None:
            return versions[-1]
        index = bisect_right(versions, timestamp, key=lambda v: v.timestamp)
        if index == 0:
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

        The new version's image is the previous latest image merged with
        *attributes* (per-column versioning semantics).
        """
        self.op_counts["write"] += 1
        versions = self._rows.setdefault(key, [])
        latest = versions[-1] if versions else None
        if timestamp is None:
            timestamp = (latest.timestamp + 1) if latest is not None else 1
        elif latest is not None and timestamp <= latest.timestamp:
            raise RowVersionError(key, timestamp, latest.timestamp)
        if latest is not None:
            version = latest.merged_with(attributes, timestamp)
        else:
            version = ReferenceRowVersion(timestamp=timestamp, attributes=dict(attributes))
        insort(versions, version, key=lambda v: v.timestamp)
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
        initial state with ``test_value=None``.
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

    def versions(self, key: str) -> list[ReferenceRowVersion]:
        """All versions of *key*, oldest first (copy; safe to inspect)."""
        return list(self._rows.get(key, []))

    # ------------------------------------------------------------------
    # Crash-restart: the durable / volatile split
    # ------------------------------------------------------------------

    #: Key prefixes that survive a replica crash.  ``_paxos/`` is the WAL +
    #: acceptor table (Algorithm 1's promised/accepted state — the paper
    #: stores it *in* the key-value store, which is the durable layer);
    #: ``_meta/`` holds small durable intents (lease incarnations, the
    #: leased leader's head-position intent).
    DURABLE_PREFIXES: tuple[str, ...] = ("_paxos/", "_meta/")

    def erase_volatile(
        self, durable_prefixes: tuple[str, ...] | None = None
    ) -> int:
        """Simulate a crash: drop every version a restart would lose.

        Durable rows (``durable_prefixes``, default :data:`DURABLE_PREFIXES`)
        keep every version.  Everything else keeps only its ``timestamp <= 0``
        versions — the preloaded base image, which stands in for the durable
        backing files a fresh process maps in; versions written during the
        run (``timestamp > 0``) are the volatile apply *projection* of the
        WAL and are erased, to be rebuilt by log replay.  Returns the number
        of versions erased.
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
        return erased

    def latest_timestamp(self, key: str) -> float | None:
        """Timestamp of the newest version of *key*, or ``None``."""
        versions = self._rows.get(key)
        return versions[-1].timestamp if versions else None

    def keys(self, prefix: str = "") -> list[str]:
        """Row keys starting with *prefix* (default: every key), sorted."""
        return sorted(key for key in self._rows if key.startswith(prefix))

    def __contains__(self, key: str) -> bool:
        return key in self._rows and bool(self._rows[key])
