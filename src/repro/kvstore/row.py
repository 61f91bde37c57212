"""Row versions.

A row is a key plus a set of attributes (the paper's "columns").  Each
committed write creates a new :class:`RowVersion` at a logical timestamp,
whose content is the previous latest version's merged with the write's
attributes (per-column versioning semantics, as BigTable/HBase give it).

What a version *holds* depends on the row's width:

* A version of a row narrower than :data:`WIDE_ROW` attributes holds the
  row's full image.  Its image is a few attributes, so a copy costs little,
  and a read of any attribute is one lookup in it.  Paxos state, intents
  and transaction status live here, and the acceptor decodes every one of
  its reads straight from ``attributes``.  These are state rows, which the
  store keeps at their current version only (see
  :mod:`repro.kvstore.store`), so each holds one image, not one per write.
* A version of a wide row holds only the attributes changed since the row's
  last full image, as one small cumulative dict, over a reference to that
  image, which is shared by every version after it and never mutated.  A
  transaction changes a handful of a data row's attributes, so copying the
  whole image per version would store every unchanged attribute again in
  every replica that applies the write.  A write re-images (its version
  holds a new full image and no changes) once the changes exceed
  :data:`REIMAGE_FRACTION` of the image, which bounds both the size of a
  change set and what ``attributes`` has to merge.

Either way :meth:`RowVersion.get` is at most two dict lookups (the changes,
then the image), and a read at a timestamp is still one bisection over the
row's versions.  Because every version is immutable and timestamped by log
position, a read at a past timestamp is a consistent snapshot for free — the
property the snapshot-isolation commit path (``isolation="si"``) leans on
without any additions here.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Mapping

#: The width (attribute count) from which a row's versions hold their
#: changes over a shared image instead of a full image each.
WIDE_ROW = 32
#: A wide row's write takes a new full image once its cumulative changes
#: exceed this share of the image's attributes.
REIMAGE_FRACTION = 0.25

_setattr = object.__setattr__


class RowVersion:
    """One immutable version of a row, compared by timestamp and content.

    ``RowVersion(timestamp, attributes)`` copies *attributes*; a wide one
    comes back as a version holding that image and no changes.

    Attributes
    ----------
    timestamp:
        Logical timestamp; for transactional data this is the write-ahead-log
        position of the committing transaction.
    attributes:
        Read-only mapping of attribute name to value (the full row image).
        A wide row's version builds it on demand; use :meth:`get` to read
        one attribute.
    """

    __slots__ = ("timestamp", "attributes")

    def __new__(
        cls, timestamp: float, attributes: Mapping[str, Any] = MappingProxyType({})
    ) -> "RowVersion":
        return _version(timestamp, dict(attributes))

    def get(self, attribute: str, default: Any = None) -> Any:
        """Value of *attribute* in this version, or *default*."""
        return self.attributes.get(attribute, default)

    def merged_with(self, updates: Mapping[str, Any], timestamp: float) -> "RowVersion":
        """A new version at *timestamp* with *updates* applied over this one."""
        image = self.attributes.copy()
        image.update(updates)
        return _version(timestamp, image)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RowVersion):
            return NotImplemented
        return self.timestamp == other.timestamp and self.attributes == other.attributes

    __hash__ = None  # type: ignore[assignment]  # equal by content, which is a mapping

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # Slots refuse the default unpickling path, which sets them one by
        # one; a copy is rebuilt from its full image.
        return RowVersion, (self.timestamp, dict(self.attributes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RowVersion(ts={self.timestamp}, attrs={dict(self.attributes)!r})"


class _ChangedVersion(RowVersion):
    """A wide row's version: its changes since the row's last full image,
    over that image (a private dict no caller sees).

    The ``attributes`` property below shadows the slot inherited from
    :class:`RowVersion`, which stays empty.
    """

    __slots__ = ("_changes", "_image")

    @property
    def attributes(self) -> Mapping[str, Any]:  # type: ignore[override]
        image = self._image.copy()
        image.update(self._changes)
        return MappingProxyType(image)

    def get(self, attribute: str, default: Any = None) -> Any:
        changes = self._changes
        if attribute in changes:
            return changes[attribute]
        return self._image.get(attribute, default)

    def merged_with(self, updates: Mapping[str, Any], timestamp: float) -> RowVersion:
        image = self._image
        changes = self._changes.copy()
        changes.update(updates)
        if len(changes) > len(image) * REIMAGE_FRACTION:
            image = image.copy()
            image.update(changes)
            changes = {}
        return _changed(timestamp, changes, image)


def _version(timestamp: float, image: dict[str, Any]) -> RowVersion:
    """A version holding *image*, a fresh dict nothing else holds (so it is
    frozen without another copy): full for a narrow row, the image of a
    wide one."""
    if len(image) >= WIDE_ROW:
        return _changed(timestamp, {}, image)
    version = object.__new__(RowVersion)
    _setattr(version, "timestamp", timestamp)
    _setattr(version, "attributes", MappingProxyType(image))
    return version


def _changed(timestamp: float, changes: dict[str, Any], image: dict[str, Any]) -> RowVersion:
    version = object.__new__(_ChangedVersion)
    _setattr(version, "timestamp", timestamp)
    _setattr(version, "_changes", changes)
    _setattr(version, "_image", image)
    return version
