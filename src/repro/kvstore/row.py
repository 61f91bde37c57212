"""Row versions.

A row is a key plus a set of attributes (the paper's "columns").  Each
committed write creates a new :class:`RowVersion` at a logical timestamp; the
version stores the *full* attribute image (writes merge onto the previous
latest version), which makes attribute reads at a timestamp O(log n) in the
number of versions with no per-attribute chain walking.  This is equivalent
to BigTable/HBase per-column versioning for every access pattern the
transaction tier performs.

Because every version is immutable and timestamped by log position, a read
at a past timestamp is a consistent snapshot for free — the property the
snapshot-isolation commit path (``isolation="si"``/``"ssi"``) leans on
without any additions here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping


@dataclass(frozen=True)
class RowVersion:
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

    def merged_with(self, updates: Mapping[str, Any], timestamp: float) -> "RowVersion":
        """A new version at *timestamp* with *updates* applied over this image.

        The merged image is a fresh dict nothing else holds, so the new
        version takes it as is instead of copying it again in
        ``__post_init__``: one copy per version, on every store write.
        """
        image = self.attributes.copy()
        image.update(updates)
        version = object.__new__(RowVersion)
        setattr_ = object.__setattr__
        setattr_(version, "timestamp", timestamp)
        setattr_(version, "attributes", MappingProxyType(image))
        return version

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RowVersion(ts={self.timestamp}, attrs={dict(self.attributes)!r})"
