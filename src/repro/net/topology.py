"""Datacenters, regions, and the paper's cluster presets.

The evaluation (§6) places nodes in three Virginia availability zones, one
Oregon datacenter, and one Northern California datacenter, and reports
round-trip times between them.  ``cluster_preset`` reconstructs the exact
datacenter combinations the figures use from their letter codes (``"VV"``,
``"COV"``, ``"VVVOC"``, ...): ``V`` draws the next unused Virginia zone,
``O`` is Oregon, ``C`` is California.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UnknownDatacenter

#: Region identifiers used by the latency matrix.
VIRGINIA = "virginia"
OREGON = "oregon"
CALIFORNIA = "california"

#: Round-trip times in milliseconds, as reported in §6 of the paper.
#: "Round trip time between nodes in Virginia and Oregon or California takes
#:  approximately 90 milliseconds.  Inter-region communication, Virginia to
#:  Virginia, is significantly faster at approximately 1.5 millisecond ...
#:  Round trip time between California and Oregon is about 20 milliseconds."
PAPER_RTT_MS: dict[frozenset[str], float] = {
    frozenset({VIRGINIA}): 1.5,
    frozenset({OREGON}): 1.5,
    frozenset({CALIFORNIA}): 1.5,
    frozenset({VIRGINIA, OREGON}): 90.0,
    frozenset({VIRGINIA, CALIFORNIA}): 90.0,
    frozenset({OREGON, CALIFORNIA}): 20.0,
}

#: RTT between two endpoints inside the same datacenter (client to its local
#: Transaction Service).  The paper does not report this; sub-millisecond is
#: typical for one availability zone.
INTRA_DC_RTT_MS = 0.3


@dataclass(frozen=True)
class Datacenter:
    """A named datacenter placed in a region."""

    name: str
    region: str

    def __str__(self) -> str:
        return self.name


class Topology:
    """The set of datacenters participating in a deployment."""

    def __init__(self, datacenters: list[Datacenter]) -> None:
        if not datacenters:
            raise ValueError("a topology needs at least one datacenter")
        names = [dc.name for dc in datacenters]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate datacenter names: {names}")
        self.datacenters = list(datacenters)
        self._by_name = {dc.name: dc for dc in datacenters}

    @property
    def names(self) -> list[str]:
        """Datacenter names, in declaration order."""
        return [dc.name for dc in self.datacenters]

    @property
    def size(self) -> int:
        """Number of datacenters (the paper's *D*)."""
        return len(self.datacenters)

    @property
    def majority(self) -> int:
        """Votes needed for a majority (the paper's *M* = ⌊D/2⌋ + 1)."""
        return self.size // 2 + 1

    def get(self, name: str) -> Datacenter:
        """Look up a datacenter by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownDatacenter(
                f"datacenter {name!r} not in topology {self.names}"
            ) from None

    def region_of(self, name: str) -> str:
        """Region of the named datacenter."""
        return self.get(name).region

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Topology({self.names})"


def cluster_preset(code: str) -> Topology:
    """Build the paper's cluster for a letter code such as ``"COV"``.

    Each ``V`` consumes the next Virginia availability zone (``V1``, ``V2``,
    ``V3`` — the paper has three), ``O`` is the Oregon datacenter, and ``C``
    is Northern California.  Codes are order-insensitive for latency purposes
    but the datacenter order follows the code.

    >>> cluster_preset("VVV").names
    ['V1', 'V2', 'V3']
    >>> cluster_preset("COV").names
    ['C', 'O', 'V1']
    """
    datacenters: list[Datacenter] = []
    virginia_used = 0
    for letter in code.upper():
        if letter == "V":
            virginia_used += 1
            if virginia_used > 3:
                raise ValueError("the paper's testbed has only three Virginia zones")
            datacenters.append(Datacenter(f"V{virginia_used}", VIRGINIA))
        elif letter == "O":
            datacenters.append(Datacenter("O", OREGON))
        elif letter == "C":
            datacenters.append(Datacenter("C", CALIFORNIA))
        else:
            raise ValueError(f"unknown datacenter code {letter!r} in {code!r}")
    return Topology(datacenters)
