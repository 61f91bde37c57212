"""Shard (lane) assignment for lane-partitioned deployments.

The paper's core structural claim — entity groups are independent units of
concurrency control, each with its own transaction log — is what the laned
simulation kernel exploits: every entity group's replicas (its
per-datacenter service endpoints and store partition) are pinned to one
**event lane**, while actors that span groups (unpinned clients, 2PC
coordinators and their decision instances, ad-hoc groups outside the
placement) live on the shared lane 0.  The :class:`ShardMap` owns that
assignment plus the lane-aware node-name scheme: every actor — client,
delivery pump, service — addresses services through it.  A run whose
actors never leave their group's lane marks the lanes independent
(:func:`repro.harness.experiment.prepare_run`); the kernel then raises on a
cross-lane send and may drain the lanes one after another.

With ``shards <= 1`` everything collapses to one lane and the historic node
names (``svc:V1``, ``store:V1``), so single-lane deployments are untouched.
"""

from __future__ import annotations

from typing import Sequence

#: The lane shared by clients, coordinators, decision groups, and any group
#: outside the deployment placement.
SHARED_LANE = 0


def service_node_name(datacenter: str, lane: int = SHARED_LANE) -> str:
    """Canonical node name of the Transaction Service for one lane."""
    if lane == SHARED_LANE:
        return f"svc:{datacenter}"
    return f"svc:{datacenter}:{lane}"


def store_name(datacenter: str, lane: int = SHARED_LANE) -> str:
    """Canonical name of one lane's key-value store partition."""
    if lane == SHARED_LANE:
        return f"store:{datacenter}"
    return f"store:{datacenter}:{lane}"


class ShardMap:
    """Maps entity groups to event lanes.

    ``shards`` group lanes (1..shards) carve the placement's groups into
    contiguous blocks; lane 0 is shared.  Groups the map does not know
    (2PC decision instances, ad-hoc preloads) route to the shared lane.
    """

    def __init__(self, groups: Sequence[str], shards: int = 1) -> None:
        if shards < 0:
            raise ValueError(f"shards must be >= 0, got {shards}")
        groups = list(groups)
        if shards > 1 and not groups:
            raise ValueError("a multi-shard map needs the placement's groups")
        self.shards = max(1, min(shards, len(groups) or 1))
        self.single_lane = self.shards <= 1
        self.n_lanes = 1 if self.single_lane else self.shards + 1
        self._lanes: dict[str, int] = {}
        if not self.single_lane:
            for index, group in enumerate(groups):
                self._lanes[group] = 1 + (index * self.shards) // len(groups)

    def lane_of(self, group: str) -> int:
        """The event lane of *group* (shared lane for unknown groups)."""
        return self._lanes.get(group, SHARED_LANE)

    # ------------------------------------------------------------------
    # Node naming / routing
    # ------------------------------------------------------------------

    def service_name(self, datacenter: str, group: str) -> str:
        """The service node that owns *group*'s log in *datacenter*."""
        return service_node_name(datacenter, self.lane_of(group))

    def ordered_service_names(
        self, datacenters: Sequence[str], local: str, group: str
    ) -> list[str]:
        """All of *group*'s service replicas, the local datacenter first.

        The canonical failover/proposal order every client-like actor
        (Transaction Clients, queue delivery pumps) uses.
        """
        lane = self.lane_of(group)
        ordered = [local] + [dc for dc in datacenters if dc != local]
        return [service_node_name(dc, lane) for dc in ordered]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardMap(shards={self.shards}, n_lanes={self.n_lanes})"
