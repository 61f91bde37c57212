"""Shard (lane) assignment for lane-partitioned deployments.

The paper's core structural claim — entity groups are independent units of
concurrency control, each with its own transaction log — is what the laned
simulation kernel exploits: every entity group's replicas (its
per-datacenter service endpoints and store partition) are pinned to one
**event lane**, while actors that span groups (unpinned clients, 2PC
coordinators and their decision instances, ad-hoc groups outside the
placement) live on the shared lane 0.  The :class:`ShardMap` owns that
assignment plus the lane-aware node-name scheme, and derives the
conservative channel graph a run's actors declare: a superset of the lane
pairs their messages can cross.  The kernel raises on a send outside it,
and may drain the lanes one after another when it is empty.

With ``shards <= 1`` everything collapses to one lane and the historic node
names (``svc:V1``, ``store:V1``), so single-lane deployments are untouched.
"""

from __future__ import annotations

from typing import Iterable, Sequence

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

        The canonical failover/proposal order every client-like actor uses
        (see :func:`repro.core.service.ordered_service_names`, which this
        generalizes per group).
        """
        lane = self.lane_of(group)
        ordered = [local] + [dc for dc in datacenters if dc != local]
        return [service_node_name(dc, lane) for dc in ordered]

    # ------------------------------------------------------------------
    # Channel derivation (the declared cross-lane traffic)
    # ------------------------------------------------------------------

    def channels_for_client(
        self, client_lane: int, reachable_groups: Iterable[str],
        cross_group: bool = False,
    ) -> set[tuple[int, int]]:
        """Lane channels a client in *client_lane* can exercise.

        Request/response traffic with every reachable group's lane, both
        directions.  A 2PC-capable client additionally reaches the shared
        lane (decision instances), and every participant group's service may
        consult the shared lane to resolve a decision (LEARN), so those
        channels are declared too.
        """
        channels: set[tuple[int, int]] = set()
        lanes = {self.lane_of(group) for group in reachable_groups}
        for lane in lanes:
            if lane != client_lane:
                channels.add((client_lane, lane))
                channels.add((lane, client_lane))
        if cross_group:
            for lane in lanes | {client_lane}:
                if lane != SHARED_LANE:
                    channels.add((lane, SHARED_LANE))
                    channels.add((SHARED_LANE, lane))
        return channels

    def channels_for_pump(self, sender_group: str) -> set[tuple[int, int]]:
        """Lane channels a delivery pump for *sender_group* can exercise.

        The pump runs in its sender group's lane (it polls that group's
        durable log) and proposes queue appends to any receiver group's
        services; it may also stall on in-doubt prepares, which never
        messages.  Receivers only ever reply.
        """
        pump_lane = self.lane_of(sender_group)
        channels: set[tuple[int, int]] = set()
        for lane in range(self.n_lanes):
            if lane != pump_lane:
                channels.add((pump_lane, lane))
                channels.add((lane, pump_lane))
        return channels

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardMap(shards={self.shards}, n_lanes={self.n_lanes})"
