"""Unreliable unicast between nodes (UDP semantics).

Messages are delivered after a model-drawn one-way delay, or silently lost:
with Bernoulli probability ``loss_probability``, when either endpoint's
datacenter is down, or when the link between the two datacenters is severed.
There are no ordering or duplication guarantees — reordering arises naturally
from jittered delays.

The fault injector (:mod:`repro.failures`) manipulates the outage state; the
network itself only consults it.

**Lane affinity.**  On a lane-partitioned deployment every node carries a
lane (its entity-group shard, or the shared lane), and the network is the
*only* cross-lane channel: a delivery whose destination sits in another lane
is scheduled through the kernel's cross-lane path, which raises when the
run marked its lanes independent.  Everything lane-scoped — the jitter/loss RNG
stream, the outage and partition views, the loss-probability overrides — is
kept per lane, so a lane's behaviour is a function of its own history only;
that independence is what lets the kernel drain independent lanes one after
another and still match the single heap bit for bit.  Single-lane
deployments collapse to the pre-lane behaviour exactly (same stream names,
same state objects).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import UnknownDatacenter
from repro.net.latency import LatencyModel
from repro.net.message import Message
from repro.net.topology import Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node
    from repro.sim.env import Environment


@dataclass
class NetworkStats:
    """Counters the tests and benchmarks read after a run."""

    sent: int = 0
    delivered: int = 0
    dropped_loss: int = 0
    dropped_outage: int = 0
    dropped_partition: int = 0
    duplicated: int = 0
    by_type: dict[str, int] = field(default_factory=dict)

    @property
    def dropped(self) -> int:
        return self.dropped_loss + self.dropped_outage + self.dropped_partition


class Network:
    """The message fabric connecting every node in the deployment."""

    def __init__(
        self,
        env: "Environment",
        topology: Topology,
        latency: LatencyModel,
        loss_probability: float = 0.0,
        duplicate_probability: float = 0.0,
    ) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError(f"loss probability must be in [0, 1), got {loss_probability}")
        if not 0.0 <= duplicate_probability < 1.0:
            raise ValueError(
                f"duplicate probability must be in [0, 1), got {duplicate_probability}"
            )
        self.env = env
        self.topology = topology
        self.latency = latency
        self.loss_probability = loss_probability
        self.duplicate_probability = duplicate_probability
        self.stats = NetworkStats()
        self._nodes: dict[str, Node] = {}
        n_lanes = env.lane_count
        #: Per-lane fault views.  Lane 0's sets are also reachable through
        #: the legacy names so single-lane tests and tools see no change.
        self._down_views: list[set[str]] = [set() for _ in range(n_lanes)]
        self._severed_views: list[set[frozenset[str]]] = [
            set() for _ in range(n_lanes)
        ]
        self._down_datacenters = self._down_views[0]
        self._severed_links = self._severed_views[0]
        #: Per-lane loss overrides (the replicated injector's loss episodes
        #: set these; absent lanes fall back to the scalar attribute above).
        #: Duplication has no per-lane episode, so it stays a plain scalar.
        self._lane_loss: dict[int, float] = {}
        #: Overlapping fault windows, shared by every injector of this
        #: network: open windows per key — ``("outage", datacenter, lane)``
        #: or ``("partition", link, lane)`` — and per lane the rates of the
        #: open loss windows with the rate from before the first of them.
        #: Each entry is one lane's, mutated only from that lane's timeline.
        self._open_windows: dict[tuple, int] = {}
        self._open_losses: dict[int, list[float]] = {}
        self._loss_before: dict[int, float] = {}
        #: Per-lane jitter/loss RNG streams.  Lane 0 keeps the historic
        #: ``"net"`` name so single-lane runs reproduce existing streams.
        self._rngs = [
            env.rng.stream("net" if lane == 0 else f"net.l{lane}")
            for lane in range(n_lanes)
        ]
        self._rng = self._rngs[0]
        #: Single-lane deployments take a branch-free send path with none
        #: of the per-lane indexing (send is the network's hottest method).
        self._single_lane = n_lanes == 1
        #: ``src name -> dst name -> route``, each built on first use by
        #: :meth:`_route`.  A route is a plain tuple (it is unpacked on every
        #: send): ``(destination node, src datacenter, dst datacenter, the
        #: link's severable key, src lane or None, dst lane, draw, base)``.
        #: It holds only what membership and the latency model fix; fault
        #: state is read per send, never cached here.
        self._routes: dict[str, dict[str, tuple]] = {}

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def register(self, node: "Node") -> None:
        """Attach a node; its name must be unique in this network."""
        if node.name in self._nodes:
            raise ValueError(f"node name {node.name!r} already registered")
        self.topology.get(node.datacenter)  # validates the datacenter exists
        if not 0 <= node.lane < self.env.lane_count:
            raise ValueError(
                f"node {node.name!r} assigned to lane {node.lane}, but the "
                f"environment has {self.env.lane_count} lane(s)"
            )
        self._nodes[node.name] = node
        # A route from a bare datacenter name may now name this node.
        self._routes.clear()

    def node(self, name: str) -> "Node":
        try:
            return self._nodes[name]
        except KeyError:
            raise UnknownDatacenter(f"no node named {name!r}") from None

    # ------------------------------------------------------------------
    # Failure control (driven by repro.failures)
    # ------------------------------------------------------------------

    def _views_for(self, lane: int | None) -> range:
        return range(self.env.lane_count) if lane is None else range(lane, lane + 1)

    def take_down(self, datacenter: str, lane: int | None = None) -> None:
        """Stop all delivery to and from *datacenter*.

        ``lane`` scopes the state change to one lane's view (the replicated
        injector applies the same outage once per lane, each from that
        lane's own timeline); the default mutates every view at once, which
        is only safe outside a sharded run.
        """
        self.topology.get(datacenter)
        for view in self._views_for(lane):
            self._down_views[view].add(datacenter)

    def bring_up(self, datacenter: str, lane: int | None = None) -> None:
        """Restore delivery for *datacenter*."""
        for view in self._views_for(lane):
            self._down_views[view].discard(datacenter)

    def is_down(self, datacenter: str, lane: int = 0) -> bool:
        return datacenter in self._down_views[lane]

    def sever(self, dc_a: str, dc_b: str, lane: int | None = None) -> None:
        """Cut the link between two datacenters (both directions)."""
        self.topology.get(dc_a)
        self.topology.get(dc_b)
        for view in self._views_for(lane):
            self._severed_views[view].add(frozenset({dc_a, dc_b}))

    def heal(self, dc_a: str, dc_b: str, lane: int | None = None) -> None:
        """Restore the link between two datacenters."""
        for view in self._views_for(lane):
            self._severed_views[view].discard(frozenset({dc_a, dc_b}))

    def set_loss(self, probability: float, lane: int | None = None) -> None:
        """Set the Bernoulli loss rate (optionally for one lane's traffic;
        a single-lane network has only the one rate)."""
        if lane is None or self._single_lane:
            self.loss_probability = probability
            self._lane_loss.clear()
        else:
            self._lane_loss[lane] = probability

    def open_window(self, key: tuple) -> bool:
        """Count one more fault window open on *key*; True for the first."""
        depth = self._open_windows.get(key, 0)
        self._open_windows[key] = depth + 1
        return depth == 0

    def close_window(self, key: tuple) -> bool:
        """Count one window on *key* closed; True when none is left open."""
        depth = self._open_windows.get(key, 1) - 1
        self._open_windows[key] = depth
        return depth <= 0

    def open_loss(self, probability: float, lane: int) -> None:
        """Open a loss window in *lane*: it loses at the highest open rate."""
        rates = self._open_losses.setdefault(lane, [])
        if not rates:
            self._loss_before[lane] = self._lane_loss.get(
                lane, self.loss_probability
            )
        rates.append(probability)
        self.set_loss(max(rates), lane=lane)

    def close_loss(self, probability: float, lane: int) -> None:
        """Close a loss window; the last one restores the rate from before
        the first."""
        rates = self._open_losses[lane]
        rates.remove(probability)
        self.set_loss(max(rates) if rates else self._loss_before[lane], lane=lane)

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def _route(self, src: str, dst: str) -> tuple:
        """Resolve and remember the route for the name pair (src, dst).

        A *src* that names no node is a datacenter name: the message leaves
        from that datacenter, in the lane of the event sending it.
        """
        dst_node = self._nodes.get(dst)
        if dst_node is None:
            raise UnknownDatacenter(f"message to unknown node {dst!r}")
        src_node = self._nodes.get(src)
        if src_node is None:
            src_dc, src_lane = src, None
        else:
            src_dc, src_lane = src_node.datacenter, src_node.lane
        dst_dc = dst_node.datacenter
        draw, base = self.latency.path(src_dc, dst_dc)
        route = (dst_node, src_dc, dst_dc, frozenset({src_dc, dst_dc}),
                 src_lane, dst_node.lane, draw, base)
        self._routes.setdefault(src, {})[dst] = route
        return route

    def send(self, msg: Message) -> None:
        """Submit *msg* for (unreliable) delivery.

        The message is stamped with its destination node and is itself the
        queue entry: its ``_process`` is the arrival (re-checking the
        destination's outage state).  A duplicated message is the same
        object, scheduled twice.
        """
        stats = self.stats
        stats.sent += 1
        by_type = stats.by_type
        msg_type = msg.type
        by_type[msg_type] = by_type.get(msg_type, 0) + 1
        try:
            route = self._routes[msg.src][msg.dst]
        except KeyError:
            route = self._route(msg.src, msg.dst)
        dst, src_dc, dst_dc, link, src_lane, dst_lane, draw, base = route
        msg._node = dst
        if self._single_lane:
            # The pre-lane hot path, byte for byte: one outage set, one
            # severed set, one RNG stream, scalar loss/duplication.
            down = self._down_datacenters
            if down and (src_dc in down or dst_dc in down):
                stats.dropped_outage += 1
                return
            if self._severed_links and link in self._severed_links:
                stats.dropped_partition += 1
                return
            rng = self._rng
            if self.loss_probability and rng.random() < self.loss_probability:
                stats.dropped_loss += 1
                return
            duplicated = self.duplicate_probability and \
                rng.random() < self.duplicate_probability
            sim_schedule = self.env.sim.schedule
            sim_schedule(msg, draw(base, rng))
            if duplicated:
                # UDP may duplicate: the same message is scheduled again, on
                # a re-drawn path delay.
                stats.duplicated += 1
                sim_schedule(msg, draw(base, rng))
            return
        lane = src_lane if src_lane is not None else self.env.sim.current_lane
        down = self._down_views[lane]
        if down and (src_dc in down or dst_dc in down):
            stats.dropped_outage += 1
            return
        severed = self._severed_views[lane]
        if severed and link in severed:
            stats.dropped_partition += 1
            return
        rng = self._rngs[lane]
        loss = self._lane_loss.get(lane, self.loss_probability) \
            if self._lane_loss else self.loss_probability
        if loss and rng.random() < loss:
            stats.dropped_loss += 1
            return
        duplicate = self.duplicate_probability
        copies = 1
        if duplicate and rng.random() < duplicate:
            # UDP may duplicate: the same message is scheduled twice, each
            # time on its own (re-drawn) path delay.
            copies = 2
            stats.duplicated += 1
        sim = self.env.sim
        if dst_lane == lane:
            sim_schedule = sim.schedule
            for _copy in range(copies):
                sim_schedule(msg, draw(base, rng))
            return
        # Cross-lane: the kernel checks independence and routes the delivery.
        for _copy in range(copies):
            sim.schedule_in_lane(msg, draw(base, rng), dst_lane)
