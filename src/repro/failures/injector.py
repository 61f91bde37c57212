"""Scheduling faults against a running cluster.

All methods schedule effects at absolute simulated times (ms) and return
immediately; the effects fire as the simulation advances.  Every method can
be called before a run or between ``run()`` segments.  On a single-lane
cluster faults may also be scheduled from *inside* a running process; on a
lane-partitioned one declare them while the simulation is paused (a process
in one lane scheduling into another lane's timeline is exactly the
cross-lane coupling independent lanes forbid, and the kernel raises on
it).

**Sharded deployments.**  On a lane-partitioned cluster each fault is
*replicated*: the same effect is scheduled once per event lane, each firing
from that lane's own timeline against that lane's view of the network state
(outage sets, severed links, loss rates are all per-lane).  A lane therefore
observes the fault at exactly the declared simulated time relative to its
own traffic, without any cross-lane state write — which is what keeps the
lanes independent enough to drain one after another.  Process kills are not
replicated; they fire once, in the victim's lane.  On single-lane clusters
all of this collapses to the original direct mutation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import FaultScheduleError
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster


class FailureInjector:
    """Injects datacenter outages, loss episodes, partitions, and crashes.

    Edge cases, pinned:

    * A fault declared at an already-past time fires *immediately* (the
      ``max(0.0, when - now)`` clamp in :meth:`_at`), it is never silently
      dropped.
    * A zero-duration window is a no-op with a visible trace: start and end
      fire at the same timestamp in declaration order, so the network state
      is identical before and after, but both events appear in :attr:`log`.
    * Overlapping windows compose: each lane counts the windows open on a
      datacenter (outages), a link (partitions) or its traffic (loss), and
      only the **last** one to close lifts the fault.  A datacenter comes
      back up, or a link heals, when its last window ends; while loss
      windows overlap the rate is the highest open probability, and the
      rate from before the first of them returns when the last one ends.
      The counts live on the :class:`~repro.net.network.Network`, so
      windows declared through different injectors compose too.
    """

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.network = cluster.network
        self.log: list[tuple[float, str]] = []

    def _at(self, when_ms: float, action: Callable[[], None],
            description: str, lane: int | None = None) -> None:
        """Fire *action* at *when_ms* in one lane (default: the ambient one)."""
        delay = max(0.0, when_ms - self.env.now)
        wakeup = self.env.timeout(delay, lane=lane)

        def fire(_event) -> None:
            self.log.append((self.env.now, description))
            action()

        wakeup.add_callback(fire)

    def _at_every_lane(self, when_ms: float,
                       action: Callable[[int], None],
                       description: str) -> None:
        """Replicate a network-state fault into every lane's timeline.

        ``action(lane)`` must mutate only that lane's view.  The injector
        log records the lane-0 replica only (one line per declared fault).
        """
        delay = max(0.0, when_ms - self.env.now)
        for lane in range(self.env.lane_count):

            def fire(_event, lane: int = lane) -> None:
                if lane == 0:
                    self.log.append((self.env.now, description))
                action(lane)

            self.env.timeout(delay, lane=lane).add_callback(fire)

    # ------------------------------------------------------------------
    # Datacenter outages
    # ------------------------------------------------------------------

    def outage(self, datacenter: str, start_ms: float, duration_ms: float) -> None:
        """Take *datacenter* down for a window; all its traffic is dropped.

        Models the EC2-style whole-datacenter failures of §1.  The
        datacenter's store survives the outage (state is durable); only
        message delivery stops — which is exactly the paper's failure model
        for transaction tiers going offline and back online.

        Overlapping windows on one datacenter compose: each start deepens a
        per-lane refcount and each end releases one level, so the network
        comes back only when the last open window closes.
        """
        def down(lane: int) -> None:
            if self.network.open_window(("outage", datacenter, lane)):
                self.network.take_down(datacenter, lane=lane)

        def up(lane: int) -> None:
            if self.network.close_window(("outage", datacenter, lane)):
                self.network.bring_up(datacenter, lane=lane)

        self._at_every_lane(start_ms, down, f"outage start {datacenter}")
        self._at_every_lane(start_ms + duration_ms, up, f"outage end {datacenter}")

    # ------------------------------------------------------------------
    # Message loss
    # ------------------------------------------------------------------

    def loss_episode(self, probability: float, start_ms: float, duration_ms: float) -> None:
        """Raise the Bernoulli loss rate during a window, then restore it.

        While windows overlap, a lane loses at the highest open
        probability; the last window to close restores the rate the lane
        had before the first one opened.
        """
        network = self.network
        self._at_every_lane(
            start_ms, lambda lane: network.open_loss(probability, lane),
            f"loss {probability} start",
        )
        self._at_every_lane(
            start_ms + duration_ms,
            lambda lane: network.close_loss(probability, lane), "loss end",
        )

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------

    def partition(self, dc_a: str, dc_b: str, start_ms: float, duration_ms: float) -> None:
        """Sever one inter-datacenter link for a window; the link heals
        when the last window open on it (either direction) ends."""
        link = frozenset((dc_a, dc_b))

        def sever(lane: int) -> None:
            if self.network.open_window(("partition", link, lane)):
                self.network.sever(dc_a, dc_b, lane=lane)

        def heal(lane: int) -> None:
            if self.network.close_window(("partition", link, lane)):
                self.network.heal(dc_a, dc_b, lane=lane)

        self._at_every_lane(start_ms, sever, f"partition {dc_a}|{dc_b} start")
        self._at_every_lane(
            start_ms + duration_ms, heal, f"partition {dc_a}|{dc_b} end"
        )

    # ------------------------------------------------------------------
    # Crash-restart (processes die, volatile state is lost)
    # ------------------------------------------------------------------

    def crash(self, datacenter: str, start_ms: float,
              restart_after_ms: float) -> None:
        """Crash-restart *datacenter*'s service replicas (every lane).

        At ``start_ms`` each lane's service node is killed — in-flight
        handler processes and the queue delivery pumps homed there die,
        volatile state (learner caches, apply projections, leases) is
        erased — and at ``start_ms + restart_after_ms`` it restarts,
        recovering purely from durable state (the WAL + acceptor table),
        with a fresh pump for each one killed.  Each lane's replica is a
        distinct node, so the kill/restart actions are lane-local; like
        the network faults, one log line per declared crash.
        """
        cluster = self.cluster
        # Arm process tracking on the victim's nodes at declaration time:
        # a crash must kill in-flight handler processes, and tracking is
        # opt-in so fault-free runs keep delivery tracking-free.
        for lane in range(self.env.lane_count):
            cluster.lane_services[(datacenter, lane)].node.track_processes()
        self._at_every_lane(
            start_ms,
            lambda lane: cluster.crash_service(datacenter, lane),
            f"crash {datacenter}",
        )
        self._at_every_lane(
            start_ms + restart_after_ms,
            lambda lane: cluster.restart_service(datacenter, lane),
            f"restart {datacenter}",
        )

    # ------------------------------------------------------------------
    # Client crashes
    # ------------------------------------------------------------------

    def kill_process_at(self, process: Process, when_ms: float,
                        reason: str = "injected crash") -> None:
        """Kill a client process mid-flight (§4.1: commit may land anyway).

        Fires once, in the victim's own lane — a kill is a process-local
        event, not network state.

        On a lane-partitioned kernel this must be declared while the
        simulation is paused (or from the victim's own lane): scheduling
        into *another* lane's timeline mid-run is exactly the cross-lane
        coupling lane independence forbids, and raises a typed
        :class:`~repro.errors.FaultScheduleError` here instead of tripping
        the kernel's isolation check.
        """
        if self.env.lane_count > 1:
            executing = self.env.sim.executing_lane
            if executing is not None and executing != process.lane:
                raise FaultScheduleError(
                    f"kill_process_at({process.name!r}) invoked mid-run from "
                    f"lane {executing} against lane {process.lane} on a "
                    f"sharded kernel; declare process kills before the run "
                    f"(or between run() segments) — cross-lane scheduling "
                    f"breaks lane independence"
                )
        self._at(when_ms, lambda: process.kill(reason),
                 f"kill {process.name}", lane=process.lane)
