"""Scheduling faults against a running cluster.

All methods schedule effects at absolute simulated times (ms) and return
immediately; the effects fire as the simulation advances.  Every method can
be called before a run or between ``run()`` segments.  On a single-lane
cluster faults may also be scheduled from *inside* a running process; on a
lane-partitioned one declare them while the simulation is paused (a process
in one lane scheduling into another lane's timeline is exactly the
cross-lane coupling the declared channel graph forbids, and the kernel
raises on it).

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
    * Overlapping outage windows on one datacenter are *refcounted*: the
      datacenter comes back up only when the **last** open window ends.
      (Without the count, the first window's end would revive a datacenter
      a second window still holds down.)  Partitions are set-based — two
      overlapping windows on the same link collapse to one membership, so
      the earliest ``heal`` restores the link; refcounting covers the
      outage case the declarative schedules actually generate.
    """

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.network = cluster.network
        self.log: list[tuple[float, str]] = []
        #: Open outage windows per (datacenter, lane) — the overlap
        #: refcount.  Mutated only by the scheduled callbacks, i.e. in the
        #: key's own lane, so lanes never share a counter.
        self._outage_depth: dict[tuple[str, int], int] = {}

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
            key = (datacenter, lane)
            depth = self._outage_depth.get(key, 0)
            self._outage_depth[key] = depth + 1
            if depth == 0:
                self.network.take_down(datacenter, lane=lane)

        def up(lane: int) -> None:
            key = (datacenter, lane)
            depth = self._outage_depth.get(key, 1) - 1
            self._outage_depth[key] = depth
            if depth <= 0:
                self.network.bring_up(datacenter, lane=lane)

        self._at_every_lane(start_ms, down, f"outage start {datacenter}")
        self._at_every_lane(start_ms + duration_ms, up, f"outage end {datacenter}")

    # ------------------------------------------------------------------
    # Message loss
    # ------------------------------------------------------------------

    def loss_episode(self, probability: float, start_ms: float, duration_ms: float) -> None:
        """Raise the Bernoulli loss rate during a window, then restore it."""
        if self.env.lane_count == 1:
            previous = self.network.loss_probability

            def raise_loss() -> None:
                self.network.loss_probability = probability

            def restore() -> None:
                self.network.loss_probability = previous

            self._at(start_ms, raise_loss, f"loss {probability} start")
            self._at(start_ms + duration_ms, restore, "loss end")
            return
        # Per-lane overrides; the pre-episode value is captured at
        # declaration time, exactly as the single-lane closure does.
        previous_by_lane = {
            lane: self.network._lane_loss.get(
                lane, self.network.loss_probability
            )
            for lane in range(self.env.lane_count)
        }
        self._at_every_lane(
            start_ms,
            lambda lane: self.network.set_loss(probability, lane=lane),
            f"loss {probability} start",
        )
        self._at_every_lane(
            start_ms + duration_ms,
            lambda lane: self.network.set_loss(previous_by_lane[lane], lane=lane),
            "loss end",
        )

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------

    def partition(self, dc_a: str, dc_b: str, start_ms: float, duration_ms: float) -> None:
        """Sever one inter-datacenter link for a window."""
        self._at_every_lane(
            start_ms,
            lambda lane: self.network.sever(dc_a, dc_b, lane=lane),
            f"partition {dc_a}|{dc_b} start",
        )
        self._at_every_lane(
            start_ms + duration_ms,
            lambda lane: self.network.heal(dc_a, dc_b, lane=lane),
            f"partition {dc_a}|{dc_b} end",
        )

    # ------------------------------------------------------------------
    # Crash-restart (processes die, volatile state is lost)
    # ------------------------------------------------------------------

    def crash_restart(
        self,
        what: str,
        kill_ms: float,
        kill: Callable[[], None],
        restart_ms: float | None = None,
        restart: Callable[[], None] | None = None,
        lane: int | None = None,
    ) -> None:
        """The generic kill/restart pair: *kill* fires at ``kill_ms`` and
        *restart* (when given) at ``restart_ms``, both in *lane*.

        Queue-pump crashes use it (its one caller is
        ``repro.failures.schedule._install_pump_crash``: kill the pump
        process, start a fresh pump).  Service-replica crashes do not:
        :meth:`crash` schedules them on every lane through
        :meth:`_at_every_lane`.
        """
        self._at(kill_ms, kill, f"crash {what}", lane=lane)
        if restart is not None:
            if restart_ms is None:
                raise FaultScheduleError(
                    f"crash_restart({what!r}) has a restart action but no "
                    f"restart_ms"
                )
            self._at(restart_ms, restart, f"restart {what}", lane=lane)

    def crash(self, datacenter: str, start_ms: float,
              restart_after_ms: float) -> None:
        """Crash-restart *datacenter*'s service replicas (every lane).

        At ``start_ms`` each lane's service node is killed — in-flight
        handler processes die, volatile state (learner caches, apply
        projections, leases) is erased — and at ``start_ms +
        restart_after_ms`` it restarts, recovering purely from durable
        state (the WAL + acceptor table).  Each lane's replica is a
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
