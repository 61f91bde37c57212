"""The event queue at the heart of the simulation.

:class:`Simulator` owns the virtual clock and a priority queue of scheduled
events.  Everything that takes simulated time — message deliveries, store
operations, think times — is an entry on this queue (an
:class:`~repro.sim.events.Event`, or a bare
:class:`~repro.sim.events.Notification` where nothing waits).  The one
delay that is *not* an entry of its own is a request's loss-detection
deadline: almost every one is dead by the time it is due, so a node keeps
them in a FIFO per timeout length and the queue holds one entry per node and
length — the oldest deadline that was still live when it was armed, under
the key :meth:`Simulator.reserve` stamped for it at request time (see
``repro.net.node``).

Events scheduled for the same instant are processed in scheduling order
(FIFO), enforced with a monotone sequence number, which makes runs
deterministic regardless of hash seeds or dict ordering.

What the queue does *not* hold is most same-instant wake-ups.  A process
resumed by a finished store operation or gather, and a message handler's
first step and return, would each be the very next pop when nothing else is
due at that instant; those are handed off in the frame of the event that
caused them (:meth:`~repro.sim.events.Event.hand_off`) and ride the queue
only on a tie.  Wake-ups whose waker is not in tail position — a spawned
process's first step, a lock grant, ``succeed()`` in general — still do.

This module is the hottest code in the repository — every message hop, store
operation and think time passes through :meth:`Simulator.schedule` and
the :meth:`Simulator.run` loop — so it trades a little readability for
allocation- and call-free inner loops: heap entries stay plain ``(time, seq,
event)`` tuples (tuple comparison happens in C, unlike ``Event.__lt__``
would), the sequence counter is a bare int, and ``run`` drains the queue
without going through :meth:`step`.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING

from repro.errors import SimulationFinished

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.events import Event


class Simulator:
    """A deterministic discrete-event scheduler.

    The simulator is intentionally dumb: it pops the next ``(time, seq,
    event)`` triple and asks the event to run its callbacks.  All protocol
    semantics live in the events and processes scheduled onto it.

    This class is the single-lane kernel.  Multi-lane deployments (see
    :class:`repro.sim.shard.ShardMap`) run on :class:`LanedSimulator`, which
    shares this class's public surface so protocol code never knows which
    kernel it runs on.
    """

    __slots__ = ("_now", "_queue", "_seq", "_processed_events")

    #: Lane API shared by every kernel.  The single-lane kernel is pinned to
    #: lane 0 so lane-aware callers (network, cluster) need no branches.
    n_lanes = 1
    lane_events = None

    def __init__(self) -> None:
        self._now: float = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._processed_events = 0

    @property
    def current_lane(self) -> int:
        """Lane of the event being processed (always 0 on this kernel)."""
        return 0

    def schedule_in_lane(self, event: "Event", delay: float, lane: int) -> None:
        """Lane-aware scheduling; the single-lane kernel accepts only lane 0."""
        if lane != 0:
            raise ValueError(f"single-lane simulator has no lane {lane}")
        self.schedule(event, delay)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time, in milliseconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Total number of events processed so far (for diagnostics)."""
        return self._processed_events

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Schedule *event* to be processed ``delay`` ms from now.

        A negative delay is a programming error; the kernel refuses it rather
        than silently reordering the past.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule event in the past (delay={delay})")
        self._seq = seq = self._seq + 1
        heappush(self._queue, (self._now + delay, seq, event))

    def reserve(self, delay: float) -> tuple:
        """Stamp the key :meth:`schedule` would stamp now, without pushing.

        The key takes its place in the scheduling order at this moment —
        the sequence counter advances exactly as for a push — but the queue
        holds nothing until :meth:`push_reserved` enters an event under it,
        which may be any time before the key is due.  For delays that are
        mostly never needed (``repro.net.node``'s deadline FIFOs).
        """
        if delay < 0:
            raise ValueError(f"cannot schedule event in the past (delay={delay})")
        self._seq = seq = self._seq + 1
        return (self._now + delay, seq)

    def push_reserved(self, key: tuple, event: Event) -> None:
        """Enter *event* under a key :meth:`reserve` stamped earlier.

        *event* pops exactly where a ``schedule`` at reservation time would
        have put it; a key already in the past is refused like a negative
        delay.
        """
        if key[0] < self._now:
            raise ValueError(f"reserved key is in the past (due {key[0]}, "
                             f"now {self._now})")
        heappush(self._queue, (*key, event))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``float('inf')`` if none."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def step(self) -> None:
        """Process exactly one event.

        Raises :class:`SimulationFinished` if the queue is empty.
        """
        if not self._queue:
            raise SimulationFinished("event queue is empty")
        when, _seq, event = heappop(self._queue)
        self._now = when
        self._processed_events += 1
        event._process()

    def run(self, until: float | None = None) -> None:
        """Run until the queue drains or the clock passes *until*.

        When *until* is given, the clock is advanced to exactly *until* even
        if the queue drains earlier, so back-to-back ``run`` calls observe a
        monotone clock.
        """
        queue = self._queue
        processed = 0
        if until is None:
            try:
                while queue:
                    when, _seq, event = heappop(queue)
                    self._now = when
                    processed += 1
                    event._process()
            finally:
                self._processed_events += processed
            return
        if until < self._now:
            raise ValueError(
                f"cannot run backwards: until={until} < now={self._now}"
            )
        try:
            while queue and queue[0][0] <= until:
                when, _seq, event = heappop(queue)
                self._now = when
                processed += 1
                event._process()
        finally:
            self._processed_events += processed
        self._now = until


class LanedSimulator(Simulator):
    """The kernel for lane-partitioned deployments.

    One heap whose entries are ordered by the **canonical merge key**
    ``(time, scheduling lane, lane-local seq)`` instead of a global sequence
    number.  The lane-local seq is assigned by the lane whose event performed
    the scheduling action, so the key of every event is a pure function of
    that lane's (deterministic) local history — never of how lanes happen to
    interleave.

    Lanes may only interact through :meth:`schedule_in_lane` (the network's
    cross-lane deliveries); on the single heap such a send is correct by
    construction, since every event keeps its canonical key.  When the
    harness marks the lanes :attr:`independent_lanes` — each entity group
    has its own log, and groups that share no transaction never interact —
    no lane can ever observe another, so the order in which *different*
    lanes' events run is semantically irrelevant, and a cross-lane send
    raises.  With :attr:`lane_by_lane` also set, :meth:`run` exploits
    exactly that case: it splits the heap by target lane and drains each
    lane to completion in lane order.  Every event keeps its canonical key
    and every lane fires its events in the same order as on the single
    heap, so the execution is identical by construction; the small per-lane
    heaps are simply cheaper to drain than one big one.
    """

    __slots__ = ("_seqs", "_lane", "n_lanes", "independent_lanes",
                 "lane_by_lane", "lane_events")

    def __init__(self, n_lanes: int) -> None:
        super().__init__()
        if n_lanes < 1:
            raise ValueError(f"need at least one lane, got {n_lanes}")
        self.n_lanes = n_lanes
        self._seqs = [0] * n_lanes
        #: Lane of the event being processed; ``None`` outside the run loop
        #: (setup code then schedules into the *target* lane's sequence).
        self._lane: int | None = None
        #: No event of one lane may schedule into another: set by the
        #: harness for runs whose actors never leave their group's lane.
        self.independent_lanes = False
        #: Drain lane by lane whenever the lanes are independent
        #: (``engine="sharded"``); ``False`` keeps the single heap always.
        self.lane_by_lane = False
        #: Events processed per lane by the lane-by-lane drain; ``None``
        #: while every run so far went through the single heap.
        self.lane_events: list[int] | None = None

    @property
    def current_lane(self) -> int:
        return 0 if self._lane is None else self._lane

    @property
    def executing_lane(self) -> int | None:
        """Lane of the event being processed, ``None`` while paused.

        Unlike :attr:`current_lane` this does not collapse the paused state
        to lane 0 — the fault injector uses it to tell a (legal) paused-time
        cross-lane declaration from an (illegal) mid-run one.
        """
        return self._lane

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        if delay < 0:
            raise ValueError(f"cannot schedule event in the past (delay={delay})")
        lane = self._lane
        if lane is None:  # paused: setup code schedules as lane 0
            lane = 0
        self._seqs[lane] = seq = self._seqs[lane] + 1
        heappush(self._queue, (self._now + delay, lane, seq, lane, event))

    def reserve(self, delay: float) -> tuple:
        if delay < 0:
            raise ValueError(f"cannot schedule event in the past (delay={delay})")
        lane = self.current_lane
        self._seqs[lane] = seq = self._seqs[lane] + 1
        return (self._now + delay, lane, seq, lane)

    def schedule_in_lane(self, event: Event, delay: float, lane: int) -> None:
        """Schedule *event* to execute in *lane* (cross-lane deliveries).

        The canonical key is stamped by the scheduling lane — at setup time
        (between runs) by the target lane, so pre-run spawns into lane L
        are part of L's own history; the event runs with ``current_lane ==
        lane``.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule event in the past (delay={delay})")
        if not 0 <= lane < self.n_lanes:
            raise ValueError(f"no lane {lane} (have {self.n_lanes})")
        klane = lane if self._lane is None else self._lane
        if klane != lane and self.independent_lanes:
            raise RuntimeError(
                f"lane isolation violated: lane {klane} sent into lane "
                f"{lane} but the lanes are independent"
            )
        self._seqs[klane] = seq = self._seqs[klane] + 1
        heappush(self._queue, (self._now + delay, klane, seq, lane, event))

    def step(self) -> None:
        if not self._queue:
            raise SimulationFinished("event queue is empty")
        when, _klane, _seq, lane, event = heappop(self._queue)
        self._now = when
        self._lane = lane
        self._processed_events += 1
        try:
            event._process()
        finally:
            self._lane = None

    def run(self, until: float | None = None) -> None:
        if until is not None and until < self._now:
            raise ValueError(f"cannot run backwards: until={until} < now={self._now}")
        if self.lane_by_lane and self.independent_lanes:
            self._run_lane_by_lane(until)
            return
        queue = self._queue
        processed = 0
        try:
            while queue and (until is None or queue[0][0] <= until):
                when, _klane, _seq, lane, event = heappop(queue)
                self._now = when
                self._lane = lane
                processed += 1
                event._process()
        finally:
            self._lane = None
            self._processed_events += processed
        if until is not None:
            self._now = until

    def _run_lane_by_lane(self, until: float | None) -> None:
        """Drain each lane to completion (or to *until*), in lane order.

        While lane L drains, ``_queue`` *is* L's heap: the isolation check
        in :meth:`schedule_in_lane` guarantees every push made by L's events
        targets L.  Whatever *until* leaves behind is merged back into one
        heap, so the next ``run`` (or ``step``) sees every pending event.
        """
        lanes: list[list] = [[] for _ in range(self.n_lanes)]
        for entry in self._queue:
            lanes[entry[3]].append(entry)
        if self.lane_events is None:
            self.lane_events = [0] * self.n_lanes
        latest = self._now
        try:
            for lane, queue in enumerate(lanes):
                heapify(queue)
                self._queue = queue
                self._lane = lane
                processed = 0
                try:
                    if until is None:
                        while queue:
                            when, _klane, _seq, _lane, event = heappop(queue)
                            self._now = when
                            processed += 1
                            event._process()
                    else:
                        while queue and queue[0][0] <= until:
                            when, _klane, _seq, _lane, event = heappop(queue)
                            self._now = when
                            processed += 1
                            event._process()
                finally:
                    self._processed_events += processed
                    self.lane_events[lane] += processed
                if self._now > latest:
                    latest = self._now
        finally:
            self._lane = None
            self._queue = [entry for queue in lanes for entry in queue]
            heapify(self._queue)
        # One clock for all lanes: where the single heap would have stopped.
        self._now = latest if until is None else until
