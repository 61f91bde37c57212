"""Waitable events for the simulation kernel.

An :class:`Event` is the unit of synchronization: processes ``yield`` events
and resume when the event *fires* (succeeds or fails).  Composite conditions
(:class:`AnyOf`, :class:`AllOf`) let protocol code express "wait for a quorum
of replies or a timeout, whichever comes first" without threads.

Lifecycle::

    pending --succeed(value)/fail(exc)--> triggered --queue pop--> processed
    pending --hand_off(value): tail position, clear instant------> processed

Callbacks registered on a pending or triggered event run when the event is
processed; callbacks added after processing run at the current instant via a
relay that rides the queue, so late waiters never deadlock and execution
order stays queue-driven.  Late registrations made while a relay is still
pending join that relay: they run adjacently at its queue position, in
registration order — one queue entry for the batch, not one per waiter.

:meth:`Event.succeed` queues a zero-delay entry, so the waiters run after
whatever else the current event still does and after every entry already
due at this instant.  That is the safe default: the caller needs to know
nothing about what follows it.  :meth:`Event.hand_off` is the same wake-up
made as a call: when (1) the caller is in *tail position* — nothing after
the call, in the event being processed, schedules, draws or mutates (so a
waiter that hands off in turn must be the last waiter of what woke it) — and
(2) the *instant is clear* — no heap entry is due at ``now`` — the entry
``succeed`` would push is the unique minimum of the heap and the very next
pop, so running the waiters in the caller's frame is the queue order by
construction.  The caller promises (1); ``hand_off`` checks (2) itself and
falls back to the queue when it fails.  The heap is thereby left holding
simulated delays (deliveries, store latencies, think times, one armed
deadline per node and timeout length), not same-instant relays.

Events are the most-allocated objects in a simulation (every timeout, every
store operation, every request), so every class in this module uses
``__slots__`` and keeps ``__init__`` to plain attribute stores; the queue
entries nothing waits on (message deliveries, deadlines) are not events at
all: see :class:`Notification`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.env import Environment

_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on."""

    __slots__ = ("env", "callbacks", "_value", "_ok", "_late_relay")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = _PENDING
        self._ok: bool | None = None
        self._late_relay: Event | None = None

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value (succeeded or failed)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if self._value is _PENDING:
            raise RuntimeError("event has not been triggered yet")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or the failure exception)."""
        if self._value is _PENDING:
            raise RuntimeError("event has not been triggered yet")
        return self._value

    # ------------------------------------------------------------------
    # Triggering
    # ------------------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Mark the event successful and schedule its callbacks."""
        if self._value is not _PENDING:
            raise RuntimeError("event already triggered")
        self._ok = True
        self._value = value
        self.env.sim.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Mark the event failed; waiters see the exception raised."""
        if self._value is not _PENDING:
            raise RuntimeError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.env.sim.schedule(self)
        return self

    def hand_off(self, value: Any = None, ok: bool = True) -> None:
        """Trigger the event and run its waiters now if the queue would.

        Only for callers in tail position (see the module docstring).  With
        no heap entry due at the current instant the callbacks run in the
        caller's frame; otherwise this is :meth:`succeed` (or, with
        ``ok=False`` and an exception as *value*, :meth:`fail`): the entry
        is queued behind whatever is already due now.
        """
        if self._value is not _PENDING:
            raise RuntimeError("event already triggered")
        self._ok = ok
        self._value = value
        sim = self.env.sim
        # Index 0 of a heap entry is its time on every kernel, and during a
        # lane-by-lane drain ``_queue`` is the draining lane's own heap.
        queue = sim._queue
        if queue and queue[0][0] <= sim._now:
            sim.schedule(self)
            return
        callbacks = self.callbacks
        self.callbacks = None
        for callback in callbacks:
            callback(self)

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------

    def add_callback(self, callback: Callable[[Event], None]) -> None:
        """Register *callback* to run when the event is processed.

        If the event was already processed the callback is invoked via a
        zero-delay relay event so that execution order stays queue-driven.
        Consecutive late registrations share one relay (one queue entry, one
        allocation) until it fires; they still run in registration order at
        the current instant.
        """
        if self.callbacks is not None:
            self.callbacks.append(callback)
            return
        relay = self._late_relay
        if relay is None or relay.callbacks is None:
            relay = Event(self.env)
            relay._ok = True
            relay._value = None
            self.env.sim.schedule(relay)
            self._late_relay = relay
        relay.callbacks.append(lambda _e: callback(self))

    def _process(self) -> None:
        """Run callbacks.  Called by the simulator when popped."""
        callbacks = self.callbacks
        if callbacks is None:
            return
        self.callbacks = None
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Notification:
    """Base for fire-and-forget queue entries nothing ever waits on.

    Not an :class:`Event`: the kernel asks of a popped entry only that it
    has ``_process()``, and nothing registers a callback on, reads the value
    of, or reaches the environment through a message delivery or a request
    deadline.  These are the hottest allocations in the simulation — a
    :class:`~repro.net.message.Message` is its own delivery — so a subclass
    declares only the slots it needs: no ``__init__`` to chain to, no dead
    slot.
    """

    __slots__ = ()

    def _process(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class Timeout(Event):
    """An event that fires ``delay`` ms after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None,
                 lane: int | None = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self._late_relay = None
        self.delay = delay
        if lane is None:
            env.sim.schedule(self, delay)
        else:  # pinned to a specific lane (replicated fault injector)
            env.sim.schedule_in_lane(self, delay, lane)

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise RuntimeError("Timeout events fire automatically")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise RuntimeError("Timeout events fire automatically")


class Condition(Event):
    """Base for composite events over a fixed set of child events.

    The condition evaluates after any child fires; when the predicate holds
    the condition succeeds with a dict mapping each *fired* child event to its
    value.  If any child fails before the predicate holds, the condition
    fails with that child's exception.
    """

    __slots__ = ("events", "_fired")

    def __init__(self, env: "Environment", events: list[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        self._fired: dict[Event, Any] = {}
        if not self.events:
            # An empty condition is vacuously satisfied.
            self.succeed({})
            return
        for event in self.events:
            if event.env is not env:
                raise ValueError("all events must belong to the same environment")
            event.add_callback(self._on_child)

    def _predicate(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._fired[event] = event.value
        if self._predicate():
            self.succeed(dict(self._fired))


class AnyOf(Condition):
    """Succeeds as soon as any child event succeeds."""

    __slots__ = ()

    def _predicate(self) -> bool:
        return len(self._fired) >= 1


class AllOf(Condition):
    """Succeeds when all child events have succeeded."""

    __slots__ = ()

    def _predicate(self) -> bool:
        return len(self._fired) == len(self.events)
