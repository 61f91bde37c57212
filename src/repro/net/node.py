"""Nodes: endpoints with typed handlers and quorum gathering.

A :class:`Node` is anything that sends or receives messages — a Transaction
Client or a Transaction Service.  Incoming requests dispatch to handlers
registered per message type; handlers may be plain functions (instantaneous)
or generators (simulation processes, e.g. a service that must touch its
key-value store before answering).

A request to one destination (:meth:`Node.request`: a client's begin and
reads, the fast-path claim, the leased-leader commit) waits in a
:class:`Reply` slot: the first reply settles it, or the loss-detection
timeout (2 s in the paper) settles it with ``None``.  A broadcast
(:meth:`Node.request_many`) uses :class:`Gather`, which implements the
vote-collection discipline of Algorithm 2: broadcast to all datacenters,
then wait until

* every destination answered, or
* a caller-supplied quorum predicate holds **and** a short *grace* window has
  passed (the paper notes that "in practice, when a Transaction Client sends
  a prepare message, it will receive responses from more than a simple
  majority" — the grace window is how the simulation reproduces that), or
* the loss-detection timeout expires.

Either way the request sits in its node's pending table under its request
id until it settles, and a delivered response settles it straight from
:meth:`Message._process <repro.net.message.Message._process>`; only
requests reach :meth:`Node.deliver` and a handler.  The network resolves
each (src, dst) name pair to a route once (:meth:`Network._route
<repro.net.network.Network._route>`), so a send looks up no node.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from types import GeneratorType
from typing import TYPE_CHECKING, Any, Callable

from repro.net.message import Message, _response_types
from repro.sim.events import _PENDING, Event, Notification
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network
    from repro.sim.env import Environment

Handler = Callable[[Message], Any]


class _Deadline(Notification):
    """Fires a :class:`Gather`'s grace window, as a queue entry of its own.

    The grace window is short and usually still open when it is due, so it
    is worth a heap entry; the long loss-detection timeout is not (see
    :class:`_DeadlineFifo`).
    """

    __slots__ = ("_gather",)

    def __init__(self, gather: "Gather") -> None:
        self._gather = gather

    def _process(self) -> None:
        self._gather._finish()


class _DeadlineFifo(Notification):
    """One node's loss-detection deadlines of one length, in the order set.

    Nearly every request is answered long before its (2 s) timeout, so a
    heap entry per request is an entry that sits in the queue for two
    simulated seconds to do nothing.  Deadlines of one length come due in
    the order they were set — ``now + length`` is monotone in ``now`` and
    the sequence number breaks ties — so they wait here instead, each with
    the heap key the kernel reserved for it at request time, and only the
    oldest one that was unsettled when armed is in the heap, under its own
    key, represented by this object.

    When it pops, it drops that entry and every settled one behind it,
    re-arms at the next entry's reserved key — even one due at this very
    instant: events keyed between the two must run first — and last, in
    tail position (``_finish`` hands off), fires the request it was armed
    for (a :class:`Reply` or a :class:`Gather`) unless that settled
    meanwhile.  A live deadline thus fires at exactly the ``(time, seq)`` a
    heap entry of its own would have; a dead one costs a ``popleft``
    instead of a pop.
    """

    __slots__ = ("_sim", "_waiting")

    def __init__(self, sim) -> None:
        self._sim = sim
        #: ``(reserved heap key, request)``; the head is the one in the heap.
        self._waiting: deque[tuple[tuple, Reply | Gather]] = deque()

    def add(self, request: "Reply | Gather", timeout_ms: float) -> None:
        key = self._sim.reserve(timeout_ms)
        waiting = self._waiting
        if not waiting:
            self._sim.push_reserved(key, self)
        elif key < waiting[-1][0]:
            # One node's requests are all stamped by its own lane; a caller
            # outside it (setup code on a laned kernel) would break the order.
            raise RuntimeError("deadline reserved out of order")
        waiting.append((key, request))

    def _process(self) -> None:
        waiting = self._waiting
        _key, request = waiting.popleft()
        while waiting:
            key, behind = waiting[0]
            if not behind._done:
                self._sim.push_reserved(key, self)
                break
            waiting.popleft()
        request._finish()


class Gather(Event):
    """Collects responses to a broadcast until a completion rule fires.

    The event's value is the list of response :class:`Message` envelopes
    received so far (possibly fewer than a quorum — callers must check).

    *deadlines* is the requesting node's registry of :class:`_DeadlineFifo`
    by timeout length; the gather joins (or opens) the one for
    ``timeout_ms``.  The grace window, armed once ``enough`` holds, is a
    plain :class:`_Deadline` on the heap.

    A gather completes in tail position — :meth:`add` is the last thing a
    response's delivery (``Message._process``) does, and a deadline does
    nothing after firing — so its waiters are handed the result in place
    (:meth:`~repro.sim.events.Event.hand_off`) instead of through a
    same-instant queue entry.

    There is one per broadcast, so the constructor is flat, as
    :class:`_HandlerProcess`'s is: it writes :class:`Event`'s slots itself
    (``tests/sim/test_slot_drift.py`` fails if a slot is left unset).
    """

    __slots__ = ("responses", "_expected", "_enough", "_grace_ms",
                 "_grace_armed", "_done", "_answered", "_pending",
                 "_request_id")

    def __init__(
        self,
        env: "Environment",
        expected: int,
        enough: Callable[[list[Message]], bool] | None,
        timeout_ms: float,
        grace_ms: float,
        deadlines: "dict[float, _DeadlineFifo]",
        pending: "dict[int, Gather] | None" = None,
        request_id: int = 0,
    ) -> None:
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._late_relay = None
        self.responses: list[Message] = []
        self._expected = expected
        self._enough = enough
        self._grace_ms = grace_ms
        self._grace_armed = False
        self._done = False
        self._answered: set[str] = set()
        #: The requester's correlation table and this gather's key in it
        #: (:meth:`Node.request_many`); the gather enters it here and leaves
        #: it on finish.
        self._pending = pending
        self._request_id = request_id
        fifo = deadlines.get(timeout_ms)
        if fifo is None:
            fifo = deadlines[timeout_ms] = _DeadlineFifo(env.sim)
        fifo.add(self, timeout_ms)
        if pending is not None:
            pending[request_id] = self

    def add(self, response: Message) -> None:
        """Record one response; may complete the gather.

        At most one response per source counts: the network may duplicate
        messages (UDP), and a duplicated LAST VOTE must not count as two
        votes toward a quorum.
        """
        if self._done:
            return
        answered = self._answered
        src = response.src
        if src in answered:
            return
        answered.add(src)
        responses = self.responses
        responses.append(response)
        if len(responses) >= self._expected:
            self._finish()
            return
        enough = self._enough
        if enough is not None and not self._grace_armed and enough(responses):
            if self._grace_ms <= 0:
                self._finish()
                return
            self._grace_armed = True
            self.env.sim.schedule(_Deadline(self), self._grace_ms)

    def _finish(self) -> None:
        if self._done:
            return
        self._done = True
        if self._pending is not None:
            self._pending.pop(self._request_id, None)
        self.hand_off(list(self.responses))


class Reply(Event):
    """The reply slot of a single-destination request (:meth:`Node.request`).

    The event's value is the reply :class:`Message`, or ``None`` when the
    loss-detection deadline fired first.  The first copy of the reply
    settles the slot and takes it out of the requester's correlation table,
    so a duplicated or late copy finds no slot and is dropped; a crash that
    clears the table leaves the deadline to settle it with ``None``.  Like
    :class:`Gather` it waits in its node's :class:`_DeadlineFifo` and
    settles in tail position (by hand-off), but it keeps no answered-set
    and no list: one destination answers at most once.

    There is one per request, so the constructor is flat
    (``tests/sim/test_slot_drift.py`` fails if a slot is left unset).
    """

    __slots__ = ("_done", "_pending", "_request_id")

    def __init__(self, env: "Environment", timeout_ms: float,
                 deadlines: "dict[float, _DeadlineFifo]",
                 pending: "dict[int, Any]", request_id: int) -> None:
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._late_relay = None
        self._done = False
        self._pending = pending
        self._request_id = request_id
        fifo = deadlines.get(timeout_ms)
        if fifo is None:
            fifo = deadlines[timeout_ms] = _DeadlineFifo(env.sim)
        fifo.add(self, timeout_ms)
        pending[request_id] = self

    def add(self, response: Message) -> None:
        """Settle with *response*; only reached through the pending table."""
        self._done = True
        del self._pending[self._request_id]
        self.hand_off(response)

    def _finish(self) -> None:
        """The deadline: settle with ``None`` unless a reply came first."""
        if self._done:
            return
        self._done = True
        self._pending.pop(self._request_id, None)
        self.hand_off(None)


#: What a handler's first step is resumed with: nothing, successfully.
_FIRST_STEP = Event(None)  # type: ignore[arg-type]
_FIRST_STEP._ok = True
_FIRST_STEP._value = None


class _HandlerProcess(Process):
    """The process of a message handler that returned a generator.

    :meth:`Node.deliver` spawns it as its last act, and a handler only ever
    waits on events of its own (its store operations, gathers, lock grants
    and timeouts), so being resumed is the last thing the waking event
    does.  Both ends are therefore in tail position: the first step is
    taken in ``deliver``'s frame instead of from a bootstrap event, and a
    normal return is handed off (the reply goes out from the frame of the
    handler's last step).  Failures and kills stay queue-driven like any
    process's.

    There is one per handled request, so the constructor is flat: it writes
    the slots of :class:`Event` and :class:`Process` itself instead of
    chaining through the two ``__init__`` methods, and arranges no first step —
    ``deliver`` registers its callbacks, then takes it.  Its lane
    is its node's: a message is delivered in its destination's lane.
    (``tests/sim/test_slot_drift.py`` fails if a slot is left unset.)
    """

    __slots__ = ("_request",)

    def __init__(self, env: "Environment", generator: GeneratorType,
                 request: Message, lane: int) -> None:
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._late_relay = None
        self._name = None
        self.lane = lane
        self._generator = generator
        self._waiting_on = None
        self._resume_cb = self._resume
        self._request = request

    @property
    def name(self) -> str:
        request = self._request
        return f"{request.dst}:{request.type}"

    def _returned(self, value: Any) -> None:
        self.hand_off(value)


class Node:
    """A named endpoint attached to a datacenter.

    ``lane`` is the node's event-lane affinity on a lane-partitioned
    deployment (an entity group's shard, or the shared lane 0); every event
    a node's handlers schedule stays in its lane, and only network messages
    cross lanes.  All per-node counters (request ids, learner identities)
    are therefore lane-local, which the laned kernel's determinism
    argument relies on.
    """

    def __init__(self, env: "Environment", network: "Network", name: str,
                 datacenter: str, lane: int = 0) -> None:
        self.env = env
        self.network = network
        self.name = name
        self.datacenter = datacenter
        self.lane = lane
        self.down = False
        self._handlers: dict[str, Handler] = {}
        #: Open requests by id: a :class:`Reply` or a :class:`Gather`.
        self._pending: dict[int, Reply | Gather] = {}
        #: Loss-detection deadlines in flight, one FIFO per timeout length.
        self._deadlines: dict[float, _DeadlineFifo] = {}
        self._request_ids = count(1)
        self._learner_ids = count(1)
        #: Live handler processes, tracked only when :meth:`track_processes`
        #: armed it (crash-fault targets); ``None`` keeps delivery tracking-
        #: free.  An insertion-ordered dict, not a set: kill order must be
        #: deterministic, and set iteration over objects is id-hash order.
        self._procs: "dict[Any, None] | None" = None
        network.register(self)

    def track_processes(self) -> None:
        """Track spawned handler processes so a crash can kill them."""
        if self._procs is None:
            self._procs = {}

    def kill_tracked(self, reason: str) -> int:
        """Kill every live tracked handler process, in spawn order."""
        if not self._procs:
            return 0
        victims = list(self._procs)
        self._procs.clear()
        for process in victims:
            process.kill(reason)
        return len(victims)

    def adopt(self, process) -> None:
        """Track an externally spawned process (e.g. restart recovery work)
        so :meth:`kill_tracked` reaches it; no-op unless tracking is armed."""
        if self._procs is None:
            return
        self._procs[process] = None
        process.add_callback(
            lambda event, p=process: (
                self._procs.pop(p, None) if self._procs is not None else None
            )
        )

    def next_learner_id(self) -> int:
        """Monotone per-node id for catch-up proposer identities.

        Node-local rather than process-global so two lanes constructing
        learners concurrently draw independent sequences (a global counter's
        values would depend on cross-lane interleaving).
        """
        return next(self._learner_ids)

    # ------------------------------------------------------------------
    # Handler registration
    # ------------------------------------------------------------------

    def on(self, msg_type: str, handler: Handler) -> None:
        """Register *handler* for messages of *msg_type*.

        The handler receives the :class:`Message` envelope.  If it returns a
        generator, the generator runs as a process and its return value is
        the reply; otherwise the return value itself is the reply.  Replies
        are only sent for messages carrying a ``request_id``.
        """
        if msg_type in self._handlers:
            raise ValueError(f"{self.name}: handler for {msg_type!r} already registered")
        self._handlers[msg_type] = handler

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(self, dst: str, msg_type: str, payload: Any = None) -> None:
        """Fire-and-forget message (the APPLY phase uses this)."""
        self.network.send(Message(self.name, dst, msg_type, payload))

    def request_many(
        self,
        dsts: list[str],
        msg_type: str,
        payload: Any = None,
        enough: Callable[[list[Message]], bool] | None = None,
        timeout_ms: float = 2000.0,
        grace_ms: float = 0.0,
        payload_for: Callable[[str], Any] | None = None,
    ) -> Gather:
        """Broadcast a request and return a :class:`Gather` for the replies.

        ``payload_for`` lets the caller customize the payload per destination
        (unused by the core protocols but handy in tests).
        """
        request_id = next(self._request_ids)
        gather = Gather(self.env, len(dsts), enough, timeout_ms, grace_ms,
                        self._deadlines, self._pending, request_id)
        name = self.name
        send = self.network.send
        for dst in dsts:
            body = payload if payload_for is None else payload_for(dst)
            send(Message(name, dst, msg_type, body, request_id))
        return gather

    def request(self, dst: str, msg_type: str, payload: Any = None,
                timeout_ms: float = 2000.0) -> Reply:
        """Single-destination request: a :class:`Reply` slot for the answer.

        Its value is the reply :class:`Message`, or ``None`` on timeout.
        """
        request_id = next(self._request_ids)
        reply = Reply(self.env, timeout_ms, self._deadlines, self._pending,
                      request_id)
        self.network.send(Message(self.name, dst, msg_type, payload, request_id))
        return reply

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def deliver(self, msg: Message) -> None:
        """Dispatch a delivered request to its handler.

        Called by :meth:`Message._process`, which settles responses in the
        pending table itself.  Not for direct use.
        """
        handler = self._handlers.get(msg.type)
        if handler is None:
            return  # unknown messages are dropped, as UDP would
        result = handler(msg)
        if type(result) is GeneratorType:
            process = _HandlerProcess(self.env, result, msg, self.lane)
            if self._procs is not None:
                self.adopt(process)
            if msg.request_id is not None:
                process.callbacks.append(self._on_handler_done)
            # The first step, taken now if the queue would take it next: the
            # clear-instant guard of :meth:`Event.hand_off`, without an event
            # to hand off.  On a tie the usual bootstrap entry is queued.
            sim = self.env.sim
            queue = sim._queue
            if queue and queue[0][0] <= sim._now:
                Process._bootstrap(process, None)
            else:
                process._resume(_FIRST_STEP)
        elif msg.request_id is not None:
            self._reply(msg, result)

    def _on_handler_done(self, process: _HandlerProcess) -> None:
        if not process._ok:
            # A crashed handler must not masquerade as a reply; surface the
            # error through the simulation loop instead.
            raise process._value
        if self.down:
            return
        # ``request.reply(...)``, inline: one per handled request.
        request = process._request
        self.network.send(Message(
            request.dst, request.src, _response_types[request.type],
            process._value, request.request_id, True,
        ))

    def _reply(self, request: Message, payload: Any) -> None:
        if self.down:
            return
        self.network.send(request.reply(payload))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.name} @ {self.datacenter}{' DOWN' if self.down else ''}>"
