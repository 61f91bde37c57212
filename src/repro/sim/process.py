"""Generator-based processes.

A process wraps a generator that yields :class:`~repro.sim.events.Event`
objects.  Each yield suspends the process until the event fires; the event's
value is sent back into the generator (or its exception thrown in).  The
process object is itself an event that fires when the generator returns, so
processes can wait on other processes.

Example::

    def client(env, network):
        yield env.timeout(5.0)            # think time
        reply = yield network.request(...)  # resumes with the reply
        return reply                        # fires the process event
"""

from __future__ import annotations

from types import GeneratorType
from typing import TYPE_CHECKING, Any, Generator

from repro.errors import InvalidYield, ProcessKilled
from repro.sim.events import _PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.env import Environment


class Process(Event):
    """Drives a generator, resuming it each time a yielded event fires."""

    __slots__ = ("_name", "lane", "_generator", "_waiting_on", "_resume_cb")

    def __init__(self, env: "Environment", generator: Generator,
                 name: str | None = None, lane: int | None = None) -> None:
        if not isinstance(generator, GeneratorType):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you forget to call the process function?"
            )
        super().__init__(env)
        self._name = name
        #: Event lane this process started in (the fault injector kills a
        #: process from its own lane).  Resumptions follow the events the
        #: process waits on, which stay in this lane for lane-local work.
        self.lane = env.sim.current_lane if lane is None else lane
        self._generator = generator
        self._waiting_on: Event | None = None
        # One bound method for the life of the generator: re-binding
        # ``self._resume`` on every yield shows up in kernel profiles.
        self._resume_cb = self._resume
        self._bootstrap(lane)

    def _bootstrap(self, lane: int | None) -> None:
        """Arrange the first step of the generator.

        A zero-delay bootstrap event: the spawner may go on to schedule,
        draw or mutate after ``env.process(...)`` returns, so the first
        step has to wait its turn in the queue.  (A message handler's
        process is the exception — its spawner, ``Node.deliver``, is in
        tail position — and overrides this; see ``repro.net.node``.)
        """
        bootstrap = Event(self.env)
        bootstrap._ok = True
        bootstrap._value = None
        bootstrap.callbacks.append(self._resume_cb)
        if lane is None:
            self.env.sim.schedule(bootstrap)
        else:
            self.env.sim.schedule_in_lane(bootstrap, 0.0, lane)

    def _returned(self, value: Any) -> None:
        """The generator returned *value* from a normal resumption.

        Fires the process event through the queue, because whoever waits on
        a process in general (drivers, coordinators, recovery) is not in
        tail position of it.
        """
        self.succeed(value)

    @property
    def name(self) -> str:
        """What error messages call this process (built when asked for)."""
        return self._name or getattr(self._generator, "__name__", "process")

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def kill(self, reason: str = "killed") -> None:
        """Terminate the process by throwing :class:`ProcessKilled` into it.

        Used by the fault injector to model a client or service crashing in
        the middle of a protocol (e.g. a Transaction Client dying between the
        accept and apply phases, per §4.1 "Fault Tolerance and Recovery").
        """
        if self.triggered:
            return
        # Wait on the kill itself instead of whatever we were waiting on, so
        # that event's wakeup is dropped as stale when it arrives (see the
        # comparison against _waiting_on in _resume).
        self._waiting_on = killer = Event(self.env)
        killer._ok = False
        killer._value = ProcessKilled(reason)
        self._resume(killer)

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Step the generator with the outcome of *event*.

        The one driver of the generator: yielded events call it back when
        they are processed, and the bootstrap event and :meth:`kill` reach
        it the same way — one frame per resumption.
        """
        if self._value is not _PENDING:
            return  # killed while the wakeup was in flight
        if self._waiting_on is not None and event is not self._waiting_on:
            return  # stale wakeup from an event we abandoned via kill()
        self._waiting_on = None
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            # Drop the self-reference (process -> bound method -> process):
            # a finished process is then freed on the spot by refcount
            # instead of waiting for the cycle collector — there is one per
            # handled message.
            self._resume_cb = None
            if event._ok:
                self._returned(stop.value)
            else:
                # Returned by handling a thrown-in exception — possibly a
                # kill(), whose caller is anything but in tail position.
                self.succeed(stop.value)
            return
        except ProcessKilled as exc:
            # A kill that the generator chose not to handle is a normal
            # termination, not a simulation failure.
            self.succeed(exc)
            return
        except BaseException as exc:
            if self.callbacks:
                # Someone is waiting on this process: deliver the failure to
                # them (it will be thrown into their generator).
                self.fail(exc)
                return
            # Nobody is watching — crash the simulation loudly rather than
            # swallow the error.  exc escapes through sim.step()/env.run().
            self._value = exc
            self._ok = False
            self.callbacks = None
            raise
        if not isinstance(target, Event):
            error = InvalidYield(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances (timeout(), requests, other processes)"
            )
            self._generator.close()
            if self.callbacks:
                self.fail(error)
                return
            self._value = error
            self._ok = False
            self.callbacks = None
            raise error
        self._waiting_on = target
        callbacks = target.callbacks
        if callbacks is not None:
            callbacks.append(self._resume_cb)
        else:  # already processed: the late-registration relay
            target.add_callback(self._resume_cb)
