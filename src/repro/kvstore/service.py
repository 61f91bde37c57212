"""Latency-modelled access to a datacenter's key-value store.

The paper ran HBase on EC2 c1.medium instances with EBS volumes; every store
operation the transaction tier performs (reading a row, casting a Paxos vote
via ``checkAndWrite``, applying a log entry) costs single-digit milliseconds
there.  That cost is what stretches a transaction's lifetime and creates the
contention window in which two transactions race for the same log position —
without it, a simulated transaction would execute instantaneously and the
paper's abort rates could not arise.

:class:`StoreAccessor` wraps a :class:`MultiVersionStore` and yields a
simulated delay around each operation.  Protocol code uses it from processes::

    version = yield accessor.read(key, timestamp)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.kvstore.store import MultiVersionStore
from repro.sim.events import _PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.env import Environment


class StoreLatencyModel:
    """Per-operation latency for the key-value store.

    Draws uniformly from ``[low_ms, high_ms]``.  The defaults (10–24 ms,
    mean 17 ms) are calibrated so that a 10-operation transaction occupies a
    contention window that reproduces the basic-Paxos abort rates of §6 at
    the paper's offered load (see EXPERIMENTS.md for the calibration
    narrative).  Set ``low_ms = high_ms = 0`` for instantaneous stores in
    unit tests.
    """

    def __init__(self, low_ms: float = 10.0, high_ms: float = 24.0) -> None:
        if low_ms < 0 or high_ms < low_ms:
            raise ValueError(f"invalid latency range [{low_ms}, {high_ms}]")
        self.low_ms = low_ms
        self.high_ms = high_ms

    def draw(self, rng) -> float:
        """One operation's latency in milliseconds."""
        if self.high_ms == 0:
            return 0.0
        return rng.uniform(self.low_ms, self.high_ms)

    @classmethod
    def instant(cls) -> "StoreLatencyModel":
        """A zero-latency model for tests."""
        return cls(0.0, 0.0)


class _StoreOp(Event):
    """One deferred store operation: one kernel event for one latency.

    Scheduled with the drawn latency; when it pops it checks the crash
    fence, runs the operation and hands the result (or the store's
    exception) to its waiters — popping is the last thing that happens to
    it, so it is in tail position.  If another entry is due at the same
    instant the hand-off falls back to the queue and the event pops a
    second time, already triggered, to run its waiters in turn.

    There is one per store operation, so the constructor is flat: it
    writes :class:`Event`'s slots itself instead of chaining to
    ``Event.__init__`` (``tests/sim/test_slot_drift.py`` fails if the two
    drift apart), and draws the latency inline as
    ``low + (high - low) * rng.random()`` — the expression
    :meth:`StoreLatencyModel.draw`'s ``rng.uniform`` evaluates, so the
    draw is the same float from the same stream position
    (``tests/sim/test_exact_draws.py``).
    """

    __slots__ = ("_accessor", "_operation", "_args", "_epoch")

    def __init__(self, accessor: "StoreAccessor", operation, args: tuple) -> None:
        self.env = accessor.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._late_relay = None
        self._accessor = accessor
        self._operation = operation
        self._args = args
        self._epoch = accessor.epoch
        span = accessor._span
        if span is None:
            accessor._schedule(self, 0.0)
        else:
            accessor._schedule(self, accessor._low + span * accessor._random())

    def _process(self) -> None:
        if self._value is not _PENDING:
            super()._process()  # the queued half of a hand-off that tied
            return
        if self._epoch != self._accessor.epoch:
            return  # fenced: the issuing replica crashed meanwhile
        try:
            value = self._operation(*self._args)
        except Exception as exc:  # store errors flow to the waiter
            self.hand_off(exc, ok=False)
        else:
            self.hand_off(value)


class StoreAccessor:
    """Async facade over a :class:`MultiVersionStore`.

    Each method returns an :class:`~repro.sim.events.Event` that fires with
    the operation's result after the modelled delay — a single kernel event
    per operation (:class:`_StoreOp`).  The underlying store mutation
    happens when the event fires (not at call time), so concurrent
    in-flight operations interleave the way they would against a real store —
    while still executing each individual operation atomically.
    """

    def __init__(
        self,
        env: "Environment",
        store: MultiVersionStore,
        latency: StoreLatencyModel | None = None,
        rng_stream: str | None = None,
    ) -> None:
        self.env = env
        self.store = store
        self.latency = latency or StoreLatencyModel()
        self._rng = env.rng.stream(rng_stream or f"kvstore.{store.name}")
        # What every ``_StoreOp`` reads, bound once: the store's methods, the
        # latency bounds (``span`` is ``high - low``, or ``None`` for an
        # instant store), the stream's draw and the kernel's ``schedule``.
        self._read = store.read
        self._write = store.write
        self._check_and_write = store.check_and_write
        self._read_attribute = store.read_attribute
        latency = self.latency
        self._low = latency.low_ms
        self._span = (
            None if latency.high_ms == 0 else latency.high_ms - latency.low_ms
        )
        self._random = self._rng.random
        self._schedule = env.sim.schedule
        #: Crash fence.  A deferred operation captures the epoch at call
        #: time; :meth:`fence` bumps it, so operations issued by processes a
        #: crash killed become no-ops when their latency elapses —
        #: the mutation dies with the process, exactly like a write that
        #: never reached the disk.  (The issuing handler can never observe
        #: the difference: it was killed, so it neither sees the result nor
        #: sends the reply.)
        self.epoch = 0

    def fence(self) -> None:
        """Invalidate every in-flight deferred operation (crash semantics)."""
        self.epoch += 1

    # ------------------------------------------------------------------
    # The paper's operations, asynchronous
    # ------------------------------------------------------------------

    def read(self, key: str, timestamp: float | None = None) -> Event:
        """Deferred :meth:`MultiVersionStore.read`."""
        return _StoreOp(self, self._read, (key, timestamp))

    def write(self, key: str, attributes: Mapping[str, Any],
              timestamp: float | None = None) -> Event:
        """Deferred :meth:`MultiVersionStore.write`."""
        return _StoreOp(self, self._write, (key, attributes, timestamp))

    def check_and_write(
        self,
        key: str,
        test_attribute: str,
        test_value: Any,
        attributes: Mapping[str, Any],
        timestamp: float | None = None,
    ) -> Event:
        """Deferred :meth:`MultiVersionStore.check_and_write`."""
        return _StoreOp(
            self, self._check_and_write,
            (key, test_attribute, test_value, attributes, timestamp),
        )

    def read_attribute(self, key: str, attribute: str,
                       timestamp: float | None = None, default: Any = None) -> Event:
        """Deferred :meth:`MultiVersionStore.read_attribute`."""
        return _StoreOp(
            self, self._read_attribute, (key, attribute, timestamp, default)
        )
