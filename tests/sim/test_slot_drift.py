"""The hand-written constructors set every slot, to what ``__init__`` would.

``Timeout``, ``_StoreOp``, ``_HandlerProcess``, ``Reply`` and ``Gather`` are
allocated once per think time, store operation, handled request,
one-destination request and broadcast, so each writes :class:`Event`'s
slots itself instead of chaining to ``Event.__init__`` (and
``_HandlerProcess`` writes :class:`Process`'s too).
That puts the slot list in several places; this test is what keeps them in
step.  A slot added to ``Event`` or ``Process`` that one of the copies
forgets is unset on the object, and reading it here raises.
"""

from __future__ import annotations

import pytest

from repro.kvstore.service import StoreAccessor, _StoreOp
from repro.kvstore.store import MultiVersionStore
from repro.net.message import Message
from repro.net.node import Gather, Reply, _HandlerProcess
from repro.sim.env import Environment
from repro.sim.events import Event, Timeout
from repro.sim.process import Process


def every_slot(cls: type) -> list[str]:
    """Every slot name declared anywhere in *cls*'s MRO."""
    return [
        name
        for klass in cls.__mro__
        for name in klass.__dict__.get("__slots__", ())
    ]


def handler_body():
    yield None


def built(kind: str, env: Environment):
    """One object of *kind*, made the way the simulation makes it."""
    if kind == "Timeout":
        return Timeout(env, 5.0, "value")
    if kind == "_StoreOp":
        accessor = StoreAccessor(env, MultiVersionStore("drift"))
        return _StoreOp(accessor, accessor.store.read, ("row", None))
    if kind == "Reply":
        return Reply(env, 2000.0, {}, {}, 1)
    if kind == "Gather":
        return Gather(env, 1, None, 2000.0, 0.0, {}, {}, 1)
    request = Message(src="client", dst="server", type="read", request_id=1)
    return _HandlerProcess(env, handler_body(), request, 0)


#: Slots an object legitimately carries from birth, unlike a plain event.
BORN_WITH = {"Timeout": {"_value": "value", "_ok": True}}


@pytest.mark.parametrize("kind", ("Timeout", "_StoreOp", "_HandlerProcess",
                                  "Reply", "Gather"))
def test_every_event_slot_is_set_as_event_init_sets_it(kind):
    env = Environment(seed=0)
    plain = Event(env)
    obj = built(kind, env)
    born_with = BORN_WITH.get(kind, {})
    for name in Event.__slots__:
        expected = born_with.get(name, getattr(plain, name))
        assert getattr(obj, name) == expected, name
    for name in every_slot(type(obj)):
        getattr(obj, name)  # AttributeError: a slot no constructor sets


def test_handler_process_slots_match_process_init():
    env = Environment(seed=0)
    handler = built("_HandlerProcess", env)
    process = Process(env, handler_body())
    for name in ("_name", "lane", "_waiting_on"):
        assert getattr(handler, name) == getattr(process, name), name
    assert handler._resume_cb == handler._resume
    # Process.__init__ queues a bootstrap; the handler's first step is
    # taken by ``start`` instead, so constructing one schedules nothing.
    assert len(env.sim._queue) == 1
