"""Tests for the discrete-event scheduler."""

import gc

import pytest

from repro.errors import SimulationFinished
from repro.sim.core import Simulator
from repro.sim.env import Environment
from repro.sim.events import Notification


def make_event(env, on_fire):
    event = env.event()
    event.add_callback(on_fire)
    return event


class TestClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_advances_to_event_time(self, env):
        env.timeout(5.0)
        env.run()
        assert env.now == 5.0

    def test_run_until_advances_clock_even_when_queue_drains(self, env):
        env.timeout(1.0)
        env.run(until=100.0)
        assert env.now == 100.0

    def test_run_until_does_not_process_later_events(self, env):
        fired = []
        late = env.timeout(50.0)
        late.add_callback(lambda e: fired.append(env.now))
        env.run(until=10.0)
        assert fired == []
        env.run(until=60.0)
        assert fired == [50.0]

    def test_run_backwards_rejected(self, env):
        env.timeout(5.0)
        env.run()
        with pytest.raises(ValueError):
            env.run(until=1.0)

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)


class TestOrdering:
    def test_events_fire_in_time_order(self, env):
        order = []
        for delay in [5.0, 1.0, 3.0]:
            timeout = env.timeout(delay)
            timeout.add_callback(lambda e, d=delay: order.append(d))
        env.run()
        assert order == [1.0, 3.0, 5.0]

    def test_same_time_events_fire_in_scheduling_order(self, env):
        order = []
        for tag in "abcde":
            timeout = env.timeout(2.0)
            timeout.add_callback(lambda e, t=tag: order.append(t))
        env.run()
        assert order == list("abcde")

    def test_zero_delay_runs_after_current_callback(self, env):
        order = []

        def first(_event):
            order.append("first")
            inner = env.timeout(0.0)
            inner.add_callback(lambda e: order.append("inner"))

        env.timeout(1.0).add_callback(first)
        env.timeout(1.0).add_callback(lambda e: order.append("second"))
        env.run()
        assert order == ["first", "second", "inner"]


class TestStep:
    def test_step_empty_queue_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationFinished):
            sim.step()

    def test_peek_reports_next_time(self, env):
        env.timeout(7.5)
        assert env.sim.peek() == 7.5

    def test_peek_empty_is_infinite(self):
        assert Simulator().peek() == float("inf")

    def test_processed_event_counter(self, env):
        env.timeout(1.0)
        env.timeout(2.0)
        env.run()
        assert env.sim.processed_events == 2


class Mark(Notification):
    """A bare queue entry that records when it popped."""

    __slots__ = ("order", "tag", "env")

    def __init__(self, env, order, tag):
        self.env, self.order, self.tag = env, order, tag

    def _process(self):
        self.order.append((self.tag, self.env.now))


class TestReservedKeys:
    """``reserve`` stamps the key ``schedule`` would; ``push_reserved``
    enters an event under it any time before it is due."""

    def test_pops_where_a_schedule_at_reservation_time_would_have(self, kernel_env):
        env, order = kernel_env, []
        env.sim.schedule(Mark(env, order, "before"), 2.0)
        key = env.sim.reserve(2.0)
        env.sim.schedule(Mark(env, order, "after"), 2.0)
        assert env.sim.peek() == 2.0  # the reservation itself holds no entry
        env.timeout(1.0).add_callback(
            lambda e: env.sim.push_reserved(key, Mark(env, order, "reserved"))
        )
        env.run()
        assert order == [("before", 2.0), ("reserved", 2.0), ("after", 2.0)]
        assert env.sim.processed_events == 4

    def test_a_key_due_at_this_very_instant_still_waits_its_turn(self, kernel_env):
        env, order = kernel_env, []

        def pusher(_event):
            order.append(("pusher", env.now))
            env.sim.push_reserved(key, Mark(env, order, "reserved"))

        env.timeout(2.0).add_callback(pusher)
        env.sim.schedule(Mark(env, order, "between"), 2.0)
        key = env.sim.reserve(2.0)
        env.sim.schedule(Mark(env, order, "after"), 2.0)
        env.run()
        # Pushed while already due: whatever is keyed between the pusher and
        # the reserved key runs first, whatever is keyed after it runs after.
        assert order == [("pusher", 2.0), ("between", 2.0), ("reserved", 2.0),
                         ("after", 2.0)]

    def test_unpushed_reservation_is_never_an_event(self, kernel_env):
        kernel_env.sim.reserve(5.0)
        assert kernel_env.sim.peek() == float("inf")
        kernel_env.run()
        assert kernel_env.sim.processed_events == 0

    def test_negative_delay_refused_like_schedule(self, kernel_env):
        with pytest.raises(ValueError):
            kernel_env.sim.reserve(-0.5)

    def test_past_key_refused(self, kernel_env):
        env = kernel_env
        key = env.sim.reserve(1.0)
        env.run(until=3.0)
        with pytest.raises(ValueError):
            env.sim.push_reserved(key, Mark(env, [], "late"))


class TestCollectorPause:
    """``Environment.run`` pauses the cycle collector for the drain and
    leaves it as it found it."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        was_enabled = gc.isenabled()
        yield
        if was_enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("until", [None, 10.0])
    def test_paused_inside_a_run_and_back_on_after(self, kernel_env, until):
        env, seen = kernel_env, []

        def process():
            yield env.timeout(1.0)
            seen.append(gc.isenabled())

        env.process(process())
        gc.enable()
        env.run(until)
        assert seen == [False]
        assert gc.isenabled()

    def test_caller_who_disabled_it_keeps_it_disabled(self, env):
        env.timeout(1.0)
        gc.disable()
        env.run()
        assert env.sim.processed_events == 1
        assert not gc.isenabled()

    def test_back_on_when_a_process_exception_escapes_run(self, env):
        def process():
            yield env.timeout(1.0)
            raise RuntimeError("boom")

        env.process(process())
        gc.enable()
        with pytest.raises(RuntimeError, match="boom"):
            env.run()
        assert gc.isenabled()
