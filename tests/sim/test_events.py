"""Tests for Event, Timeout, AnyOf, AllOf."""

import pytest

from repro.sim.env import Environment
from repro.sim.events import AllOf, AnyOf, Event, Timeout


class TestEventLifecycle:
    def test_pending_until_triggered(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_carries_value(self, env):
        event = env.event()
        event.succeed("payload")
        assert event.triggered
        assert event.ok
        assert event.value == "payload"

    def test_fail_carries_exception(self, env):
        event = env.event()
        error = RuntimeError("boom")
        event.fail(error)
        assert event.triggered
        assert not event.ok
        assert event.value is error

    def test_double_trigger_rejected(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(RuntimeError):
            event.succeed()
        with pytest.raises(RuntimeError):
            event.fail(ValueError())

    def test_fail_requires_exception(self, env):
        event = env.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_value_before_trigger_raises(self, env):
        event = env.event()
        with pytest.raises(RuntimeError):
            _ = event.value
        with pytest.raises(RuntimeError):
            _ = event.ok


class TestCallbacks:
    def test_callbacks_run_at_processing(self, env):
        event = env.event()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        event.succeed(11)
        assert seen == []  # not yet processed
        env.run()
        assert seen == [11]

    def test_late_callback_still_runs(self, env):
        event = env.event()
        event.succeed("x")
        env.run()
        assert event.processed
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        env.run()
        assert seen == ["x"]

    def test_multiple_callbacks_in_order(self, env):
        event = env.event()
        seen = []
        for index in range(3):
            event.add_callback(lambda e, i=index: seen.append(i))
        event.succeed()
        env.run()
        assert seen == [0, 1, 2]


class TestLateCallbacks:
    """Pin the semantics of add_callback on an already-processed event.

    Late waiters are relayed through the event queue: they never run
    synchronously inside add_callback, they run at the current instant in
    the order they were added, and they observe the original event (value,
    ok flag) — regardless of how the kernel batches the relays internally.
    """

    def test_late_callback_is_queue_driven_not_immediate(self, env):
        event = env.event()
        event.succeed("v")
        env.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == []  # deferred through the queue, never synchronous
        env.run()
        assert seen == ["v"]

    def test_late_callbacks_run_in_add_order(self, env):
        event = env.event()
        event.succeed()
        env.run()
        seen = []
        for index in range(4):
            event.add_callback(lambda e, i=index: seen.append(i))
        env.run()
        assert seen == [0, 1, 2, 3]

    def test_late_callback_on_failed_event_sees_failure(self, env):
        event = env.event()
        error = RuntimeError("boom")
        event.fail(error)
        # Nobody waited, so the failure was processed without raising.
        env.run()
        seen = []
        event.add_callback(lambda e: seen.append((e.ok, e.value)))
        env.run()
        assert seen == [(False, error)]

    def test_late_callback_added_during_processing_runs_same_instant(self, env):
        event = env.event()
        seen = []

        def first(e):
            seen.append(("first", env.now))
            # The event is processed by now; this goes the late-relay path.
            e.add_callback(lambda e2: seen.append(("late", env.now)))

        event.add_callback(first)
        event.succeed()
        env.run()
        assert seen == [("first", 0.0), ("late", 0.0)]

    def test_late_callbacks_interleave_with_current_instant_queue(self, env):
        # A late callback runs after events that were already queued when it
        # was added — relays ride the queue like everything else.
        event = env.event()
        event.succeed()
        env.run()
        seen = []
        env.timeout(0.0).add_callback(lambda e: seen.append("queued"))
        event.add_callback(lambda e: seen.append("late"))
        env.run()
        assert seen == ["queued", "late"]

    def test_late_registrations_share_the_pending_relay(self, env):
        # Registrations made while a relay is still pending join it and run
        # adjacently at its queue position — ahead of events scheduled
        # between the two registrations (the batch holds one queue slot).
        event = env.event()
        event.succeed()
        env.run()
        seen = []
        event.add_callback(lambda e: seen.append("late-1"))
        env.timeout(0.0).add_callback(lambda e: seen.append("between"))
        event.add_callback(lambda e: seen.append("late-2"))
        env.run()
        assert seen == ["late-1", "late-2", "between"]
        # Once the relay has fired, a fresh registration gets a fresh relay
        # behind anything queued in the meantime.
        env.timeout(0.0).add_callback(lambda e: seen.append("queued"))
        event.add_callback(lambda e: seen.append("late-3"))
        env.run()
        assert seen == ["late-1", "late-2", "between", "queued", "late-3"]

    def test_clock_does_not_advance_for_late_callbacks(self, env):
        env.timeout(7.0)
        env.run()
        event = env.event()
        event.succeed()
        env.run()
        fired_at = []
        event.add_callback(lambda e: fired_at.append(env.now))
        env.run()
        assert fired_at == [7.0]


class TestHandOff:
    """``hand_off`` is ``succeed`` made as a call when the queue would run
    the waiters next anyway, and exactly ``succeed`` when it would not."""

    def test_runs_waiters_in_place_when_the_instant_is_clear(self, kernel_env):
        env = kernel_env
        env.timeout(5.0)  # an entry due later is not a tie
        event = env.event()
        seen = []
        event.add_callback(lambda e: seen.append((e.ok, e.value)))
        event.hand_off("v")
        assert seen == [(True, "v")]
        assert event.processed
        env.run()
        assert env.sim.processed_events == 1  # the timeout; nothing was queued

    @pytest.mark.parametrize("trigger", ["hand_off", "succeed"])
    def test_a_tie_keeps_the_queue_order(self, kernel_env, trigger):
        # The shape of a handler whose last step releases a lock: the
        # finishing step queues the next lock holder at this instant, then
        # completes.  The waiters on the result must run after that entry.
        env = kernel_env
        order = []
        done = env.event()
        done.add_callback(lambda e: order.append("reply"))

        def finishing_step(_event):
            env.timeout(0.0).add_callback(lambda e: order.append("next holder"))
            getattr(done, trigger)("result")
            assert order == [] and not done.processed

        env.timeout(3.0).add_callback(finishing_step)
        env.run()
        assert order == ["next holder", "reply"]
        assert done.value == "result"
        assert env.sim.processed_events == 3

    def test_failure_is_handed_off_like_fail(self, env):
        error = RuntimeError("boom")
        for tie in (False, True):
            event = env.event()
            seen = []
            event.add_callback(lambda e, seen=seen: seen.append((e.ok, e.value)))
            if tie:
                env.timeout(0.0)
            event.hand_off(error, ok=False)
            assert seen == ([] if tie else [(False, error)])
            env.run()
            assert seen == [(False, error)]

    def test_late_callback_after_a_hand_off_rides_the_relay(self, env):
        event = env.event()
        event.hand_off("v")
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == []  # deferred through the queue, never synchronous
        env.run()
        assert seen == ["v"]

    def test_double_trigger_rejected(self, env):
        event = env.event()
        event.hand_off()
        with pytest.raises(RuntimeError):
            event.hand_off()
        with pytest.raises(RuntimeError):
            event.succeed()
        other = env.event()
        other.succeed()
        with pytest.raises(RuntimeError):
            other.hand_off()


class TestTimeout:
    def test_fires_at_delay_with_value(self, env):
        timeout = env.timeout(4.0, value="done")
        fired = []
        timeout.add_callback(lambda e: fired.append((env.now, e.value)))
        env.run()
        assert fired == [(4.0, "done")]

    def test_cannot_be_triggered_manually(self, env):
        timeout = env.timeout(1.0)
        with pytest.raises(RuntimeError):
            timeout.succeed()

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            Timeout(env, -0.5)


class TestAnyOf:
    def test_fires_on_first_child(self, env):
        fast = env.timeout(1.0, value="fast")
        slow = env.timeout(5.0, value="slow")
        condition = env.any_of([fast, slow])
        fired = []
        condition.add_callback(lambda e: fired.append((env.now, dict(e.value))))
        env.run()
        assert fired[0][0] == 1.0
        assert fired[0][1] == {fast: "fast"}

    def test_empty_condition_fires_immediately(self, env):
        condition = env.any_of([])
        env.run()
        assert condition.triggered
        assert condition.value == {}

    def test_child_failure_fails_condition(self, env):
        event = env.event()
        condition = env.any_of([event, env.timeout(10.0)])
        error = RuntimeError("child died")
        event.fail(error)
        results = []
        condition.add_callback(lambda e: results.append((e.ok, e.value)))
        env.run()
        assert results == [(False, error)]


class TestAllOf:
    def test_waits_for_all_children(self, env):
        first = env.timeout(1.0, value=1)
        second = env.timeout(3.0, value=2)
        condition = env.all_of([first, second])
        fired = []
        condition.add_callback(lambda e: fired.append(env.now))
        env.run()
        assert fired == [3.0]
        assert condition.value == {first: 1, second: 2}

    def test_mixed_environment_rejected(self, env):
        from repro.sim.env import Environment

        other = Environment(seed=1)
        with pytest.raises(ValueError):
            AllOf(env, [env.event(), other.event()])

    def test_already_fired_children_counted(self, env):
        done = env.event()
        done.succeed("early")
        env.run()
        condition = AnyOf(env, [done])
        env.run()
        assert condition.triggered
        assert condition.value == {done: "early"}
