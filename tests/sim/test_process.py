"""Tests for generator-based processes."""

import gc

import pytest

from repro.errors import InvalidYield, ProcessKilled
from repro.sim.process import Process


class TestBasics:
    def test_process_requires_generator(self, env):
        with pytest.raises(TypeError):
            Process(env, lambda: None)

    def test_runs_to_completion_with_return_value(self, env):
        def worker():
            yield env.timeout(2.0)
            return "result"

        process = env.process(worker())
        env.run()
        assert process.triggered
        assert process.value == "result"

    def test_timeout_value_delivered_to_yield(self, env):
        def worker():
            value = yield env.timeout(1.0, value="tick")
            return value

        process = env.process(worker())
        env.run()
        assert process.value == "tick"

    def test_sequential_timeouts_accumulate(self, env):
        times = []

        def worker():
            yield env.timeout(1.0)
            times.append(env.now)
            yield env.timeout(2.0)
            times.append(env.now)

        env.process(worker())
        env.run()
        assert times == [1.0, 3.0]

    def test_is_alive_tracks_lifecycle(self, env):
        def worker():
            yield env.timeout(1.0)

        process = env.process(worker())
        assert process.is_alive
        env.run()
        assert not process.is_alive


class TestInterProcess:
    def test_process_can_wait_on_process(self, env):
        def inner():
            yield env.timeout(3.0)
            return 99

        def outer():
            result = yield env.process(inner())
            return result + 1

        process = env.process(outer())
        env.run()
        assert process.value == 100

    def test_two_processes_interleave(self, env):
        log = []

        def worker(name, delay):
            for _ in range(2):
                yield env.timeout(delay)
                log.append((name, env.now))

        env.process(worker("a", 1.0))
        env.process(worker("b", 1.5))
        env.run()
        assert log == [("a", 1.0), ("b", 1.5), ("a", 2.0), ("b", 3.0)]

    def test_waiting_on_failed_event_throws_in(self, env):
        event = env.event()

        def worker():
            try:
                yield event
            except RuntimeError as exc:
                return f"caught {exc}"

        process = env.process(worker())
        event.fail(RuntimeError("bad"))
        env.run()
        assert process.value == "caught bad"


class TestQueueDriven:
    """A plain process starts and finishes through the queue: neither its
    spawner nor its waiters promised to be in tail position (only a message
    handler's process is handed off; see tests/net/test_node.py)."""

    def test_first_step_waits_its_turn(self, env):
        order = []

        def worker():
            order.append("worker")
            yield env.timeout(0.0)

        env.process(worker())
        order.append("spawner goes on")
        env.run()
        assert order == ["spawner goes on", "worker"]

    def test_return_wakes_waiters_through_the_queue(self, env):
        order = []

        def child():
            yield env.timeout(1.0)
            return "done"

        process = env.process(child())
        process.add_callback(lambda e: order.append(("waiter", e.value)))
        # bootstrap, the timeout, the process event: the instant is clear
        # when the child returns, and its waiters still take a queue entry.
        env.run()
        assert order == [("waiter", "done")]
        assert env.sim.processed_events == 3


class TestLifetime:
    def test_finished_process_is_freed_without_the_cycle_collector(self, env):
        # One process per handled message: if each ended as a reference
        # cycle (process <-> its bound resume callback) the collector would
        # run twice as often over a run.  Counted, not timed.
        def worker():
            yield env.timeout(1.0)

        gc.collect()
        gc.disable()
        try:
            for _ in range(50):
                env.process(worker())
            env.run()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestFailures:
    def test_unwatched_exception_escapes_run(self, env):
        def worker():
            yield env.timeout(1.0)
            raise ValueError("unhandled")

        env.process(worker())
        with pytest.raises(ValueError, match="unhandled"):
            env.run()

    def test_watched_exception_delivered_to_waiter(self, env):
        def inner():
            yield env.timeout(1.0)
            raise ValueError("inner failure")

        def outer():
            try:
                yield env.process(inner())
            except ValueError as exc:
                return str(exc)

        process = env.process(outer())
        env.run()
        assert process.value == "inner failure"

    def test_invalid_yield_is_reported(self, env):
        def worker():
            yield 42  # not an Event

        process = env.process(worker())
        with pytest.raises(InvalidYield):
            env.run()
        assert not process.is_alive


class TestKill:
    def test_kill_stops_process(self, env):
        reached = []

        def worker():
            yield env.timeout(10.0)
            reached.append(True)

        process = env.process(worker())
        env.run(until=1.0)
        process.kill("test")
        env.run()
        assert reached == []
        assert not process.is_alive

    def test_kill_is_idempotent(self, env):
        def worker():
            yield env.timeout(10.0)

        process = env.process(worker())
        env.run(until=1.0)
        process.kill()
        process.kill()
        env.run()
        assert not process.is_alive

    def test_process_may_catch_kill(self, env):
        def worker():
            try:
                yield env.timeout(10.0)
            except ProcessKilled:
                return "cleaned up"

        process = env.process(worker())
        env.run(until=1.0)
        process.kill()
        env.run()
        assert process.value == "cleaned up"

    def test_stale_wakeup_after_kill_ignored(self, env):
        def worker():
            yield env.timeout(5.0)
            return "finished"

        process = env.process(worker())
        env.run(until=1.0)
        process.kill()
        env.run()  # the 5.0 timeout still fires; must not resume the corpse
        assert isinstance(process.value, ProcessKilled)
