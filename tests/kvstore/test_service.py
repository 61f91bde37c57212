"""Tests for the latency-modelled store accessor."""

import pytest

from repro.errors import RowVersionError
from repro.kvstore.service import StoreAccessor, StoreLatencyModel
from repro.kvstore.store import MultiVersionStore


def make_accessor(env, low=2.0, high=2.0):
    store = MultiVersionStore("svc-test")
    return StoreAccessor(env, store, latency=StoreLatencyModel(low, high)), store


class TestLatencyModel:
    def test_instant_model_is_zero(self):
        import random

        model = StoreLatencyModel.instant()
        assert model.draw(random.Random(0)) == 0.0

    def test_draw_within_range(self):
        import random

        model = StoreLatencyModel(3.0, 9.0)
        rng = random.Random(0)
        for _ in range(200):
            assert 3.0 <= model.draw(rng) <= 9.0

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            StoreLatencyModel(5.0, 2.0)
        with pytest.raises(ValueError):
            StoreLatencyModel(-1.0, 2.0)


class TestAccessor:
    def test_operations_take_time(self, env):
        accessor, _store = make_accessor(env, 2.0, 2.0)

        def proc():
            yield accessor.write("k", {"a": 1})
            version = yield accessor.read("k")
            return (env.now, version.get("a"))

        process = env.process(proc())
        env.run()
        finished, value = process.value
        assert finished == 4.0
        assert value == 1

    def test_mutation_happens_at_completion_not_submission(self, env):
        accessor, store = make_accessor(env, 5.0, 5.0)

        def writer():
            yield accessor.write("k", {"a": 1})

        env.process(writer())
        env.run(until=2.0)
        assert store.read("k") is None  # still in flight
        env.run()
        assert store.read("k").get("a") == 1

    def test_errors_flow_to_waiter(self, env):
        accessor, store = make_accessor(env, 1.0, 1.0)
        store.write("k", {"a": 1}, timestamp=10)

        def proc():
            try:
                yield accessor.write("k", {"a": 2}, timestamp=5)
            except RowVersionError:
                return "rejected"

        process = env.process(proc())
        env.run()
        assert process.value == "rejected"

    def test_check_and_write_deferred(self, env):
        accessor, store = make_accessor(env, 1.0, 1.0)

        def proc():
            ok = yield accessor.check_and_write("k", "flag", None, {"flag": 1})
            not_ok = yield accessor.check_and_write("k", "flag", None, {"flag": 2})
            return ok, not_ok

        process = env.process(proc())
        env.run()
        assert process.value == (True, False)

    def test_concurrent_operations_interleave_by_latency(self, env):
        """A slow in-flight op does not block a fast one (no global lock)."""
        store = MultiVersionStore("interleave")
        slow = StoreAccessor(env, store, latency=StoreLatencyModel(10.0, 10.0),
                             rng_stream="slow")
        fast = StoreAccessor(env, store, latency=StoreLatencyModel(1.0, 1.0),
                             rng_stream="fast")
        order = []

        def slow_proc():
            yield slow.write("k", {"a": "slow"})
            order.append(("slow", env.now))

        def fast_proc():
            yield fast.write("j", {"a": "fast"})
            order.append(("fast", env.now))

        env.process(slow_proc())
        env.process(fast_proc())
        env.run()
        assert order == [("fast", 1.0), ("slow", 10.0)]

    def test_read_attribute_deferred(self, env):
        accessor, store = make_accessor(env, 1.0, 1.0)
        store.write("k", {"a": 7}, timestamp=1)

        def proc():
            value = yield accessor.read_attribute("k", "a")
            missing = yield accessor.read_attribute("k", "zz", default="d")
            return value, missing

        process = env.process(proc())
        env.run()
        assert process.value == (7, "d")


class TestOneEventPerOperation:
    """A store operation is one simulated delay, so it is one kernel event:
    the result is handed to the waiter from the event that ran the
    operation."""

    def test_one_operation_is_one_kernel_event(self, env):
        accessor, store = make_accessor(env, 2.0, 2.0)
        seen = []
        operation = accessor.write("k", {"a": 1})
        operation.add_callback(lambda e: seen.append((env.now, e.ok)))
        before = env.sim.processed_events
        env.run()
        assert env.sim.processed_events - before == 1
        assert seen == [(2.0, True)]
        assert store.read("k").get("a") == 1

    def test_a_process_pays_one_event_per_operation(self, env):
        accessor, _store = make_accessor(env, 2.0, 2.0)

        def proc():
            for index in range(5):
                yield accessor.write("k", {"a": index})

        env.process(proc())
        env.run()
        # bootstrap + five operations + the process's own completion
        assert env.sim.processed_events == 7

    def test_same_instant_operations_complete_in_issue_order(self, env):
        store = MultiVersionStore("instant")
        accessor = StoreAccessor(env, store, latency=StoreLatencyModel.instant())
        order = []
        first = accessor.write("k", {"a": 1})
        second = accessor.read("k")
        first.add_callback(lambda e: order.append("write"))
        second.add_callback(lambda e: order.append(("read", e.value.get("a"))))
        env.run()
        assert order == ["write", ("read", 1)]
        # Each finds the other due at the same instant, so each result takes
        # its turn in the queue: the tie fallback, visible as a second pop.
        assert env.sim.processed_events == 4

    def test_failed_operation_is_one_event_too(self, env):
        accessor, store = make_accessor(env, 1.0, 1.0)
        store.write("k", {"a": 1}, timestamp=10)
        seen = []
        stale = accessor.write("k", {"a": 2}, timestamp=5)
        stale.add_callback(lambda e: seen.append((e.ok, type(e.value))))
        env.run()
        assert seen == [(False, RowVersionError)]
        assert env.sim.processed_events == 1

    def test_killed_process_is_not_resumed_by_its_operation(self, env):
        accessor, store = make_accessor(env, 5.0, 5.0)
        resumed = []

        def proc():
            yield accessor.write("k", {"a": 1})
            resumed.append(env.now)

        process = env.process(proc())
        env.run(until=1.0)
        process.kill("crash")
        env.run()
        assert resumed == []
        assert not process.is_alive
        # Unfenced, the write itself still lands: only the waiter is gone.
        assert store.read("k").get("a") == 1

    def test_fenced_operation_never_fires(self, env):
        accessor, store = make_accessor(env, 5.0, 5.0)
        resumed = []

        def proc():
            yield accessor.write("k", {"a": 1})
            resumed.append(env.now)

        process = env.process(proc())
        env.run(until=1.0)
        accessor.fence()
        env.run()
        assert resumed == [] and process.is_alive
        assert store.read("k") is None
        later = accessor.write("k", {"a": 2})  # issued in the new epoch
        env.run()
        assert later.ok and store.read("k").get("a") == 2
