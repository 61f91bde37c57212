"""Unit tests for the lane-partitioned kernel and the shard map.

The integration-level contract (field-identical metrics under both engine
values) is covered by tests/harness/test_shard_digest.py; these tests pin the
kernel mechanics: canonical ordering, the lane-by-lane drain of independent
lanes, lane isolation enforcement, and the per-lane event counts the
profiling surfaces.
"""

from __future__ import annotations

import pytest

from repro.sim.core import LanedSimulator, Simulator
from repro.sim.env import Environment
from repro.sim.events import Notification
from repro.sim.shard import ShardMap, service_node_name, store_name


def laned_env(lanes: int) -> Environment:
    return Environment(seed=1, lanes=lanes, engine="global")


class TestShardMap:
    def test_single_lane_collapse(self):
        shard_map = ShardMap(("group-0", "group-1"), 1)
        assert shard_map.single_lane
        assert shard_map.n_lanes == 1
        assert shard_map.lane_of("group-0") == 0
        assert shard_map.lane_of("anything") == 0

    def test_contiguous_blocks(self):
        groups = tuple(f"group-{i}" for i in range(8))
        shard_map = ShardMap(groups, 4)
        assert shard_map.n_lanes == 5
        lanes = [shard_map.lane_of(g) for g in groups]
        assert lanes == [1, 1, 2, 2, 3, 3, 4, 4]
        # Unknown groups (2PC decision instances, ad-hoc preloads) share lane 0.
        assert shard_map.lane_of("_txn/whatever") == 0

    def test_shards_capped_by_groups(self):
        shard_map = ShardMap(("group-0", "group-1"), 8)
        assert shard_map.shards == 2

    def test_node_names(self):
        assert service_node_name("V1", 0) == "svc:V1"
        assert service_node_name("V1", 3) == "svc:V1:3"
        assert store_name("V1", 0) == "store:V1"
        assert store_name("V1", 3) == "store:V1:3"

    def test_ordered_service_names_routes_by_lane(self):
        groups = tuple(f"group-{i}" for i in range(4))
        shard_map = ShardMap(groups, 2)
        names = shard_map.ordered_service_names(
            ["V1", "V2", "V3"], "V2", "group-3"
        )
        assert names == ["svc:V2:2", "svc:V1:2", "svc:V3:2"]

    def test_one_lane_map_gives_the_historic_names(self):
        shard_map = ShardMap(("group-0", "group-1"), 1)
        for group in ("group-1", "_txn/whatever"):
            assert shard_map.ordered_service_names(
                ["V1", "V2", "V3"], "V2", group
            ) == ["svc:V2", "svc:V1", "svc:V3"]
            assert shard_map.service_name("V3", group) == "svc:V3"


class TestLanedSimulator:
    def test_canonical_order_is_time_lane_seq(self):
        env = laned_env(3)
        order = []
        env.timeout(5.0, lane=2).add_callback(lambda e: order.append("l2"))
        env.timeout(5.0, lane=1).add_callback(lambda e: order.append("l1"))
        env.timeout(3.0, lane=2).add_callback(lambda e: order.append("early"))
        env.run()
        assert order == ["early", "l1", "l2"]

    def test_per_lane_seq_breaks_same_lane_ties(self):
        env = laned_env(2)
        order = []
        env.timeout(1.0, lane=1).add_callback(lambda e: order.append("first"))
        env.timeout(1.0, lane=1).add_callback(lambda e: order.append("second"))
        env.run()
        assert order == ["first", "second"]

    def test_single_lane_matches_plain_kernel(self):
        def chain(env, log, tag):
            for _ in range(3):
                yield env.timeout(1.0)
                log.append((tag, env.now))

        logs = []
        for build in (lambda: Environment(seed=1),
                      lambda: laned_env(1)):
            env = build()
            log: list = []
            env.process(chain(env, log, "a"))
            env.process(chain(env, log, "b"))
            env.run()
            logs.append(log)
        assert logs[0] == logs[1]


def busy_lanes(engine: str, lanes: int = 4):
    """Independent lanes full of same-instant ties and in-lane spawns.

    Returns the environment and the trace its events append to: one
    ``(time, lane, lane-seq, tag)`` record per firing, where lane-seq is the
    firing lane's scheduling counter — the state every later key in that
    lane is stamped from.
    """
    env = Environment(seed=1, lanes=lanes, engine=engine)
    env.sim.independent_lanes = True
    trace: list[tuple] = []

    def note(tag):
        lane = env.sim.current_lane
        trace.append((env.now, lane, env.sim._seqs[lane], tag))

    def child(tag):
        yield env.timeout(0.5)
        note(tag)

    def chain(tag, hops, step):
        for hop in range(hops):
            yield env.timeout(step)
            note((tag, hop))
            if hop % 3 == 0:
                env.process(child((tag, hop, "child")))

    for lane in range(1, lanes):
        # Two chains per lane with commensurable steps: plenty of ties.
        env.process(chain(f"a{lane}", 9, 1.0), lane=lane)
        env.process(chain(f"b{lane}", 6, 1.5), lane=lane)
    return env, trace


def by_lane(trace):
    lanes: dict[int, list] = {}
    for record in trace:
        lanes.setdefault(record[1], []).append(record)
    return lanes


class TestLaneByLane:
    def test_independent_lanes_fire_the_single_heap_keys(self):
        reference_env, reference = busy_lanes("global")
        reference_env.run()
        env, trace = busy_lanes("sharded")
        env.run()
        assert by_lane(trace) == by_lane(reference)
        # Same events, regrouped: lane 1 to completion, then lane 2, ...
        assert trace == sorted(reference, key=lambda record: record[1])
        assert trace != reference
        assert env.sim._seqs == reference_env.sim._seqs
        assert env.now == reference_env.now
        assert env.sim.processed_events == reference_env.sim.processed_events

    def test_lane_events_are_a_by_product_of_the_drain(self):
        reference_env, _trace = busy_lanes("global")
        reference_env.run()
        assert reference_env.sim.lane_events is None
        env, _trace = busy_lanes("sharded")
        env.run()
        counts = env.sim.lane_events
        assert counts[0] == 0 and counts[1] == counts[2] == counts[3] > 0
        assert sum(counts) == env.sim.processed_events

    def test_run_until_then_run_loses_and_repeats_nothing(self):
        reference_env, reference = busy_lanes("global")
        reference_env.run()
        env, trace = busy_lanes("sharded")
        env.run(until=4.0)
        assert env.now == 4.0
        fired = len(trace)
        assert 0 < fired < len(reference)
        assert all(record[0] <= 4.0 for record in trace)
        # What is left sits in one heap again, from every busy lane.
        assert env.sim.peek() > 4.0
        env.run()
        assert {record[1] for record in trace[fired:]} == {1, 2, 3}
        assert all(record[0] > 4.0 for record in trace[fired:])
        assert by_lane(trace) == by_lane(reference)
        assert env.now == reference_env.now >= 4.0
        assert env.sim.processed_events == reference_env.sim.processed_events

    def test_run_until_advances_the_clock_when_idle(self):
        env = Environment(seed=1, lanes=2, engine="sharded")
        env.sim.independent_lanes = True
        fired = []
        env.timeout(4.0, lane=1).add_callback(lambda e: fired.append(env.now))
        env.run(until=2.0)
        assert fired == [] and env.now == 2.0
        env.run(until=10.0)
        assert fired == [4.0] and env.now == 10.0
        with pytest.raises(ValueError, match="backwards"):
            env.run(until=5.0)

    def test_dependent_lanes_keep_the_single_heap(self):
        """Lanes not marked independent under "sharded" are the reference
        drain: the merged firing order, not just each lane's, matches
        "global"."""

        def run(engine):
            env = Environment(seed=1, lanes=2, engine=engine)
            trace: list[tuple] = []

            class Poke(Notification):
                __slots__ = ()

                def _process(self) -> None:
                    trace.append(("poke", env.sim.current_lane, env.now))

            def ping():
                for _ in range(5):
                    yield env.timeout(0.7)
                    trace.append(("ping", env.sim.current_lane, env.now))
                    env.sim.schedule_in_lane(Poke(), 1.5, 1)

            def local():
                for _ in range(5):
                    yield env.timeout(1.1)
                    trace.append(("local", env.sim.current_lane, env.now))

            env.process(ping(), lane=0)
            env.process(local(), lane=1)
            env.run()
            assert env.sim.lane_events is None
            return trace

        assert run("global") == run("sharded")

    def test_single_lane_gets_the_plain_kernel(self):
        for engine in ("global", "sharded"):
            assert type(Environment(lanes=1, engine=engine).sim) is Simulator
            assert type(Environment(lanes=2, engine=engine).sim) is LanedSimulator


class TestLaneIsolation:
    @pytest.mark.parametrize("engine", ("global", "sharded"))
    def test_independent_lanes_forbid_every_cross_lane_send(self, engine):
        env = Environment(seed=1, lanes=2, engine=engine)
        env.sim.independent_lanes = True

        def offender(env):
            yield env.timeout(1.0)
            env.sim.schedule_in_lane(env.event().succeed(), 0.0, 0)

        env.process(offender(env), lane=1)
        with pytest.raises(RuntimeError, match="lane isolation violated"):
            env.run()
        # The failed drain put every pending event back on the one heap.
        assert env.sim.executing_lane is None

    def test_dependent_lanes_admit_cross_lane_sends(self):
        env = laned_env(2)
        fired = []

        def sender(env):
            yield env.timeout(1.0)
            env.timeout(2.0, lane=1).add_callback(
                lambda e: fired.append((env.sim.current_lane, env.now))
            )

        env.process(sender(env), lane=0)
        env.run()
        assert fired == [(1, 3.0)]
