"""Tests for message duplication (UDP semantics) and vote de-duplication."""

import pytest

from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.net.node import Node
from repro.net.topology import cluster_preset
from tests.conftest import make_cluster, run_txn


def make_net(env, duplicate=0.5):
    topology = cluster_preset("VVV")
    return Network(env, topology, ConstantLatency(1.0),
                   duplicate_probability=duplicate)


class TestDuplication:
    def test_duplicates_delivered_twice(self, env):
        network = make_net(env, duplicate=0.999)
        received = []
        server = Node(env, network, "server", "V1")
        server.on("ping", lambda msg: received.append(msg.msg_id))
        client = Node(env, network, "client", "V2")
        client.send("server", "ping")
        env.run()
        assert len(received) == 2
        assert received[0] == received[1]
        assert network.stats.duplicated == 1

    def test_duplicate_is_one_message_scheduled_and_delivered_twice(self, env):
        # A message is its own queue entry: the copy the network makes is
        # the same object, pushed twice (each on its own path delay).
        network = make_net(env, duplicate=0.999)
        received = []
        server = Node(env, network, "server", "V1")
        server.on("ping", received.append)
        client = Node(env, network, "client", "V2")
        client.send("server", "ping", "body")
        queued = [entry[-1] for entry in env.sim._queue]
        assert len(queued) == 2 and queued[0] is queued[1]
        env.run()
        assert len(received) == 2
        assert received[0] is received[1] is queued[0]
        assert (network.stats.sent, network.stats.delivered) == (1, 2)
        assert env.sim.processed_events == 2

    def test_zero_probability_never_duplicates(self, env):
        network = make_net(env, duplicate=0.0)
        received = []
        server = Node(env, network, "server", "V1")
        server.on("ping", lambda msg: received.append(msg.msg_id))
        client = Node(env, network, "client", "V2")
        for _ in range(100):
            client.send("server", "ping")
        env.run()
        assert len(received) == 100

    def test_invalid_probability_rejected(self, env):
        with pytest.raises(ValueError):
            make_net(env, duplicate=1.0)

    def test_gather_counts_each_source_once(self, env):
        """A duplicated reply must not satisfy a 2-of-3 quorum by itself."""
        network = make_net(env, duplicate=0.999)
        server = Node(env, network, "server", "V1")
        server.on("vote", lambda msg: "ok")
        client = Node(env, network, "client", "V2")

        def proc():
            gather = client.request_many(
                ["server"], "vote",
                enough=lambda rs: len(rs) >= 2,
                timeout_ms=100, grace_ms=0.0,
            )
            responses = yield gather
            return [r.src for r in responses]

        process = env.process(proc())
        env.run()
        # Only one logical source answered, however many copies arrived.
        assert process.value == ["server"]


class TestPaxosUnderDuplication:
    @pytest.mark.parametrize("protocol", ["paxos", "paxos-cp"])
    def test_commits_stay_serializable_with_heavy_duplication(self, protocol):
        cluster = make_cluster(seed=13)
        cluster.network.duplicate_probability = 0.4
        cluster.preload("g", {"row0": {f"a{i}": "init" for i in range(5)}})
        outcomes = []
        for index in range(4):
            client = cluster.add_client(
                cluster.topology.names[index % 3], protocol=protocol
            )
            outcome = run_txn(
                cluster, client, "g",
                reads=[("row0", f"a{index}")],
                writes=[("row0", f"a{index}", f"v{index}")],
            )
            outcomes.append(outcome)
        assert all(o.committed for o in outcomes)
        cluster.check_invariants_all(outcomes, cluster.settle())
