"""A one-destination request's reply slot, and the network's cached routes.

``Node.request`` returns a :class:`Reply`: the first copy of the reply
settles it, and the loss-detection deadline settles it with ``None``.
``Network.send`` resolves each (src, dst) name pair to a route once; fault
state (outages, severed links, loss) is read on every send, never cached in
the route.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.config import ClusterConfig, StoreConfig
from repro.net.latency import ConstantLatency, RttMatrixLatency
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import Node, Reply
from repro.net.topology import cluster_preset
from repro.sim.env import Environment


def pair(env, duplicate=0.0, lane=0):
    network = Network(env, cluster_preset("VVVOC"), ConstantLatency(1.0),
                      duplicate_probability=duplicate)
    server = Node(env, network, "server", "V1", lane=lane)
    client = Node(env, network, "client", "V2", lane=lane)
    return network, server, client


class TestReplySlot:
    def test_duplicated_reply_settles_once_with_the_first_copy(self, env):
        network, server, client = pair(env)
        answers = iter(["first", "second"])

        def handler(msg):
            yield env.timeout(1.0)
            return next(answers)

        server.on("q", handler)
        reply = client.request("server", "q", timeout_ms=100.0)
        woken = []
        reply.add_callback(lambda event: woken.append(event.value.payload))
        # The request arrives twice (as a UDP duplicate would), so the server
        # answers twice; both replies land at 3 ms, and the one delivered
        # first settles the slot.
        network.send(Message("client", "server", "q", None, reply._request_id))
        env.run()
        assert isinstance(reply, Reply)
        assert reply.value.payload == "first"
        assert woken == ["first"]
        assert network.stats.delivered == 4  # both copies did arrive
        assert not client._pending

    def test_network_duplicates_settle_one_request_once(self):
        env = Environment(seed=3)
        network, server, client = pair(env, duplicate=0.5)
        server.on("q", lambda msg: msg.payload)
        woken = []

        def requester():
            for index in range(40):
                reply = yield client.request("server", "q", index)
                woken.append(reply.payload)

        env.process(requester())
        env.run()
        assert network.stats.duplicated > 10
        assert woken == list(range(40))
        assert not client._pending

    def test_reply_after_the_deadline_is_dropped(self, env):
        network, server, client = pair(env)

        def handler(msg):
            yield env.timeout(50.0)
            return "late"

        server.on("q", handler)
        reply = client.request("server", "q", timeout_ms=10.0)
        settled_at = []
        reply.add_callback(lambda event: settled_at.append(env.now))
        env.run()
        assert settled_at == [10.0]
        assert reply.value is None
        assert network.stats.delivered == 2  # the late reply arrived, unused
        assert not client._pending

    def test_deadline_settles_a_slot_a_crash_cleared(self):
        cluster = Cluster(ClusterConfig(
            cluster_code="VVV", seed=0, store=StoreConfig.instant(), jitter=0.0,
        ))
        env = cluster.env
        slow = Node(env, cluster.network, "slow", "V2")

        def handler(msg):
            yield env.timeout(30.0)
            return "late"

        slow.on("q", handler)
        node = cluster.services["V1"].node
        reply = node.request("slow", "q", timeout_ms=100.0)
        settled_at = []
        reply.add_callback(lambda event: settled_at.append(env.now))
        env.timeout(5.0).add_callback(lambda _e: cluster.crash_service("V1"))
        env.timeout(10.0).add_callback(lambda _e: cluster.restart_service("V1"))
        cluster.run()
        # The crash emptied the correlation table, so the reply that reached
        # the restarted node at ≈ 31.5 ms found no slot; the deadline still
        # fired and settled it with nothing.
        assert not node.down
        assert settled_at == [100.0]
        assert reply.value is None
        assert not node._pending


@pytest.mark.parametrize("lanes", (1, 2), ids=("single-lane", "laned"))
class TestRoutes:
    def build(self, lanes):
        env = Environment(seed=0, lanes=lanes)
        lane = lanes - 1
        network, server, _client = pair(env, lane=lane)
        arrivals = []
        server.on("note", lambda msg: arrivals.append(msg.payload))
        return env, network, arrivals

    def send(self, env, network, payload, src="client"):
        network.send(Message(src, "server", "note", payload))
        env.run()

    def test_a_cached_route_still_honours_every_fault(self, lanes):
        env, network, arrivals = self.build(lanes)
        self.send(env, network, "before")
        route = network._routes["client"]["server"]
        stats = network.stats

        network.take_down("V1")
        self.send(env, network, "down")
        assert stats.dropped_outage == 1
        network.bring_up("V1")

        network.sever("V1", "V2")
        self.send(env, network, "severed")
        assert stats.dropped_partition == 1
        network.heal("V1", "V2")

        network.set_loss(0.9)
        for index in range(20):
            self.send(env, network, f"lossy-{index}")
        assert stats.dropped_loss > 10
        network.set_loss(0.0)

        self.send(env, network, "after")
        assert network._routes["client"]["server"] is route
        assert arrivals[0] == "before" and arrivals[-1] == "after"
        assert "down" not in arrivals and "severed" not in arrivals
        assert len(arrivals) == 2 + 20 - stats.dropped_loss

    def test_a_datacenter_name_as_source_still_routes(self, lanes):
        env, network, arrivals = self.build(lanes)
        self.send(env, network, "from-a-datacenter", src="V3")
        assert arrivals == ["from-a-datacenter"]
        # The route's source end is that datacenter: its outage drops it.
        network.take_down("V3")
        self.send(env, network, "dropped", src="V3")
        assert arrivals == ["from-a-datacenter"]
        assert network.stats.dropped_outage == 1


def test_a_datacenter_source_draws_its_own_path_delay():
    env = Environment(seed=0)
    topology = cluster_preset("COV")
    network = Network(env, topology, RttMatrixLatency(topology, jitter=0.0))
    server = Node(env, network, "server", "V1")
    arrived = []
    server.on("note", lambda msg: arrived.append(env.now))
    network.send(Message("C", "server", "note"))
    env.run()
    assert arrived == [RttMatrixLatency(topology).base_rtt("C", "V1") / 2.0]


def test_a_node_registered_later_replaces_a_datacenter_route():
    env = Environment(seed=0)
    network, server, _client = pair(env)
    server.on("note", lambda msg: None)
    network.send(Message("V3", "server", "note"))
    assert network._routes["V3"]["server"][1] == "V3"
    # A node named like the source arrives: the old route must not be used.
    Node(env, network, "V3", "V2")
    network.send(Message("V3", "server", "note"))
    assert network._routes["V3"]["server"][1] == "V2"
