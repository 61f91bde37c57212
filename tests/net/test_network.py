"""Tests for the unreliable network."""

import pytest

from repro.errors import UnknownDatacenter
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.net.node import Node
from repro.net.topology import cluster_preset
from repro.sim.env import Environment


def make_net(env, loss=0.0, delay=1.0, code="COV"):
    topology = cluster_preset(code)
    return Network(env, topology, ConstantLatency(delay), loss_probability=loss)


def wire(env, network):
    received = []
    nodes = {}
    for dc in network.topology.names:
        node = Node(env, network, f"node:{dc}", dc)
        node.on("ping", lambda msg, d=dc: received.append((d, msg.payload, env.now)))
        nodes[dc] = node
    return nodes, received


class TestDelivery:
    def test_message_arrives_after_delay(self, env):
        network = make_net(env, delay=2.5)
        nodes, received = wire(env, network)
        nodes["C"].send("node:O", "ping", payload="hello")
        env.run()
        assert received == [("O", "hello", 2.5)]

    def test_unknown_destination_raises(self, env):
        network = make_net(env)
        nodes, _ = wire(env, network)
        with pytest.raises(UnknownDatacenter):
            nodes["C"].send("node:nowhere", "ping")

    def test_duplicate_node_name_rejected(self, env):
        network = make_net(env)
        Node(env, network, "dup", "C")
        with pytest.raises(ValueError):
            Node(env, network, "dup", "O")

    def test_unknown_message_type_dropped(self, env):
        network = make_net(env)
        nodes, received = wire(env, network)
        nodes["C"].send("node:O", "no-such-handler", payload=1)
        env.run()  # must not raise
        assert received == []

    def test_stats_count_sends_and_deliveries(self, env):
        network = make_net(env)
        nodes, _ = wire(env, network)
        for _ in range(3):
            nodes["C"].send("node:O", "ping")
        env.run()
        assert network.stats.sent == 3
        assert network.stats.delivered == 3
        assert network.stats.by_type["ping"] == 3


class TestLoss:
    def test_zero_loss_delivers_everything(self, env):
        network = make_net(env, loss=0.0)
        nodes, received = wire(env, network)
        for _ in range(50):
            nodes["C"].send("node:O", "ping")
        env.run()
        assert len(received) == 50

    def test_loss_probability_drops_fraction(self, env):
        network = make_net(env, loss=0.5)
        nodes, received = wire(env, network)
        for _ in range(400):
            nodes["C"].send("node:O", "ping")
        env.run()
        assert 120 < len(received) < 280
        assert network.stats.dropped_loss == 400 - len(received)

    def test_invalid_loss_rejected(self, env):
        with pytest.raises(ValueError):
            make_net(env, loss=1.0)


class TestOutages:
    def test_down_datacenter_receives_nothing(self, env):
        network = make_net(env)
        nodes, received = wire(env, network)
        network.take_down("O")
        nodes["C"].send("node:O", "ping")
        env.run()
        assert received == []
        assert network.stats.dropped_outage == 1

    def test_down_datacenter_sends_nothing(self, env):
        network = make_net(env)
        nodes, received = wire(env, network)
        network.take_down("C")
        nodes["C"].send("node:O", "ping")
        env.run()
        assert received == []

    def test_bring_up_restores_delivery(self, env):
        network = make_net(env)
        nodes, received = wire(env, network)
        network.take_down("O")
        network.bring_up("O")
        nodes["C"].send("node:O", "ping")
        env.run()
        assert len(received) == 1

    def test_outage_during_flight_drops_message(self, env):
        network = make_net(env, delay=5.0)
        nodes, received = wire(env, network)
        nodes["C"].send("node:O", "ping")
        env.run(until=1.0)
        network.take_down("O")
        env.run()
        assert received == []

    def test_destination_down_in_flight_is_one_outage_drop(self, env):
        # The send passes the outage check; the arrival re-checks it, counts
        # the message once as an outage drop, and never hands it over.
        network = make_net(env, delay=5.0)
        nodes, received = wire(env, network)
        nodes["C"].send("node:O", "ping")
        assert network.stats.dropped == 0
        env.run(until=1.0)
        network.take_down("O")
        env.run()
        assert received == []
        assert (network.stats.dropped_outage, network.stats.dropped) == (1, 1)
        assert network.stats.delivered == 0

    def test_destination_down_in_flight_across_lanes(self):
        # The same on a laned kernel: the message crosses into the
        # destination's lane and is checked against that lane's view.
        env = Environment(seed=0, lanes=2)
        network = make_net(env, delay=5.0)
        received = []
        sender = Node(env, network, "sender", "C", lane=0)
        receiver = Node(env, network, "receiver", "O", lane=1)
        receiver.on("ping", received.append)
        sender.send("receiver", "ping")
        env.run(until=1.0)
        network.take_down("O", lane=1)
        env.run()
        assert received == []
        assert (network.stats.dropped_outage, network.stats.delivered) == (1, 0)

    def test_is_down_flag(self, env):
        network = make_net(env)
        network.take_down("O")
        assert network.is_down("O")
        assert not network.is_down("C")


class TestPartitions:
    def test_severed_link_blocks_both_directions(self, env):
        network = make_net(env)
        nodes, received = wire(env, network)
        network.sever("C", "O")
        nodes["C"].send("node:O", "ping")
        nodes["O"].send("node:C", "ping")
        env.run()
        assert received == []
        assert network.stats.dropped_partition == 2

    def test_other_links_unaffected(self, env):
        network = make_net(env)
        nodes, received = wire(env, network)
        network.sever("C", "O")
        nodes["C"].send("node:V1", "ping")
        env.run()
        assert [r[0] for r in received] == ["V1"]

    def test_heal_restores_link(self, env):
        network = make_net(env)
        nodes, received = wire(env, network)
        network.sever("C", "O")
        network.heal("C", "O")
        nodes["C"].send("node:O", "ping")
        env.run()
        assert len(received) == 1
