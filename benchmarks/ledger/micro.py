"""Isolated micro-drives: one layer alone, no protocol above it.

A workload's ``sim.self_share`` says how much of a cell the kernel costs;
these say how fast the kernel and the network *are*, so a change to either
shows here first and undiluted.  Each drive runs a few times in the calling
process and reports the median rate per CPU second.
"""

from __future__ import annotations

import time
from statistics import median

from repro.net.latency import RttMatrixLatency
from repro.net.network import Network
from repro.net.node import Node
from repro.net.topology import cluster_preset
from repro.sim.env import Environment

REPEATS = 3
CHAIN_PROCESSES, CHAIN_HOPS = 100, 2000
PINGPONG_MESSAGES = 20_000


def chain_events_per_s() -> float:
    """Kernel alone: 100 processes × 2000 timeout hops on the global engine."""

    def chain(env: Environment):
        for _ in range(CHAIN_HOPS):
            yield env.timeout(1.0)

    rates = []
    for _ in range(REPEATS):
        env = Environment(seed=1)
        for _ in range(CHAIN_PROCESSES):
            env.process(chain(env))
        started = time.process_time()
        env.run()
        rates.append(env.sim.processed_events / (time.process_time() - started))
    return median(rates)


def pingpong_msgs_per_s() -> float:
    """Network alone: sequential request/response between V1 and V2."""
    rates = []
    for _ in range(REPEATS):
        env = Environment(seed=1)
        topology = cluster_preset("VVV")
        network = Network(env, topology, RttMatrixLatency(topology))
        client = Node(env, network, "client", topology.names[0])
        server = Node(env, network, "server", topology.names[1])
        server.on("ping", lambda msg: msg.payload)

        def pinger():
            for index in range(PINGPONG_MESSAGES):
                yield client.request("server", "ping", index)

        env.process(pinger())
        started = time.process_time()
        env.run()
        rates.append(network.stats.sent / (time.process_time() - started))
    return median(rates)
