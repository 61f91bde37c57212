"""The inlined draws are the standard library's, bit for bit.

A store operation's latency (``_StoreOp``) and a message's jitter factor
(``RttMatrixLatency.jittered``, which ``one_way_delay`` and every route
``Network.send`` caches draw through) are drawn once each per operation and
per message, so both inline what ``random.Random.uniform`` and
``random.Random.gauss`` compute instead of calling them.  Every simulated
number depends on those floats and on the stream position after each draw,
so the inline forms must be exact, not merely equal in distribution.  Each
test draws 10 000 values on a stream and the same count on a twin stream the
stdlib way, with ``random()`` coins (the network's loss and duplication
tests) mixed in at random points on both; an odd number of Gaussian draws
between two coins is what exercises the stream's parked second normal.  CI
runs tier-1 on two CPython versions, so a stdlib change fails here.

The workload's operation generator (``YcsbWorkload._make_ops``) inlines
``random.Random.randrange`` the same way, and is held to the same standard:
10 000 generated transactions against a twin that calls ``randrange``.
"""

from __future__ import annotations

import random

import pytest

from repro.config import WorkloadConfig
from repro.kvstore.service import StoreAccessor, StoreLatencyModel
from repro.kvstore.store import MultiVersionStore
from repro.net.latency import RttMatrixLatency
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import Node
from repro.net.topology import cluster_preset
from repro.sim.env import Environment
from repro.sim.rng import derive_seed
from repro.workload.ycsb import Operation, YcsbWorkload

DRAWS = 10_000
SEEDS = (0, 1, 7, 2024)


def coin_points(seed: int) -> set[int]:
    """Where, among the draws, a ``random()`` coin goes first."""
    chooser = random.Random(seed ^ 0x5EED)
    return {index for index in range(DRAWS) if chooser.random() < 0.3}


@pytest.mark.parametrize("seed", SEEDS)
def test_store_latency_is_uniform_bit_for_bit(seed):
    env = Environment(seed=seed)
    model = StoreLatencyModel(10.0, 24.0)
    accessor = StoreAccessor(env, MultiVersionStore("draws"), model,
                             rng_stream="draws")
    stream = env.rng.stream("draws")
    twin = random.Random(derive_seed(seed, "draws"))
    coins = coin_points(seed)
    expected = []
    for index in range(DRAWS):
        if index in coins:
            assert stream.random() == twin.random()
        accessor.read("row")
        expected.append(model.draw(twin))  # rng.uniform(low, high)
    # Nothing has run, so each heap key is 0.0 + the drawn delay, and the
    # sequence number is the order the operations were issued in.
    queued = sorted(env.sim._queue, key=lambda entry: entry[1])
    assert [entry[0] for entry in queued] == expected
    assert stream.getstate() == twin.getstate()


@pytest.mark.parametrize("jitter", (0.08, 0.3))
@pytest.mark.parametrize("seed", SEEDS)
def test_jitter_factor_is_gauss_bit_for_bit(seed, jitter):
    model = RttMatrixLatency(cluster_preset("COV"), jitter=jitter)
    base = model.base_rtt("C", "V1") / 2.0
    floor = max(0.5, 1.0 - 2.0 * jitter)
    stream = random.Random(seed)
    twin = random.Random(seed)
    coins = coin_points(seed)
    for index in range(DRAWS):
        if index in coins:
            assert stream.random() == twin.random()
        factor = twin.gauss(1.0, jitter)
        assert model.one_way_delay("C", "V1", stream) == base * max(factor, floor)
    assert stream.getstate() == twin.getstate()
    assert stream.gauss_next == twin.gauss_next


@pytest.mark.parametrize("lanes", (1, 3), ids=("single-lane", "laned"))
@pytest.mark.parametrize("seed", SEEDS)
def test_delays_drawn_through_the_route_are_one_way_delay(seed, lanes):
    # ``Network.send`` draws a message's delay on its cached route
    # (``RttMatrixLatency.path``'s half-RTT), after the loss and duplication
    # coins; the delays it schedules must be ``one_way_delay``'s on a twin
    # stream, coins included, on both of its paths.
    env = Environment(seed=seed, lanes=lanes)
    topology = cluster_preset("COV")
    model = RttMatrixLatency(topology)
    loss, duplicate = 0.2, 0.3
    network = Network(env, topology, model, loss_probability=loss,
                      duplicate_probability=duplicate)
    lane = lanes - 1
    Node(env, network, "src", "C", lane=lane)
    Node(env, network, "dst", "V1", lane=lane)
    stream = env.rng.stream("net" if lane == 0 else f"net.l{lane}")
    twin = random.Random(derive_seed(seed, "net" if lane == 0 else f"net.l{lane}"))
    expected = []
    for _index in range(DRAWS):
        network.send(Message("src", "dst", "note"))
        if twin.random() < loss:
            continue
        copies = 2 if twin.random() < duplicate else 1
        for _copy in range(copies):
            expected.append(model.one_way_delay("C", "V1", twin))
    # Nothing has run: each heap key is 0.0 + the drawn delay, and the
    # sequence number (index 1 of a single-lane heap entry, 2 of a laned
    # one) is the order the deliveries were scheduled in.
    seq = 1 if lanes == 1 else 2
    queued = sorted(env.sim._queue, key=lambda entry: entry[seq])
    assert [entry[0] for entry in queued] == expected
    messages = {id(entry[-1]) for entry in queued}
    assert network.stats.dropped_loss + len(messages) == DRAWS
    assert stream.getstate() == twin.getstate()
    assert stream.gauss_next == twin.gauss_next


def reference_ops(workload: YcsbWorkload, rows: list[str]) -> list[Operation]:
    """``_make_ops`` as the standard library's ``randrange`` computes it."""
    rng = workload.rng
    config = workload.config
    ops = []
    for _index in range(config.ops_per_transaction):
        kind = "read" if rng.random() < config.read_fraction else "write"
        row = rows[rng.randrange(len(rows))]
        if config.distribution == "zipfian":
            attribute = workload._zipf.next(rng)
        else:
            attribute = rng.randrange(config.n_attributes)
        ops.append(Operation(kind=kind, row=row,
                             attribute=workload.attribute_name(attribute)))
    return ops


@pytest.mark.parametrize("n_rows", (1, 8, 64))
@pytest.mark.parametrize("distribution", ("uniform", "zipfian"))
@pytest.mark.parametrize("seed", (0, 7))
def test_op_generator_is_randrange_bit_for_bit(seed, distribution, n_rows):
    # n_rows == 1 is the edge: randrange(1) still draws getrandbits(1)
    # until it reads 0, so even a one-row draw moves the stream.
    config = WorkloadConfig(n_rows=n_rows, distribution=distribution)
    workload = YcsbWorkload(config, random.Random(seed))
    twin = YcsbWorkload(config, random.Random(seed))
    rows = [workload.row_name(index) for index in range(n_rows)]
    for _transaction in range(DRAWS):
        assert workload._make_ops(rows) == reference_ops(twin, rows)
    assert workload.rng.getstate() == twin.rng.getstate()
