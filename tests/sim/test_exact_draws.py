"""The inlined delay draws are the standard library's, bit for bit.

A store operation's latency (``_StoreOp``) and a message's jitter factor
(``RttMatrixLatency.one_way_delay``) are drawn once each per operation and
per message, so both inline what ``random.Random.uniform`` and
``random.Random.gauss`` compute instead of calling them.  Every simulated
number depends on those floats and on the stream position after each draw,
so the inline forms must be exact, not merely equal in distribution.  Each
test draws 10 000 values on a stream and the same count on a twin stream the
stdlib way, with ``random()`` coins (the network's loss and duplication
tests) mixed in at random points on both; an odd number of Gaussian draws
between two coins is what exercises the stream's parked second normal.  CI
runs tier-1 on two CPython versions, so a stdlib change fails here.
"""

from __future__ import annotations

import random

import pytest

from repro.kvstore.service import StoreAccessor, StoreLatencyModel
from repro.kvstore.store import MultiVersionStore
from repro.net.latency import RttMatrixLatency
from repro.net.topology import cluster_preset
from repro.sim.env import Environment
from repro.sim.rng import derive_seed

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
