"""Shared fixtures.

Unit tests default to *instant* stores (zero per-operation latency) and the
paper's RTT matrix with zero jitter, so protocol logic is tested without
calibration noise.  Integration tests opt back into the calibrated defaults
where the timing matters.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.config import ClusterConfig, ProtocolConfig, StoreConfig
from repro.sim.env import Environment


@pytest.fixture
def env() -> Environment:
    """A fresh simulation environment with a fixed seed."""
    return Environment(seed=42)


@pytest.fixture(params=["single", "laned", "lane-by-lane"])
def kernel_env(request):
    """One environment per kernel: the heap key layouts differ."""
    if request.param == "single":
        return Environment(seed=42)
    if request.param == "laned":
        return Environment(seed=42, lanes=3, engine="global")
    env = Environment(seed=42, lanes=3, engine="sharded")
    env.sim.independent_lanes = True  # drained one by one
    return env


def make_cluster(
    code: str = "VVV",
    seed: int = 0,
    instant_store: bool = True,
    loss: float = 0.0,
    jitter: float = 0.0,
    **protocol_overrides,
) -> Cluster:
    """A cluster tuned for deterministic unit testing."""
    store = StoreConfig.instant() if instant_store else StoreConfig()
    protocol = ProtocolConfig(**protocol_overrides) if protocol_overrides else ProtocolConfig()
    return Cluster(ClusterConfig(
        cluster_code=code,
        seed=seed,
        loss_probability=loss,
        jitter=jitter,
        store=store,
        protocol=protocol,
    ))


@pytest.fixture
def cluster() -> Cluster:
    """A three-datacenter Virginia cluster with instant stores."""
    return make_cluster("VVV")


def run_txn(cluster: Cluster, client, group: str, reads=(), writes=(), pre_ops=None):
    """Convenience: run one transaction to completion and return the outcome.

    ``reads`` is an iterable of (row, attribute); ``writes`` of
    (row, attribute, value).  ``pre_ops`` is an optional generator function
    run inside the transaction before the reads (for tests that need custom
    sequencing).
    """

    def txn():
        handle = yield from client.begin(group)
        if pre_ops is not None:
            yield from pre_ops(handle)
        for row, attribute in reads:
            yield from client.read(handle, row, attribute)
        for row, attribute, value in writes:
            client.write(handle, row, attribute, value)
        outcome = yield from client.commit(handle)
        return outcome

    process = cluster.env.process(txn())
    cluster.run()
    if not process.ok:
        raise process.value
    return process.value
