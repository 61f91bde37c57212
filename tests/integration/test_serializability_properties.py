"""Property-based end-to-end serializability (the paper's Theorems 2 & 3).

For randomized workloads, seeds, cluster shapes, protocols, message-loss
rates, and injected outages, the full stack must preserve:

* (R1) replica agreement, (L1)–(L3), read-only snapshot consistency —
  via the log-replay invariant checkers; and
* one-copy serializability of the *observed* history — via the independent
  MVSG oracle.

These run the entire system (client library, services, Paxos, the store,
the network), so each example is a complete multi-datacenter simulation.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import WorkloadConfig
from repro.failures import FailureInjector
from repro.workload.driver import WorkloadDriver
from tests.conftest import make_cluster

GROUP = "group-0"

workloads = st.fixed_dictionaries({
    "n_transactions": st.integers(min_value=5, max_value=25),
    "ops_per_transaction": st.integers(min_value=1, max_value=8),
    "n_attributes": st.sampled_from([3, 10, 50]),
    "n_threads": st.integers(min_value=1, max_value=4),
    "target_rate_per_thread": st.sampled_from([2.0, 8.0, 30.0]),
    "read_fraction": st.sampled_from([0.0, 0.5, 0.9]),
})

common_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def execute(cluster, protocol, workload_params):
    workload = WorkloadConfig(stagger_ms=5.0, **workload_params)
    driver = WorkloadDriver(cluster, workload, protocol)
    driver.install_data()
    driver.start()
    cluster.run()
    return driver.result.outcomes


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    protocol=st.sampled_from(["paxos", "paxos-cp"]),
    code=st.sampled_from(["VV", "VVV", "COV"]),
    params=workloads,
)
@common_settings
def test_random_workloads_stay_one_copy_serializable(seed, protocol, code, params):
    cluster = make_cluster(code, seed=seed, instant_store=False)
    outcomes = execute(cluster, protocol, params)
    assert len(outcomes) == params["n_transactions"]
    cluster.check_invariants_all(outcomes, cluster.settle())


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    protocol=st.sampled_from(["paxos", "paxos-cp"]),
    loss=st.sampled_from([0.02, 0.10]),
    params=workloads,
)
@common_settings
def test_serializable_under_message_loss(seed, protocol, loss, params):
    cluster = make_cluster("VVV", seed=seed, loss=loss, instant_store=False)
    outcomes = execute(cluster, protocol, params)
    cluster.check_invariants_all(outcomes, cluster.settle())


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    protocol=st.sampled_from(["paxos", "paxos-cp"]),
    victim=st.sampled_from(["V1", "V2", "V3"]),
    outage_start=st.sampled_from([0.0, 500.0, 2_000.0]),
    params=workloads,
)
@common_settings
def test_serializable_under_minority_outage(seed, protocol, victim,
                                            outage_start, params):
    cluster = make_cluster("VVV", seed=seed, instant_store=False)
    injector = FailureInjector(cluster)
    injector.outage(victim, start_ms=outage_start, duration_ms=3_000.0)
    outcomes = execute(cluster, protocol, params)
    cluster.check_invariants_all(outcomes, cluster.settle())


@given(seed=st.integers(min_value=0, max_value=100_000), params=workloads)
@common_settings
def test_leased_leader_serializable(seed, params):
    cluster = make_cluster("VVV", seed=seed, instant_store=False)
    outcomes = execute(cluster, "leased-leader", params)
    cluster.check_invariants_all(outcomes, cluster.settle())
