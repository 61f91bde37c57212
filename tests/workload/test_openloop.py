"""The open-loop traffic engine: arrivals, users, admission, determinism."""

from __future__ import annotations

from dataclasses import replace
from random import Random

import pytest

from repro.config import ClusterConfig, PlacementConfig, WorkloadConfig
from repro.harness.experiment import ExperimentSpec, run_once
from repro.harness.parallel import metrics_digest, run_cells
from repro.workload.openloop import LogicalUserModel, PoissonArrivals


def arrival_times(process, seed: int, horizon: float) -> list[float]:
    rng = Random(seed)
    times, t = [], 0.0
    while True:
        t += process.next_interarrival(rng, t)
        if t >= horizon:
            return times
        times.append(t)


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------


def test_arrival_sequences_are_seed_stable():
    make = lambda: PoissonArrivals(0.05)  # noqa: E731
    a = arrival_times(make(), seed=42, horizon=20_000.0)
    b = arrival_times(make(), seed=42, horizon=20_000.0)
    c = arrival_times(make(), seed=43, horizon=20_000.0)
    assert a == b, "same seed must reproduce the identical arrival stream"
    assert a != c, "different seeds must diverge"
    assert len(a) > 100


def test_poisson_rate_is_respected():
    times = arrival_times(PoissonArrivals(0.1), seed=7, horizon=100_000.0)
    # 0.1/ms over 100s -> ~10000 arrivals; Poisson sd ~100.
    assert 9_500 <= len(times) <= 10_500


# ----------------------------------------------------------------------
# Logical users
# ----------------------------------------------------------------------


def test_user_model_is_skewed_and_bounded():
    users = LogicalUserModel(1_000_000, theta=0.99)
    rng = Random(3)
    draws = [users.sample_user(rng) for _ in range(5_000)]
    assert all(0 <= user < 1_000_000 for user in draws)
    top = sum(1 for user in draws if user < 10)
    # Zipf(0.99) puts a large share on the head ranks; uniform would give
    # 10/1e6 of the mass (~0 draws in 5000).
    assert top > 500


def test_zipf_sampler_matches_exact_distribution_on_small_n():
    # The O(1) sampler's hybrid zetan vs an exact small population.
    users = LogicalUserModel(100, theta=0.6)
    rng = Random(11)
    counts = [0] * 100
    for _ in range(20_000):
        counts[users.sample_user(rng)] += 1
    assert counts[0] > counts[10] > counts[90]
    expected_head = sum(1.0 / (r + 1) ** 0.6 for r in range(10)) / sum(
        1.0 / (r + 1) ** 0.6 for r in range(100)
    )
    head = sum(counts[:10]) / 20_000
    assert abs(head - expected_head) < 0.05


# ----------------------------------------------------------------------
# End-to-end
# ----------------------------------------------------------------------


def open_spec(**overrides) -> ExperimentSpec:
    workload = dict(
        open_loop=True, n_users=1_000_000, offered_load=120.0, pool_size=8,
        max_pending=3, open_duration_ms=1_200.0, n_rows=8,
    )
    workload.update(overrides.pop("workload", {}))
    spec = dict(
        name="openloop-test",
        cluster=ClusterConfig(
            placement=PlacementConfig.ranged(4, key_universe=8),
        ),
        workload=WorkloadConfig(**workload),
        protocol="paxos-cp",
        check_invariants=False,
    )
    spec.update(overrides)
    return ExperimentSpec(**spec)


def test_open_loop_accounting_balances():
    result = run_once(open_spec(), seed=3)
    stats = result.metrics.open_loop
    assert stats is not None
    assert stats.offered == stats.admitted + stats.dropped
    assert stats.completed == stats.admitted
    assert result.metrics.n_transactions == stats.completed
    assert stats.peak_pending <= 3
    assert len(result.outcomes) == stats.completed
    assert result.metrics.commits > 0
    assert result.metrics.commit_latency.p99_ms >= result.metrics.commit_latency.p50_ms


def test_open_loop_overload_drops():
    result = run_once(
        open_spec(workload={"offered_load": 2_000.0}), seed=3
    )
    stats = result.metrics.open_loop
    assert stats.dropped > 0, "10x overload must trip the admission control"
    assert stats.peak_pending == 3


def test_checked_run_matches_unchecked_run():
    unchecked = open_spec()
    checked = replace(unchecked, check_invariants=True)
    a = run_once(unchecked, seed=5)
    b = run_once(checked, seed=5)
    assert len(b.outcomes) == b.metrics.n_transactions > 0
    # The invariant suite only reads the run: same metrics either way.
    assert repr(a.metrics) == repr(b.metrics)
    # Outcomes are re-anchored at the arrival: latency == response.
    assert all(o.latency_ms >= 0 for o in b.outcomes)


def test_serial_and_parallel_digests_match():
    specs = [open_spec(), open_spec(workload={"offered_load": 600.0})]
    serial = run_cells(specs, trials=2, base_seed=11, jobs=1)
    parallel = run_cells(specs, trials=2, base_seed=11, jobs=2)
    assert metrics_digest(serial) == metrics_digest(parallel)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


def test_open_loop_rejects_cross_group_fractions():
    with pytest.raises(ValueError, match="cross_group_fraction"):
        open_spec(workload={"cross_group_fraction": 0.1})
    with pytest.raises(ValueError, match="queue_fraction"):
        open_spec(workload={"queue_fraction": 0.1})


def test_open_loop_rejects_sharded_clusters():
    # Caught when the spec is built — no cluster is ever constructed.
    with pytest.raises(ValueError, match="single-lane"):
        open_spec(cluster=ClusterConfig(
            placement=PlacementConfig.ranged(4, key_universe=8),
            shards=2, engine="sharded",
        ))


def test_open_loop_rejects_per_datacenter():
    with pytest.raises(ValueError, match="per_datacenter"):
        spec = replace(open_spec(), per_datacenter_instances=True)
        run_once(spec, seed=0)
