"""The open-loop traffic engine: arrivals, users, admission, determinism."""

from __future__ import annotations

from dataclasses import replace
from random import Random

import pytest

from repro.config import ClusterConfig, PlacementConfig, WorkloadConfig
from repro.harness.experiment import ExperimentSpec, run_once
from repro.harness.parallel import metrics_digest, run_cells
from repro.workload.openloop import (
    DiurnalArrivals,
    FlashCrowdArrivals,
    LogicalUserModel,
    PoissonArrivals,
    make_arrival_process,
)


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


ALL_KINDS = ("poisson", "diurnal", "flash")


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_arrival_sequences_are_seed_stable(kind):
    workload = WorkloadConfig(open_loop=True, arrival=kind)
    make = lambda: make_arrival_process(workload, rate_per_ms=0.05)  # noqa: E731
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


def test_diurnal_rate_modulates_with_mean_preserved():
    process = DiurnalArrivals(0.1, period_ms=10_000.0, trough_fraction=0.2)
    times = arrival_times(process, seed=7, horizon=100_000.0)
    assert 9_000 <= len(times) <= 11_000, "time-average rate must stay ~mean"
    # First quarter-period (near the trough) vs the half-period crest.
    trough = sum(1 for t in times if t % 10_000.0 < 2_500.0)
    crest = sum(1 for t in times if 3_750.0 <= t % 10_000.0 < 6_250.0)
    assert crest > 2 * trough


def test_flash_crowd_spikes_in_window():
    process = FlashCrowdArrivals(0.05, flash_at_ms=5_000.0,
                                 flash_duration_ms=2_000.0, multiplier=10.0)
    times = arrival_times(process, seed=7, horizon=20_000.0)
    inside = sum(1 for t in times if 5_000.0 <= t < 7_000.0)
    before = sum(1 for t in times if 3_000.0 <= t < 5_000.0)
    # Same-width windows at 10x vs 1x the base rate.
    assert inside > 4 * max(before, 1)


# ----------------------------------------------------------------------
# Logical users
# ----------------------------------------------------------------------


def test_user_model_is_skewed_and_bounded():
    users = LogicalUserModel(1_000_000, theta=0.99)
    rng = Random(3)
    draws = [users.sample_user(rng, now=0.0) for _ in range(5_000)]
    assert all(0 <= user < 1_000_000 for user in draws)
    top = sum(1 for user in draws if user < 10)
    # Zipf(0.99) puts a large share on the head ranks; uniform would give
    # 10/1e6 of the mass (~0 draws in 5000).
    assert top > 500


def test_hot_spot_migrates_with_time():
    users = LogicalUserModel(1_000_000, theta=0.99, hot_shift_period_ms=1_000.0)
    offset0 = users.hot_offset(0.0)
    offset1 = users.hot_offset(1_500.0)
    offset2 = users.hot_offset(2_500.0)
    assert offset0 == 0
    assert len({offset0, offset1, offset2}) == 3, "hot spot must move each epoch"
    # The same rank maps to different users across epochs, same user within.
    rng_a, rng_b = Random(5), Random(5)
    early = [users.sample_user(rng_a, now=100.0) for _ in range(200)]
    late = [users.sample_user(rng_b, now=1_600.0) for _ in range(200)]
    assert early != late
    assert [(u - offset1) % 1_000_000 for u in late] == early


def test_static_model_has_fixed_hot_spot():
    users = LogicalUserModel(1_000_000, theta=0.99)
    assert users.hot_offset(0.0) == users.hot_offset(1e9) == 0


def test_zipf_sampler_matches_exact_distribution_on_small_n():
    # The O(1) sampler's hybrid zetan vs an exact small population.
    users = LogicalUserModel(100, theta=0.6)
    rng = Random(11)
    counts = [0] * 100
    for _ in range(20_000):
        counts[users.sample_user(rng, 0.0)] += 1
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
        retain_outcomes=False,
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
    assert result.outcomes == []
    assert result.metrics.commits > 0
    assert result.metrics.commit_latency.p99_ms >= result.metrics.commit_latency.p50_ms


def test_open_loop_overload_drops():
    result = run_once(
        open_spec(workload={"offered_load": 2_000.0}), seed=3
    )
    stats = result.metrics.open_loop
    assert stats.dropped > 0, "10x overload must trip the admission control"
    assert stats.peak_pending == 3


def test_retained_mode_runs_invariants_and_matches_streaming():
    streaming = open_spec()
    retained = replace(streaming, retain_outcomes=True, check_invariants=True)
    a = run_once(streaming, seed=5)
    b = run_once(retained, seed=5)
    assert len(b.outcomes) == b.metrics.n_transactions > 0
    # Retention decides only whether latency statistics are exact or
    # bucketed (tests/harness/test_metrics.py holds the full rule).
    assert a.metrics.commits == b.metrics.commits
    assert a.metrics.open_loop == b.metrics.open_loop
    # Retained outcomes are re-anchored at the arrival: latency == response.
    assert all(o.latency_ms >= 0 for o in b.outcomes)


def test_serial_and_parallel_digests_match():
    specs = [open_spec(), open_spec(workload={"arrival": "flash"})]
    serial = run_cells(specs, trials=2, base_seed=11, jobs=1)
    parallel = run_cells(specs, trials=2, base_seed=11, jobs=2)
    assert metrics_digest(serial) == metrics_digest(parallel)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_each_arrival_kind_runs_end_to_end(kind):
    result = run_once(
        open_spec(workload={
            "arrival": kind, "flash_at_ms": 300.0, "flash_duration_ms": 300.0,
            "diurnal_period_ms": 1_000.0,
        }),
        seed=2,
    )
    stats = result.metrics.open_loop
    assert stats.offered > 0 and stats.completed == stats.admitted


def test_hot_shift_changes_traffic():
    static = run_once(open_spec(), seed=9)
    shifted = run_once(
        open_spec(workload={"hot_shift_period_ms": 300.0}), seed=9
    )
    # Same arrival stream, different user->row mapping after the first
    # epoch boundary: the per-group traffic must differ.
    assert repr(static.metrics) != repr(shifted.metrics)


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


def test_streaming_rejects_invariant_checking():
    with pytest.raises(ValueError, match="retain_outcomes"):
        replace(open_spec(), check_invariants=True)


def test_open_loop_rejects_per_datacenter():
    with pytest.raises(ValueError, match="per_datacenter"):
        spec = replace(open_spec(), per_datacenter_instances=True)
        run_once(spec, seed=0)
