"""Randomized fault-injection campaign over the full cross-group toolbox.

Each seed deterministically derives a scenario — commit protocol, workload
mix (single-group, 2PC cross-group, asynchronous queue sends), and a fault
schedule (datacenter outages, partitions, loss episodes, and crash windows,
one of them on the delivery pumps' home datacenter) — runs it to
quiescence, and then holds the whole system to its obligations at once:

* the §3 per-group suite — (R1), (L1)–(L3), read-only consistency — and
  the MVSG oracle, via ``check_invariants_all``;
* 2PC recovery and atomicity, plus **global** one-copy serializability over
  the merged history (re-checked here for runs whose MVSG pass tested each
  group on its own);
* the queue-delivery invariant: every committed send applied exactly once
  at its receiver, in sender order — crashing the pumps with their home
  replica mid-flight (and letting the fresh pumps the restart starts
  redeliver) must never drop or double-apply a message.

The schedules bias toward the scenario the queue layer exists to survive:
whenever the mix enqueues sends, the pumps' home datacenter crashes
mid-run and restarts, so at least one pump is killed and replaced.  Leased-leader seeds run the pure single-group workload (that
protocol owns its group's log positions, so neither 2PC prepares nor pump
appends may compete with it) under majority-preserving faults — its design
explicitly scopes out lease takeover, so only the Paxos protocols face the
full fault menu.

CI runs a reduced seed subset by id (see .github/workflows/ci.yml); the
full campaign is part of tier-1.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import Cluster
from repro.config import (
    ClusterConfig,
    CrashWindow,
    FaultScheduleConfig,
    LossWindow,
    OutageWindow,
    PartitionWindow,
    PlacementConfig,
    WorkloadConfig,
)
from repro.failures.schedule import install_fault_schedule
from repro.serializability.checker import is_one_copy_serializable
from repro.workload.driver import WorkloadDriver
from tests.helpers import merged_history

N_SEEDS = 20
SEEDS = range(N_SEEDS)


def build_scenario(seed: int):
    """Everything one campaign seed runs, derived deterministically."""
    rng = random.Random(0xFA17 + seed * 9973)
    n_groups = rng.choice([3, 4])
    protocol = rng.choice(["paxos", "paxos-cp", "paxos-cp", "leased-leader"])
    if protocol == "leased-leader":
        queue_fraction, cross_fraction = 0.0, 0.0
    else:
        queue_fraction = rng.choice([0.25, 0.4, 0.6])
        cross_fraction = rng.choice([0.0, 0.0, 0.2, 0.3])
    cluster = Cluster(ClusterConfig(
        cluster_code="VVV", seed=seed,
        placement=PlacementConfig(
            n_groups=n_groups, assignment="range", key_universe=n_groups,
        ),
    ))
    workload = WorkloadConfig(
        n_transactions=rng.choice([15, 18, 21]),
        ops_per_transaction=3,
        n_attributes=8,
        n_rows=n_groups,
        n_threads=3,
        target_rate_per_thread=20.0,
        stagger_ms=5.0,
        queue_fraction=queue_fraction,
        cross_group_fraction=cross_fraction,
    )
    driver = WorkloadDriver(cluster, workload, protocol)
    return rng, cluster, driver, protocol, queue_fraction


def draw_fault_schedule(rng, cluster, pumps, protocol,
                        queue_fraction) -> FaultScheduleConfig:
    """This seed's fault schedule as declarative config.

    The pre-crash draw sequence is pinned — byte-identical to the
    historical imperative version, so every seed's network-fault scenario
    is unchanged; the service-replica crash draws append strictly after
    it, extending each scenario without perturbing it.
    """
    datacenters = list(cluster.topology.names)
    outages, partitions, losses, crashes = [], [], [], []

    if queue_fraction > 0:
        # The headline fault: crash a delivery pump's home datacenter
        # mid-flight, which kills the pump with its replica, and restart it
        # later — the fresh pump must resume from what the crash left of
        # its progress, and redelivery must deduplicate.
        victim = rng.choice(sorted(pumps))
        kill_ms = rng.uniform(80.0, 500.0)
        down_ms = rng.uniform(40.0, 300.0)
        home = cluster.placement.home_of(victim, cluster.home_dc)
        crashes.append(CrashWindow(home, kill_ms, down_ms))

    # The leased leader's fault scope is narrower by design (lease takeover
    # is out of scope, §7): it keeps committing through any fault that
    # leaves the leader a majority, so its seeds draw only those — a
    # non-home datacenter outage or a partition between the two non-home
    # sites.  The Paxos protocols take the full menu.
    leased = protocol == "leased-leader"
    home = cluster.home_dc
    non_home = [dc for dc in datacenters if dc != home]
    for _fault in range(rng.randint(1, 2)):
        kind = rng.choice(["outage", "partition"] if leased
                          else ["outage", "partition", "loss"])
        start = rng.uniform(50.0, 700.0)
        duration = rng.uniform(100.0, 400.0)
        if kind == "outage":
            dc = rng.choice(non_home if leased else datacenters)
            outages.append(OutageWindow(dc, start, duration))
        elif kind == "partition":
            dc_a, dc_b = non_home[:2] if leased else rng.sample(datacenters, 2)
            partitions.append(PartitionWindow(dc_a, dc_b, start, duration))
        else:
            probability = rng.uniform(0.05, 0.3)
            losses.append(LossWindow(probability, start, duration))
    # Every seed also crash-restarts a service replica (sometimes two)
    # mid-run: in-flight handler processes die, volatile state — learner
    # caches, apply projections, delivery marks, leases — is erased, and
    # the restarted node must recover purely from durable state (the WAL
    # plus the acceptor table).  The amnesia detector inside
    # ``check_invariants_all`` holds every restart to that: durable
    # promises may never regress and chosen values may never change.
    for _crash in range(rng.randint(1, 2)):
        victim_dc = rng.choice(datacenters)
        start = rng.uniform(50.0, 600.0)
        down = rng.uniform(80.0, 350.0)
        crashes.append(CrashWindow(victim_dc, start, down))
    return FaultScheduleConfig(
        outages=tuple(outages), partitions=tuple(partitions),
        loss_windows=tuple(losses), crashes=tuple(crashes),
    )


@pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{s:02d}" for s in SEEDS])
def test_fault_schedule_preserves_every_invariant(seed):
    rng, cluster, driver, protocol, queue_fraction = build_scenario(seed)
    driver.install_data()
    pumps = {}
    if queue_fraction > 0:
        pumps = cluster.start_queue_pumps(poll_ms=15.0)
    config = draw_fault_schedule(rng, cluster, pumps, protocol, queue_fraction)
    schedule = install_fault_schedule(cluster, config)
    driver.start()
    cluster.run()

    outcomes = driver.result.outcomes
    assert len(outcomes) == driver.workload.n_transactions, schedule

    # Settle (2PC recovery, queue drain), then the whole obligation in one
    # call: the §3 per-group suite, atomicity, exactly-once delivery in
    # sender order, and global 1SR over the merged history.
    settled = cluster.settle()
    cluster.check_invariants_all(outcomes, settled)

    # The merged history is one-copy serializable whichever MVSG test the
    # pass ran (one per group when no committed 2PC branch links groups).
    ok, cycle = is_one_copy_serializable(merged_history(cluster, settled))
    assert ok, f"global MVSG cycle {cycle} under schedule {schedule}"

    if queue_fraction > 0:
        committed_sends = sum(
            len(outcome.transaction.sends)
            for outcome in outcomes if outcome.committed
        )
        stats = cluster.queue_stats(settled)
        assert stats.sends == committed_sends, schedule
        # Exact accounting even across pump crash + restart: the drain ran
        # inside settle, so nothing may remain undelivered
        # and the two delivery buckets must account for every send.
        assert stats.undelivered == 0, schedule
        assert stats.applied_online + stats.drained_offline == stats.sends, schedule
        # The home crash really killed pumps, and each was replaced once.
        killed = [run for record in cluster.crash_records
                  for run in record.killed_pumps]
        assert killed, schedule
        assert len(cluster._pumps) == len(pumps) + len(killed), schedule
