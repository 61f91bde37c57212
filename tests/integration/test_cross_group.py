"""Cross-group 2PC under randomized workloads and coordinator crashes.

Property (a): merged cross-group histories from random 2PC mixes are
one-copy serializable — every group's own invariant suite passes, and then
the one MVSG test, over the merged history of every group.

Property (b): a coordinator crash between prepare and decide never commits
a proper subset of the participant groups — recovery resolves every
in-doubt transaction all-or-nothing.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.config import ClusterConfig, PlacementConfig, StoreConfig, WorkloadConfig
from repro.model import CROSS_GROUP
from repro.workload.driver import WorkloadDriver


def sharded_cluster(n_groups: int, seed: int = 0, instant: bool = True) -> Cluster:
    return Cluster(ClusterConfig(
        cluster_code="VVV",
        seed=seed,
        store=StoreConfig.instant() if instant else StoreConfig(),
        jitter=0.0 if instant else 0.08,
        placement=PlacementConfig(
            n_groups=n_groups, assignment="range", key_universe=n_groups,
        ),
    ))


def run_mixed_workload(cluster: Cluster, n_groups: int, protocol: str,
                       n_transactions: int, cross_group_fraction: float,
                       **overrides) -> WorkloadDriver:
    workload = WorkloadConfig(
        n_transactions=n_transactions,
        ops_per_transaction=4,
        n_attributes=10,
        n_rows=n_groups,
        n_threads=3,
        target_rate_per_thread=20.0,
        stagger_ms=5.0,
        cross_group_fraction=cross_group_fraction,
        **overrides,
    )
    driver = WorkloadDriver(cluster, workload, protocol)
    driver.install_data()
    driver.start()
    cluster.run()
    return driver


class TestCrossGroupWorkloads:
    def test_mixed_workload_commits_cross_group_transactions(self):
        cluster = sharded_cluster(4, seed=1)
        driver = run_mixed_workload(cluster, 4, "paxos-cp", 40, 0.5)
        cross = [o for o in driver.result.outcomes
                 if o.transaction.group == CROSS_GROUP]
        assert cross, "the mix produced no cross-group transactions"
        assert any(o.committed for o in cross)
        cluster.check_invariants_all(driver.result.outcomes, cluster.settle())

    def test_zero_fraction_generates_the_exact_single_group_stream(self):
        # fraction 0 must not perturb the RNG stream: next_transaction_spec
        # must be next_group_transaction byte for byte, so single-group runs
        # (and bench_groups_scaling results) stay identical to PR 1.
        import random

        from repro.config import PlacementConfig, WorkloadConfig
        from repro.model import Placement
        from repro.workload.ycsb import YcsbWorkload

        placement = Placement(PlacementConfig(
            n_groups=4, assignment="range", key_universe=4,
        ))

        def generator(fraction):
            config = WorkloadConfig(
                n_rows=4, n_attributes=10, ops_per_transaction=5,
                cross_group_fraction=fraction,
            )
            return YcsbWorkload(config, random.Random(7), placement=placement)

        with_knob, without_knob = generator(0.0), generator(0.0)
        stream = [with_knob.next_transaction_spec() for _draw in range(40)]
        legacy = [without_knob.next_group_transaction() for _draw in range(40)]
        assert stream == [((group,), ops) for group, ops in legacy]

    def test_cross_fraction_requires_multi_group(self):
        cluster = Cluster(ClusterConfig(store=StoreConfig.instant()))
        workload = WorkloadConfig(cross_group_fraction=0.5)
        try:
            WorkloadDriver(cluster, workload, "paxos")
        except ValueError as error:
            assert "cross_group_fraction" in str(error)
        else:  # pragma: no cover - the guard must fire
            raise AssertionError("driver accepted a single-group 2PC mix")

    def test_cross_fraction_rejects_the_leased_leader(self):
        cluster = sharded_cluster(4)
        workload = WorkloadConfig(
            n_rows=4, n_attributes=10, cross_group_fraction=0.5,
        )
        try:
            WorkloadDriver(cluster, workload, "leased-leader")
        except ValueError as error:
            assert "leased" in str(error)
        else:  # pragma: no cover - the guard must fire
            raise AssertionError("driver accepted leased-leader 2PC")

    def test_failed_cross_group_attempts_keep_their_identity(self):
        # A cross-group attempt that dies before commit still counts in the
        # 2PC metrics instead of being misfiled under one participant group.
        from repro.harness.metrics import RunMetrics

        cluster = sharded_cluster(4, seed=2)
        driver = run_mixed_workload(cluster, 4, "paxos", 30, 1.0)
        cross = [o for o in driver.result.outcomes
                 if o.transaction.group == CROSS_GROUP]
        assert len(cross) == 30
        metrics = RunMetrics.from_outcomes(driver.result.outcomes)
        assert metrics.cross_group_transactions == 30


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    n_groups=st.sampled_from([3, 4, 8]),
    protocol=st.sampled_from(["paxos", "paxos-cp"]),
    fraction=st.sampled_from([0.2, 0.5, 1.0]),
)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_2pc_mixes_are_globally_one_copy_serializable(
    seed, n_groups, protocol, fraction
):
    """Property (a): per-group invariants, then the MVSG test over the
    merged history."""
    cluster = sharded_cluster(n_groups, seed=seed, instant=False)
    driver = run_mixed_workload(cluster, n_groups, protocol, 15, fraction)
    assert len(driver.result.outcomes) == 15
    # settle runs recovery; check_invariants_all then runs the per-group §3
    # suite with 2PC decisions applied, atomicity, no-orphaned-prepare, and
    # the MVSG oracle (over the merged history once a 2PC transaction
    # commits).
    cluster.check_invariants_all(driver.result.outcomes, cluster.settle())


class TestRecoveryIdempotence:
    """``Cluster.recover_cross_group`` may run twice, or race a resuming
    coordinator, without ever flipping a decision — a gap the original
    coordinator-crash property test never exercised."""

    def _crashed_run(self):
        """A run with an in-doubt prepare: coordinator killed mid-2PC.

        Probes kill times until one leaves prepares without a durable
        decision (deterministic per probe — each builds a fresh cluster).
        """
        for kill_after_ms in (60.0, 90.0, 120.0, 150.0, 200.0, 260.0, 320.0):
            cluster = sharded_cluster(4, seed=23, instant=False)
            cluster.preload_placed({
                f"row{index}": {"a0": f"init{index}"} for index in range(4)
            })
            client = cluster.add_client("V1", protocol="paxos")

            def app():
                handle = yield from client.begin()
                yield from client.read(handle, "row0", "a0")
                client.write(handle, "row0", "a0", "x0")
                client.write(handle, "row2", "a0", "x2")
                yield from client.commit(handle)

            process = cluster.env.process(app())
            killer = cluster.env.timeout(kill_after_ms)
            killer.add_callback(lambda _event: process.kill("coordinator crash"))
            cluster.run()
            logs = cluster.finalize_all()
            gtids = {
                entry.gtid
                for log in logs.values() for entry in log.values()
                if entry.kind == "prepare"
            }
            undecided = gtids - set(cluster.cross_group_decisions())
            if undecided:
                return cluster, logs, undecided.pop()
        raise AssertionError("no probe produced an in-doubt prepare")

    def test_running_recovery_twice_is_a_fixpoint(self):
        cluster, logs, gtid = self._crashed_run()
        first = cluster.recover_cross_group(logs)
        assert gtid in first
        second = cluster.recover_cross_group(logs)
        assert second == first
        # A third pass over logs finalized afresh from the stores agrees too.
        third = cluster.recover_cross_group(cluster.finalize_all())
        assert third == first
        cluster.check_cross_group_invariants([], logs, first)

    def test_late_coordinator_follows_the_recovered_decision(self):
        from repro.core.commit_2pc import TwoPhaseCommit

        cluster, logs, gtid = self._crashed_run()
        decisions = cluster.recover_cross_group(logs)
        participants = next(
            entry.participants
            for log in logs.values() for entry in log.values()
            if entry.kind == "prepare" and entry.gtid == gtid
        )
        # The crashed coordinator resumes *after* recovery already resolved
        # the transaction, and tries to drive its instance to COMMIT.  The
        # decision instance is single-slot Paxos: the recorded resolution
        # must win, and a second recovery pass must still agree.
        late = TwoPhaseCommit(cluster.add_client("V2", protocol="paxos"))
        process = cluster.env.process(
            late.decide(gtid, participants, commit=True)
        )
        cluster.run()
        decided = process.value
        assert decided is not None
        assert (decided.kind == "commit") == decisions[gtid]
        logs = cluster.finalize_all()
        again = cluster.recover_cross_group(logs)
        assert again[gtid] == decisions[gtid]
        cluster.check_cross_group_invariants([], logs, again)


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    kill_after_ms=st.floats(min_value=0.0, max_value=400.0),
)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_coordinator_crash_never_commits_a_proper_subset(seed, kill_after_ms):
    """Property (b): kill the coordinator at a random point mid-2PC.

    Whatever the crash timing — before any prepare, between prepares,
    between prepare and decide, after decide — recovery must leave every
    participant group agreeing on one all-or-nothing outcome.
    """
    cluster = sharded_cluster(4, seed=seed, instant=False)
    cluster.preload_placed({
        f"row{index}": {"a0": f"init{index}"} for index in range(4)
    })
    client = cluster.add_client("V1", protocol="paxos")

    def app():
        handle = yield from client.begin()
        yield from client.read(handle, "row0", "a0")
        yield from client.read(handle, "row2", "a0")
        client.write(handle, "row0", "a0", "x0")
        client.write(handle, "row2", "a0", "x2")
        client.write(handle, "row3", "a0", "x3")
        yield from client.commit(handle)

    process = cluster.env.process(app())
    killer = cluster.env.timeout(kill_after_ms)
    killer.add_callback(lambda _event: process.kill("coordinator crash"))
    cluster.run()

    # All-or-nothing: with a COMMIT decision every participant holds the
    # prepare; any other state resolves to ABORT for every group.  The run
    # settles (recovers) first, then the check runs the 2PC obligations
    # and the MVSG pass.
    logs, decisions = run = cluster.settle()
    cluster.check_invariants_all([], run)
    prepares = {
        group: entry
        for group, log in logs.items()
        for entry in log.values()
        if entry.kind == "prepare"
    }
    if prepares:
        (gtid,) = {entry.gtid for entry in prepares.values()}
        if decisions.get(gtid):
            assert set(prepares) == {"group-0", "group-2", "group-3"}
    # Data rows reflect the decision uniformly (served through the
    # decision-gated service read path): all three writes or none.
    reader = cluster.add_client("V2")

    def check(row):
        handle = yield from reader.begin(key=row)
        value = yield from reader.read(handle, row, "a0")
        return value

    applied = []
    for row in ("row0", "row2", "row3"):
        process = cluster.env.process(check(row))
        cluster.run()
        applied.append(str(process.value).startswith("x"))
    assert len(set(applied)) == 1, f"partial commit: {applied}"
