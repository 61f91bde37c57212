"""End-to-end scenarios across the whole stack.

Every scenario finishes with the full §3 invariant suite plus the MVSG
serializability oracle (``Cluster.check_invariants_all``).
"""

import pytest

from repro.config import WorkloadConfig
from repro.workload.driver import WorkloadDriver
from tests.conftest import make_cluster

GROUP = "group-0"


def run_workload(cluster, protocol, **overrides):
    defaults = dict(
        n_transactions=30, ops_per_transaction=6, n_attributes=15,
        n_threads=3, target_rate_per_thread=8.0, stagger_ms=15.0,
    )
    defaults.update(overrides)
    workload = WorkloadConfig(**defaults)
    driver = WorkloadDriver(cluster, workload, protocol)
    driver.install_data()
    driver.start()
    cluster.run()
    return driver.result.outcomes


@pytest.mark.parametrize("protocol", ["paxos", "paxos-cp", "leased-leader"])
class TestWorkloadsStaySerializable:
    def test_instant_store(self, protocol):
        cluster = make_cluster(seed=1)
        outcomes = run_workload(cluster, protocol)
        cluster.check_invariants_all(outcomes, cluster.settle())
        assert any(outcome.committed for outcome in outcomes)

    def test_calibrated_store_with_jitter(self, protocol):
        cluster = make_cluster(seed=2, instant_store=False, jitter=0.08)
        outcomes = run_workload(cluster, protocol)
        cluster.check_invariants_all(outcomes, cluster.settle())

    def test_mixed_region_cluster(self, protocol):
        cluster = make_cluster("COV", seed=3, instant_store=False)
        outcomes = run_workload(cluster, protocol, n_transactions=20)
        cluster.check_invariants_all(outcomes, cluster.settle())

    def test_two_replica_cluster(self, protocol):
        cluster = make_cluster("VV", seed=4)
        outcomes = run_workload(cluster, protocol, n_transactions=20)
        cluster.check_invariants_all(outcomes, cluster.settle())

    def test_five_replica_cluster(self, protocol):
        cluster = make_cluster("VVVOC", seed=5, instant_store=False)
        outcomes = run_workload(cluster, protocol, n_transactions=20)
        cluster.check_invariants_all(outcomes, cluster.settle())


class TestCrossProtocolBehaviour:
    def test_cp_commits_at_least_as_many(self):
        """Under identical contention, Paxos-CP must not commit fewer
        transactions than basic Paxos (the paper's headline)."""
        results = {}
        for protocol in ["paxos", "paxos-cp"]:
            cluster = make_cluster(seed=7, instant_store=False)
            outcomes = run_workload(
                cluster, protocol,
                n_transactions=60, target_rate_per_thread=4.0, n_attributes=100,
            )
            cluster.check_invariants_all(outcomes, cluster.settle())
            results[protocol] = sum(1 for o in outcomes if o.committed)
        assert results["paxos-cp"] >= results["paxos"]

    def test_promotions_only_under_cp(self):
        for protocol, expect_promotions in [("paxos", False), ("paxos-cp", True)]:
            cluster = make_cluster(seed=8, instant_store=False)
            outcomes = run_workload(
                cluster, protocol,
                n_transactions=60, target_rate_per_thread=6.0, n_attributes=200,
            )
            promoted = [o for o in outcomes if o.promotions > 0]
            if expect_promotions:
                assert promoted, "CP run produced no promotions at high contention"
            else:
                assert not promoted

    def test_multi_group_independence(self):
        """Transactions on different groups never interfere (§2.1)."""
        cluster = make_cluster(seed=9)
        cluster.preload("alpha", {"row0": {"x": 0}})
        cluster.preload("beta", {"row0": {"x": 0}})
        outcomes = []

        def make_proc(group, dc):
            client = cluster.add_client(dc, protocol="paxos-cp")

            def run():
                handle = yield from client.begin(group)
                value = yield from client.read(handle, "row0", "x")
                client.write(handle, "row0", "x", f"{group}-written")
                outcomes.append((yield from client.commit(handle)))

            return cluster.env.process(run())

        make_proc("alpha", "V1")
        make_proc("beta", "V2")
        cluster.run()
        assert all(outcome.committed for outcome in outcomes)
        cluster.check_invariants_all(outcomes, cluster.settle())


class TestBankInvariant:
    """The classic serializability demonstration: concurrent transfers
    preserve the total balance exactly when the system is serializable."""

    def test_concurrent_transfers_conserve_money(self):
        cluster = make_cluster(seed=10, instant_store=False)
        accounts = {f"acct{i}": {"balance": 100} for i in range(4)}
        cluster.preload("bank", accounts)
        outcomes = []

        def transfer(dc, src, dst, amount, delay):
            client = cluster.add_client(dc, protocol="paxos-cp")

            def run():
                yield cluster.env.timeout(delay)
                handle = yield from client.begin("bank")
                src_balance = yield from client.read(handle, src, "balance")
                dst_balance = yield from client.read(handle, dst, "balance")
                client.write(handle, src, "balance", src_balance - amount)
                client.write(handle, dst, "balance", dst_balance + amount)
                outcomes.append((yield from client.commit(handle)))

            return cluster.env.process(run())

        transfers = [
            ("V1", "acct0", "acct1", 10, 0.0),
            ("V2", "acct1", "acct2", 20, 1.0),
            ("V3", "acct2", "acct3", 30, 2.0),
            ("V1", "acct3", "acct0", 40, 3.0),
            ("V2", "acct0", "acct2", 5, 4.0),
        ]
        for args in transfers:
            transfer(*args)
        cluster.run()
        cluster.check_invariants_all(outcomes, cluster.settle())
        # Replay the committed log to compute final balances.
        log = cluster.finalize("bank")
        balances = {name: 100 for name in accounts}
        for position in sorted(log):
            for txn in log[position].transactions:
                for (row, _attr), value in txn.writes:
                    balances[row] = value
        assert sum(balances.values()) == 400, balances
