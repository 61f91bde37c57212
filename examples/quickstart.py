#!/usr/bin/env python3
"""Quickstart: a three-datacenter transactional datastore in ~40 lines.

Builds the paper's reference deployment (three Virginia availability
zones), runs one read-modify-write transaction through the Paxos-CP commit
protocol, and shows the replicated write-ahead log that results.

Run:  python examples/quickstart.py
"""

from repro import Cluster, ClusterConfig


def main() -> None:
    # One datacenter per letter: V = a Virginia availability zone.
    cluster = Cluster(ClusterConfig(cluster_code="VVV", seed=7))

    # Every datacenter's key-value store gets the initial data (the
    # "transaction group" is the paper's entity group).
    cluster.preload("accounts", {"alice": {"balance": 100},
                                 "bob": {"balance": 50}})

    # A Transaction Client is an application instance in one datacenter.
    client = cluster.add_client("V1", protocol="paxos-cp")

    # Application code is a simulation process: a generator that yields on
    # every operation that takes (simulated) time.
    def transfer(amount):
        handle = yield from client.begin("accounts")
        alice = yield from client.read(handle, "alice", "balance")
        bob = yield from client.read(handle, "bob", "balance")
        client.write(handle, "alice", "balance", alice - amount)
        client.write(handle, "bob", "balance", bob + amount)
        outcome = yield from client.commit(handle)
        return outcome

    process = cluster.env.process(transfer(25))
    cluster.run()

    outcome = process.value
    assert outcome.committed
    print(f"transaction {outcome.transaction.tid}: {outcome.status}")
    print(f"  commit position: {outcome.commit_position}")
    print(f"  latency:         {outcome.latency_ms:.1f} ms (simulated)")

    # The same log entry is now at every datacenter (replication R1).
    print("\nwrite-ahead log per datacenter:")
    run = cluster.settle()
    for dc in cluster.topology.names:
        replica = cluster.services[dc].replica("accounts")
        entries = {pos: str(entry) for pos, entry in replica.entries().items()}
        assert entries == {pos: str(entry) for pos, entry in run.logs["accounts"].items()}
        print(f"  {dc}: {entries}")

    # And the run provably satisfied one-copy serializability (the check
    # raises InvariantViolation on any failure).
    cluster.check_invariants_all([outcome], run)
    print("\ninvariants (L1)-(L3), (R1), 1SR: OK")


if __name__ == "__main__":
    main()
