#!/usr/bin/env python3
"""Concurrent bank transfers: basic Paxos vs. Paxos-CP under contention.

The paper's core claim, on a workload you can reason about: many clients
transfer money between accounts of one entity group concurrently.  Under
basic Paxos, transactions that touch *different* accounts still abort when
they collide on a log position (concurrency prevention).  Paxos-CP promotes
those non-conflicting losers to the next position and commits them.

Serializability is witnessed by an invariant no interleaving may break:
the total balance across accounts is conserved.

Run:  python examples/bank_contention.py
"""

from repro import Cluster, ClusterConfig

N_ACCOUNTS = 16
N_TRANSFERS = 40
INITIAL_BALANCE = 100


def run_protocol(protocol: str) -> int:
    """Run the transfers under *protocol*; returns how many committed."""
    cluster = Cluster(ClusterConfig(cluster_code="VVV", seed=2026))
    accounts = {f"acct{i}": {"balance": INITIAL_BALANCE} for i in range(N_ACCOUNTS)}
    cluster.preload("bank", accounts)

    outcomes = []
    rng = cluster.env.rng.stream("example.bank")

    def transfer_proc(index: int, dc: str):
        client = cluster.add_client(dc, protocol=protocol)

        def run():
            # Staggered, overlapping arrivals → log-position contention.
            yield cluster.env.timeout(index * 40.0)
            src, dst = rng.sample(range(N_ACCOUNTS), 2)
            amount = rng.randint(1, 20)
            handle = yield from client.begin("bank")
            src_balance = yield from client.read(handle, f"acct{src}", "balance")
            dst_balance = yield from client.read(handle, f"acct{dst}", "balance")
            client.write(handle, f"acct{src}", "balance", src_balance - amount)
            client.write(handle, f"acct{dst}", "balance", dst_balance + amount)
            outcomes.append((yield from client.commit(handle)))

        cluster.env.process(run())

    datacenters = cluster.topology.names
    for index in range(N_TRANSFERS):
        transfer_proc(index, datacenters[index % len(datacenters)])
    cluster.run()

    commits = [o for o in outcomes if o.committed]
    promoted = [o for o in commits if o.promotions > 0]

    # Recompute balances from the committed log — the ground truth.
    run = cluster.settle()
    log = run.logs["bank"]
    balances = {name: INITIAL_BALANCE for name in accounts}
    for position in sorted(log):
        for txn in log[position].transactions:
            for (row, _attr), value in txn.writes:
                balances[row] = value
    total = sum(balances.values())

    # Raises InvariantViolation unless the run is one-copy serializable.
    cluster.check_invariants_all(outcomes, run)

    print(f"{protocol:>9}: {len(commits)}/{N_TRANSFERS} committed "
          f"({len(promoted)} via promotion), "
          f"total balance {total} (expected {N_ACCOUNTS * INITIAL_BALANCE}), "
          f"serializable: yes")
    assert total == N_ACCOUNTS * INITIAL_BALANCE
    return len(commits)


def main() -> None:
    print(f"{N_TRANSFERS} concurrent transfers over {N_ACCOUNTS} accounts, "
          "three datacenters:\n")
    commits = {protocol: run_protocol(protocol) for protocol in ("paxos", "paxos-cp")}
    assert commits["paxos-cp"] > commits["paxos"]
    print("\nPaxos-CP commits more of the *same* workload — that is the "
          "paper's 'serializability, not serial'.")


if __name__ == "__main__":
    main()
