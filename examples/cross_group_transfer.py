#!/usr/bin/env python3
"""An atomic transfer between accounts in two different entity groups.

PR 1 sharded the datastore into entity groups, each with its own replicated
log — and scoped every transaction to one group, the paper's model.  This
example exercises the layer that lifts that limit: ``begin()`` with no group
pin opens a cross-group transaction that routes reads and writes by row,
and ``commit()`` drives a Megastore-style two-phase commit over the
participant groups' logs (prepare entries at each group's pinned position,
a durable decision instance, commit markers).

Money is conserved *across* groups: either both account updates apply or
neither does, and the merged two-group history is one-copy serializable —
verified by the cluster's cross-group invariant suite at the end.

Run:  PYTHONPATH=src python examples/cross_group_transfer.py
"""

from repro import Cluster, ClusterConfig
from repro.config import PlacementConfig

N_TRANSFERS = 12
INITIAL_BALANCE = 100


def main() -> None:
    # Two range-sharded groups: acct0 lands in group-0, acct1 in group-1.
    cluster = Cluster(ClusterConfig(
        cluster_code="VVV", seed=2026,
        placement=PlacementConfig(n_groups=2, assignment="range", key_universe=2),
    ))
    cluster.preload_placed({
        "acct0": {"balance": INITIAL_BALANCE},
        "acct1": {"balance": INITIAL_BALANCE},
    })
    print("acct0 lives in", cluster.placement.group_of("acct0"),
          "— acct1 in", cluster.placement.group_of("acct1"))

    outcomes = []

    def transfer_proc(index: int, dc: str, amount: int):
        client = cluster.add_client(dc, protocol="paxos-cp")

        def run():
            yield cluster.env.timeout(index * 250.0)
            handle = yield from client.begin()        # no group pin
            src = yield from client.read(handle, "acct0", "balance")
            dst = yield from client.read(handle, "acct1", "balance")
            client.write(handle, "acct0", "balance", src - amount)
            client.write(handle, "acct1", "balance", dst + amount)
            outcomes.append((yield from client.commit(handle)))

        cluster.env.process(run())

    datacenters = cluster.topology.names
    for index in range(N_TRANSFERS):
        transfer_proc(index, datacenters[index % len(datacenters)], amount=5)
    cluster.run()

    commits = [o for o in outcomes if o.committed]
    print(f"\n{len(commits)}/{N_TRANSFERS} transfers committed "
          f"(the rest lost a prepare position and aborted cleanly)")

    # Ground truth from the logs: replay each group's committed entries.
    # Settling resolves in-doubt 2PC transactions.
    run = cluster.settle()
    # The full obligation, raising InvariantViolation on any failure:
    # per-group §3 invariants with the decisions applied, all-or-nothing
    # atomicity, no orphaned prepares, and — once a transfer commits,
    # linking the two groups — one MVSG test over the merged two-group
    # history.
    cluster.check_invariants_all(outcomes, run)
    balances = {"acct0": INITIAL_BALANCE, "acct1": INITIAL_BALANCE}
    for group, log in sorted(run.logs.items()):
        kinds = [entry.kind for _pos, entry in sorted(log.items())]
        print(f"{group} log: {' '.join(kinds)}")
        for _position, entry in sorted(log.items()):
            if entry.kind == "prepare" and not run.decisions.get(entry.gtid):
                continue  # aborted branch: applied nowhere
            for txn in entry.transactions:
                for (row, _attr), value in txn.writes:
                    balances[row] = value

    total = balances["acct0"] + balances["acct1"]
    print(f"balances: {balances}  (total {total}, expected {2 * INITIAL_BALANCE})")
    assert total == 2 * INITIAL_BALANCE, "money leaked across groups!"
    assert commits and all(run.decisions[o.transaction.tid] for o in commits)
    print("per-group invariants, 2PC atomicity, and global 1SR: OK")


if __name__ == "__main__":
    main()
