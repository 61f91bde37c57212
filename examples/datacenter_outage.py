#!/usr/bin/env python3
"""Availability under a datacenter outage — the paper's motivating story.

§1 opens with the April/August 2011 EC2 outages that took whole datacenters
(and the web sites in them) offline.  This example reproduces the scenario
the architecture is built for:

1. a web shop runs in three datacenters; orders flow as transactions;
2. one datacenter goes dark mid-run (taking its in-flight clients with it);
3. the surviving majority keeps committing orders throughout;
4. the failed datacenter comes back, catches up via the §4.1 learner path,
   and serves consistent reads again;
5. the final log satisfies every correctness obligation of §3.

Run:  python examples/datacenter_outage.py
"""

from repro import Cluster, ClusterConfig, FailureInjector

GROUP = "orders"
OUTAGE_START = 5_000.0      # ms
OUTAGE_DURATION = 20_000.0  # ms


def main() -> None:
    cluster = Cluster(ClusterConfig(cluster_code="VVV", seed=99))
    cluster.preload(GROUP, {
        "inventory": {"widgets": 1000},
        "orders": {"count": 0},
    })

    injector = FailureInjector(cluster)
    injector.outage("V2", start_ms=OUTAGE_START, duration_ms=OUTAGE_DURATION)

    outcomes = []

    def shopper(index: int, dc: str):
        client = cluster.add_client(dc, protocol="paxos-cp")

        def run():
            yield cluster.env.timeout(index * 1_000.0)
            handle = yield from client.begin(GROUP)
            stock = yield from client.read(handle, "inventory", "widgets")
            sold = yield from client.read(handle, "orders", "count")
            client.write(handle, "inventory", "widgets", stock - 1)
            client.write(handle, "orders", "count", sold + 1)
            outcome = yield from client.commit(handle)
            outcomes.append((cluster.env.now, dc, outcome))

        cluster.env.process(run())

    # Shoppers arrive steadily in the two datacenters that stay up.  (V2's
    # own clients die with their datacenter — the platform model of §2.2.)
    for index in range(30):
        shopper(index, "V1" if index % 2 == 0 else "V3")
    cluster.run()

    in_outage = [
        (when, dc, o) for when, dc, o in outcomes
        if OUTAGE_START <= o.begin_time < OUTAGE_START + OUTAGE_DURATION
    ]
    committed_in_outage = sum(1 for _w, _d, o in in_outage if o.committed)
    total_committed = sum(1 for _w, _d, o in outcomes if o.committed)

    print(f"orders attempted: {len(outcomes)}, committed: {total_committed}")
    print(f"during the V2 outage: {committed_in_outage}/{len(in_outage)} "
          "committed — the system never stopped taking orders")

    # V2 is back: its replica catches up on demand and serves reads.
    assert committed_in_outage > 0
    run = cluster.settle()
    log = run.logs[GROUP]
    v2 = cluster.services["V2"].replica(GROUP)
    print(f"\nlog positions decided: {len(log)}; "
          f"V2 now knows {len(v2.entries())} of them after catch-up")
    assert len(v2.entries()) == len(log)

    # Raises InvariantViolation on any failure.
    cluster.check_invariants_all([o for _w, _d, o in outcomes], run)
    print("invariants (L1)-(L3), (R1), read-only consistency, 1SR: OK")

    final_stock = 1000 - total_committed
    replayed = {"widgets": 1000}
    for position in sorted(log):
        for txn in log[position].transactions:
            for (row, attr), value in txn.writes:
                if (row, attr) == ("inventory", "widgets"):
                    replayed["widgets"] = value
    print(f"\ninventory after replaying the log: {replayed['widgets']} "
          f"(expected {final_stock})")
    assert replayed["widgets"] == final_stock


if __name__ == "__main__":
    main()
