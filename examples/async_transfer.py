#!/usr/bin/env python3
"""A deferred two-group transfer over the asynchronous queue path.

`cross_group_transfer.py` moves money between two entity groups with 2PC:
atomic, but every transfer pays a prepare round in each group and blocks
in-doubt readers.  This example does the same transfers with the paper's
*other* cross-group tool — asynchronous queues: each transfer debits the
source account inside an ordinary single-group transaction and **enqueues**
the credit as a deferred message; a delivery pump applies the credits at the
destination group exactly once, in send order, a beat later.

The trade is visibility, not integrity: mid-run the destination balance lags
(money is "in flight" in the queue), but once the queues drain the total is
conserved and the merged history is one-copy serializable — verified by the
cluster's full invariant suite, including the exactly-once delivery check.

Run:  PYTHONPATH=src python examples/async_transfer.py
"""

from repro import Cluster, ClusterConfig
from repro.config import PlacementConfig

N_TRANSFERS = 12
INITIAL_BALANCE = 100
AMOUNT = 5


def main() -> None:
    # Two range-sharded groups: acct0 lands in group-0, acct1 in group-1.
    cluster = Cluster(ClusterConfig(
        cluster_code="VVV", seed=2026,
        placement=PlacementConfig(n_groups=2, assignment="range", key_universe=2),
    ))
    cluster.preload_placed({
        "acct0": {"balance": INITIAL_BALANCE, "sent": 0},
        "acct1": {"balance": INITIAL_BALANCE},
    })
    print("acct0 lives in", cluster.placement.group_of("acct0"),
          "— acct1 in", cluster.placement.group_of("acct1"))
    cluster.start_queue_pumps()

    outcomes = []

    def transfer_proc(index: int, dc: str):
        client = cluster.add_client(dc, protocol="paxos-cp")

        def run():
            yield cluster.env.timeout(index * 250.0)
            # Single-group transaction on acct0's group; the credit is a
            # deferred send — no prepare round, no in-doubt window.
            handle = yield from client.begin(key="acct0")
            balance = yield from client.read(handle, "acct0", "balance")
            sent = yield from client.read(handle, "acct0", "sent")
            client.write(handle, "acct0", "balance", balance - AMOUNT)
            client.write(handle, "acct0", "sent", sent + AMOUNT)
            # The credit must be *relative* state the receiver can apply
            # blindly; the running `sent` total is exactly that (the queue
            # gives us sender order, so the latest total wins).
            client.enqueue(handle, "acct1", "received", sent + AMOUNT)
            outcomes.append((yield from client.commit(handle)))

        cluster.env.process(run())

    datacenters = cluster.topology.names
    for index in range(N_TRANSFERS):
        transfer_proc(index, datacenters[index % len(datacenters)])
    cluster.run()

    commits = [o for o in outcomes if o.committed]
    print(f"\n{len(commits)}/{N_TRANSFERS} transfers committed "
          f"(each one single-group: no prepare round, no blocking window)")

    # The full obligation, raising InvariantViolation on any failure:
    # per-group §3 invariants, the queue-delivery invariant — every
    # committed send applied exactly once at group-1, in send order (the
    # settle's drain completed anything the pump had not delivered when the
    # run ended) — and each group's MVSG test: queue applies are
    # transactions of their receiver alone, so the groups share none.
    run = cluster.settle()
    cluster.check_invariants_all(outcomes, run)
    stats = cluster.queue_stats(run)
    assert stats.applied_online + stats.drained_offline == stats.sends == len(commits)
    print(f"queue: {stats.applied_online} applied online, "
          f"{stats.drained_offline} by the offline drain, "
          f"mean delivery lag {stats.mean_lag_ms:.0f} ms")

    # Ground truth from the stores: after the queues drain, the last applied
    # credit equals the total debited — money conserved across groups.
    reader = cluster.add_client("V1")

    def read_attr(row, attribute):
        handle = yield from reader.begin(key=row)
        value = yield from reader.read(handle, row, attribute)
        return value

    values = {}
    for row, attribute in (("acct0", "balance"), ("acct0", "sent"), ("acct1", "received")):
        process = cluster.env.process(read_attr(row, attribute))
        cluster.run()
        values[(row, attribute)] = process.value

    debited = INITIAL_BALANCE - values[("acct0", "balance")]
    received = values[("acct1", "received")] or 0
    print(f"acct0 balance {values[('acct0', 'balance')]}, "
          f"total sent {values[('acct0', 'sent')]}, "
          f"acct1 received {received}")
    assert debited == len(commits) * AMOUNT, "debits disagree with commits"
    assert received == values[("acct0", "sent")], "credits lag the queue drain!"
    print("eventual delivery, exactly-once apply, and global 1SR: OK")


if __name__ == "__main__":
    main()
