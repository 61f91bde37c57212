#!/usr/bin/env python3
"""Anatomy of a promotion (§5) — watch Paxos-CP rescue a loser.

Two transactions race for the same log position with disjoint operations.
Under basic Paxos one must abort.  Under Paxos-CP the loser detects that
the winner's writes do not intersect its reads, re-enters the protocol for
the next position ("promotion"), and commits there.  A third transaction
that *does* read what the winner wrote must still abort — promotion never
sacrifices one-copy serializability.

Run:  python examples/promotion_anatomy.py
"""

from repro import Cluster, ClusterConfig

GROUP = "g"


def build_cluster() -> Cluster:
    cluster = Cluster(ClusterConfig(cluster_code="VVV", seed=5))
    cluster.preload(GROUP, {
        "row": {f"a{i}": f"init{i}" for i in range(6)},
    })
    return cluster


def race(protocol: str):
    """Three overlapping transactions; returns their outcomes by name."""
    cluster = build_cluster()
    results = {}

    def participant(name, dc, delay, reads, writes):
        client = cluster.add_client(dc, protocol=protocol)

        def run():
            yield cluster.env.timeout(delay)
            handle = yield from client.begin(GROUP)
            for attribute in reads:
                yield from client.read(handle, "row", attribute)
            for attribute in writes:
                client.write(handle, "row", attribute, f"{name}-wrote")
            results[name] = yield from client.commit(handle)

        cluster.env.process(run())

    # "winner" gets a head start; the others begin inside its commit window.
    participant("winner", "V1", 0.0, reads=["a0"], writes=["a0", "a1"])
    participant("disjoint", "V2", 10.0, reads=["a2"], writes=["a3"])
    participant("conflicted", "V3", 10.0, reads=["a1"], writes=["a4"])
    cluster.run()
    # Raises InvariantViolation unless the race stayed one-copy serializable.
    cluster.check_invariants_all(list(results.values()), cluster.settle())
    return results


def describe(name, outcome):
    status = "COMMIT" if outcome.committed else f"ABORT ({outcome.abort_reason})"
    extra = ""
    if outcome.committed:
        extra = (f" at position {outcome.commit_position}"
                 f" after {outcome.promotions} promotion(s)")
    print(f"  {name:<11} {status}{extra}")


def main() -> None:
    print("Three racing transactions:")
    print("  winner:     reads a0, writes a0+a1 (first to commit)")
    print("  disjoint:   reads a2, writes a3    (no overlap with winner)")
    print("  conflicted: reads a1, writes a4    (reads what winner writes)")

    print("\n--- basic Paxos (concurrency prevention) ---")
    for name, outcome in race("paxos").items():
        describe(name, outcome)

    print("\n--- Paxos-CP (combination + promotion) ---")
    outcomes = race("paxos-cp")
    for name, outcome in outcomes.items():
        describe(name, outcome)

    assert outcomes["winner"].committed
    assert outcomes["disjoint"].committed, "promotion should rescue it"
    assert not outcomes["conflicted"].committed, (
        "a reads-from conflict must still abort — serializability first"
    )
    print("\nThe disjoint loser was promoted and committed; the conflicted "
          "one aborted.\nSerializability, not serial.")


if __name__ == "__main__":
    main()
