#!/usr/bin/env python3
"""Geo-placement study: where you put replicas decides your latency.

Figure 5 of the paper compares datacenter combinations; this example turns
that into the question an operator actually asks: *given clients in
Virginia, which three-site replica placement should I choose?*  It runs the
same workload over several placements and reports commit rate and latency
for both protocols.

Run:  python examples/geo_placement.py        (~20 s of simulation per cell)
"""

from repro import Cluster, ClusterConfig, WorkloadConfig
from repro.workload.driver import WorkloadDriver

PLACEMENTS = ["VVV", "VVO", "COV"]
WORKLOAD = WorkloadConfig(
    n_transactions=120,
    n_attributes=100,
    n_threads=4,
    target_rate_per_thread=1.0,
)


def run_cell(code: str, protocol: str):
    cluster = Cluster(ClusterConfig(cluster_code=code, seed=17))
    # Clients live in Virginia when the placement has a V site; otherwise in
    # the first-listed site.
    virginia = [dc for dc in cluster.topology.names if dc.startswith("V")]
    client_dc = virginia[0] if virginia else cluster.topology.names[0]
    driver = WorkloadDriver(cluster, WORKLOAD, protocol, datacenter=client_dc)
    driver.install_data()
    driver.start()
    cluster.run()
    outcomes = driver.result.outcomes
    # Raises InvariantViolation unless every §3 obligation holds.
    cluster.check_invariants_all(outcomes, cluster.settle())
    commits = [o for o in outcomes if o.committed]
    mean_latency = (sum(o.latency_ms for o in commits) / len(commits)) if commits else float("nan")
    return len(commits), len(outcomes), mean_latency


def main() -> None:
    print(f"{'placement':<10} {'protocol':<9} {'commits':<10} {'mean commit latency'}")
    print("-" * 55)
    cells = {}
    for code in PLACEMENTS:
        for protocol in ("paxos", "paxos-cp"):
            commits, total, latency = cells[code, protocol] = run_cell(code, protocol)
            print(f"{code:<10} {protocol:<9} {commits}/{total:<7} {latency:8.1f} ms")
    # The reading below, checked against the table.
    for protocol in ("paxos", "paxos-cp"):
        assert cells["VVV", protocol][2] < cells["COV", protocol][2]
    for code in PLACEMENTS:
        assert cells[code, "paxos-cp"][0] > cells[code, "paxos"][0]
    print(
        "\nReading the table: V-only quorums answer in ~2 ms, so VVV commits"
        "\nfaster than any placement needing a cross-country quorum"
        "\n— but VVV has no regional fault tolerance."
        "\nVVO keeps V-local quorums AND survives a Virginia-zone loss;"
        "\nCOV pays cross-country latency on every commit.  Paxos-CP"
        "\nimproves the commit rate in all placements (Figure 5's point)."
    )


if __name__ == "__main__":
    main()
