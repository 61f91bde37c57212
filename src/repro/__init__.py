"""repro — a reproduction of *Serializability, not Serial: Concurrency
Control and Availability in Multi-Datacenter Datastores* (Patterson, Elmore,
Nawab, Agrawal, El Abbadi; PVLDB 5(11), 2012).

The library implements the paper's full system in simulation:

* a deterministic discrete-event kernel (:mod:`repro.sim`),
* a multi-datacenter network with the paper's RTT matrix (:mod:`repro.net`),
* a per-datacenter multi-version key-value store (:mod:`repro.kvstore`),
* the replicated write-ahead log and its correctness invariants
  (:mod:`repro.wal`),
* Paxos per log position (:mod:`repro.paxos`),
* the transaction tier with both commit protocols — basic Paxos and
  Paxos-CP — plus the §7 leased-leader extension (:mod:`repro.core`),
* one-copy-serializability theory and checkers (:mod:`repro.serializability`),
* the YCSB-style workload (:mod:`repro.workload`), fault injection
  (:mod:`repro.failures`), and the figure-regeneration harness
  (:mod:`repro.harness`).

Quickstart::

    from repro import Cluster, ClusterConfig

    cluster = Cluster(ClusterConfig(cluster_code="VVV", seed=7))
    cluster.preload("accounts", {"row0": {"balance": 100}})
    client = cluster.add_client("V1", protocol="paxos-cp")

    def app():
        handle = yield from client.begin("accounts")
        balance = yield from client.read(handle, "row0", "balance")
        client.write(handle, "row0", "balance", balance - 10)
        outcome = yield from client.commit(handle)
        return outcome

    process = cluster.env.process(app())
    cluster.run()
    print(process.value.status)  # committed
"""

from repro.cluster import Cluster
from repro.config import (
    ClusterConfig,
    PlacementConfig,
    ProtocolConfig,
    StoreConfig,
    WorkloadConfig,
)
from repro.core.client import MultiGroupHandle, TransactionClient, TransactionHandle
from repro.errors import (
    CrossGroupTransaction,
    ReproError,
    ServiceUnavailable,
    TransactionError,
)
from repro.failures import FailureInjector
from repro.model import (
    AbortReason,
    Placement,
    Transaction,
    TransactionOutcome,
    TransactionStatus,
)
from repro.workload.driver import WorkloadDriver

__version__ = "1.0.0"

__all__ = [
    "AbortReason",
    "Cluster",
    "ClusterConfig",
    "CrossGroupTransaction",
    "FailureInjector",
    "MultiGroupHandle",
    "Placement",
    "PlacementConfig",
    "ProtocolConfig",
    "ReproError",
    "ServiceUnavailable",
    "StoreConfig",
    "Transaction",
    "TransactionClient",
    "TransactionError",
    "TransactionHandle",
    "TransactionOutcome",
    "TransactionStatus",
    "WorkloadConfig",
    "WorkloadDriver",
    "__version__",
]
