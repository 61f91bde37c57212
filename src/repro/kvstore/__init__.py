"""Per-datacenter multi-version key-value store.

This is the substrate the paper assumes under the transaction tier (§2.2):
atomic row access with multiple timestamped versions per row, exposing
exactly three operations —

* ``read(key, timestamp)`` — most recent version at or before *timestamp*;
* ``write(key, value, timestamp)`` — new version at *timestamp*, rejected if
  a later version exists;
* ``checkAndWrite(key.testAttribute, testValue, key, value)`` — conditional
  write against the latest version, executed atomically.

Data rows keep every version.  State rows (Paxos acceptor state, queue
tables, intents, transaction status: ``MultiVersionStore.STATE_PREFIXES``)
keep only their current one, which is all the protocol ever reads of them.

The paper's prototype used HBase; here the store is in-memory (offline
substitution, see DESIGN.md §2) with a pluggable per-operation latency model
(:class:`~repro.kvstore.service.StoreAccessor`) standing in for HBase-on-EBS
operation cost.  That cost matters: it sets the width of the window in which
transactions contend for a log position, which drives the paper's abort
rates.

Timestamps are the paper's *logical* timestamps — committed transactions use
their write-ahead-log position as the version timestamp of their writes.
"""

from repro.kvstore.row import RowVersion
from repro.kvstore.service import StoreAccessor, StoreLatencyModel
from repro.kvstore.store import MultiVersionStore

__all__ = [
    "MultiVersionStore",
    "RowVersion",
    "StoreAccessor",
    "StoreLatencyModel",
]
