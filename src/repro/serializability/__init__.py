"""One-copy serializability theory (§3 of the paper).

The paper's correctness target is **one-copy serializability** (Definition
1): a multi-version, multi-copy (MVMC) history must be equivalent to some
*serial* single-copy, single-version (SCSV) history with the same operations
and the same reads-x-from relations.

This package provides:

* :mod:`repro.serializability.history` — a compact history representation
  (per-transaction reads-from pairs and write sets, plus a version order per
  item), with a constructor that derives the history of a finished run from
  the replicated write-ahead log;
* :mod:`repro.serializability.graph` — the multi-version serialization
  graph (MVSG) of Bernstein/Hadzilacos/Goodman as a *chained* graph
  (:class:`ChainedMVSG`, O(reads + versions) edges, same reachability,
  flat integer arrays) that every check runs on, plus the definition's
  labelled edges among a given set of transactions for the anomaly
  classifier;
* :mod:`repro.serializability.checker` — the polynomial MVSG acyclicity
  test for a *given* version order (the log order supplies one), an exact
  brute-force decision procedure for small histories (used to validate the
  graph test property-based), an equivalent-serial-order extractor, and
  the anomaly classifier of the snapshot-isolation axis.

The integration tests cross-check the log-replay invariant
(:func:`repro.wal.invariants.check_l3_prefix_serializable`) against the MVSG
test here — two independently implemented oracles for the same theorem.
"""

from repro.serializability.checker import (
    brute_force_one_copy_serializable,
    equivalent_serial_order,
    is_one_copy_serializable,
)
from repro.serializability.graph import ChainedMVSG
from repro.serializability.history import HistoryTxn, MVHistory

__all__ = [
    "ChainedMVSG",
    "HistoryTxn",
    "MVHistory",
    "brute_force_one_copy_serializable",
    "equivalent_serial_order",
    "is_one_copy_serializable",
]
