"""Memory guard: what the one-copy-serializability oracle holds per
committed transaction.

The oracle runs on every checked cell, and on the contended Figure 7 cell
its peak is the peak of the whole cell.  tracemalloc counts the bytes the
Python allocator hands out, exactly and without the process's resident
noise, so this is a tier-1 guard, not a timing benchmark.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.serializability.checker import is_one_copy_serializable
from repro.serializability.history import MVHistory
from tests.helpers import fig7_history_inputs

#: Bytes of tracemalloc peak per committed transaction.  Measured at seed 0
#: (370 committed transactions) on CPython 3.11: 3879 B with per-write index
#: tuples, frozenset write sets and one successor list per chain node; 1376 B
#: with parallel per-item write lists, tuple write sets and implicit chain
#: nodes.  The budget leaves room for another interpreter's object sizes.
BUDGET_BYTES_PER_TXN = 2200


def test_oracle_peak_per_committed_transaction_stays_within_budget():
    log, image = fig7_history_inputs(600, "paxos-cp")
    gc.collect()
    tracemalloc.start()
    try:
        history = MVHistory.from_log(log, image)
        ok, cycle = is_one_copy_serializable(history)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok, cycle
    assert peak / len(history) <= BUDGET_BYTES_PER_TXN, (
        f"{peak / len(history):.0f} B per committed transaction"
    )
