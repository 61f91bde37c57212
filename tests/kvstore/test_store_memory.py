"""Memory guards: what the store's rows hold.

A transaction changes a few of a data row's attributes.  The reference
store copies the whole image into every version; the store keeps only the
changes over a shared image, re-imaging once they exceed a quarter of it.
The first guard fails if wide rows go back to one full copy per version.

A state row (acceptor state, queue tables, intents, transaction status)
keeps only its current version.  The second guard runs a whole cell and
fails if any state row holds more than one, or if their bytes per committed
transaction grow back towards one version per write.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from types import MappingProxyType

from repro.harness.experiment import finish_run, prepare_run
from repro.kvstore.row import RowVersion
from repro.kvstore.store import MultiVersionStore
from tests.helpers import xgroup_mix_spec
from tests.kvstore.reference_store import ReferenceStore

WIDTH = 100
WRITES = 500


def retained_bytes(make_store) -> int:
    """Bytes still allocated while a store holds one 100-attribute row and
    500 two-attribute writes to it."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = make_store("memory")
        store.write("data/row0", {f"a{index}": f"v{index}" for index in range(WIDTH)},
                    timestamp=0)
        for ts in range(1, WRITES + 1):
            # Two different attributes each time: the change sets keep growing
            # until the row re-images.
            store.write("data/row0", {f"a{(2 * ts) % WIDTH}": ts,
                                      f"a{(2 * ts + 1) % WIDTH}": ts}, timestamp=ts)
        retained = tracemalloc.get_traced_memory()[0] - before
        assert len(store.versions("data/row0")) == WRITES + 1
        del store
    finally:
        tracemalloc.stop()
    return retained


def test_wide_row_versions_keep_at_most_a_third_of_full_copies():
    store = retained_bytes(MultiVersionStore)
    reference = retained_bytes(ReferenceStore)
    assert store * 3 <= reference, (store, reference)


# ---------------------------------------------------------------------------
# State rows: one version each, whatever a cell writes to them
# ---------------------------------------------------------------------------

#: Bytes the state rows of every store hold per committed transaction after
#: ``xgroup_mix_spec(300)`` at seed 0 (216 commits), by ``sys.getsizeof`` of
#: each row's list, its versions and the dicts and read-only views they hold,
#: each object once, attribute values not counted.  CPython 3.11: 5981 B
#: (4 012 versions) when every write appended a version; 2415 B (1 549) with
#: one version per state row.  The budget leaves room for another
#: interpreter's object sizes.
STATE_BUDGET_BYTES_PER_COMMIT = 3200

_HOLDERS = (list, RowVersion, dict, MappingProxyType)


def held_bytes(obj, seen: set[int]) -> int:
    """``sys.getsizeof`` of *obj* and the versions, dicts and views it
    holds, skipping objects already in *seen*; a dict's values are not
    followed."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    total = sys.getsizeof(obj)
    if not isinstance(obj, dict):
        total += sum(held_bytes(inner, seen) for inner in gc.get_referents(obj)
                     if isinstance(inner, _HOLDERS))
    return total


def test_state_rows_keep_one_version_each_in_a_cell():
    spec = xgroup_mix_spec(300)
    cluster, drivers = prepare_run(spec, seed=0)
    cluster.run()
    result = finish_run(spec, cluster, drivers)
    seen: set[int] = set()
    state_bytes = state_versions = 0
    for store in cluster.lane_stores.values():
        for key in store.keys("_"):
            assert key.startswith(MultiVersionStore.STATE_PREFIXES), key
            versions = store._rows[key]
            assert len(versions) == 1, (store.name, key, len(versions))
            state_versions += len(versions)
            state_bytes += held_bytes(versions, seen)
    per_commit = state_bytes / result.metrics.commits
    assert per_commit <= STATE_BUDGET_BYTES_PER_COMMIT, (
        f"{per_commit:.0f} B per committed transaction in {state_versions} versions"
    )
