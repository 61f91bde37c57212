"""Memory guard: a wide row's versions do not copy its image per write.

A transaction changes a few of a data row's attributes.  The reference
store copies the whole image into every version; the store keeps only the
changes over a shared image, re-imaging once they exceed a quarter of it.
This fails if wide rows go back to one full copy per version.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.kvstore.store import MultiVersionStore
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
