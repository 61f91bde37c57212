"""Every ``(row, attribute)`` item a simulation records is one object.

A retained history holds an item per read, write and queue send; built
fresh per operation, the Figure 7 cell alone keeps ≈ 29k copies of its 100
distinct items.  The clients of one cluster share one intern table, so equal
items in the retained outcomes — single-group records and 2PC records
alike — must be the very same object.
"""

from __future__ import annotations

from repro.harness.experiment import run_once
from repro.model import CROSS_GROUP
from tests.helpers import fig7_spec, xgroup_mix_spec


def recorded_items(outcomes):
    """Every item occurrence in the outcomes' read sets, snapshots, writes
    and queue sends."""
    for outcome in outcomes:
        txn = outcome.transaction
        yield from txn.read_set
        yield from (item for item, _ in txn.read_snapshot)
        yield from (item for item, _ in txn.writes)
        for send in txn.sends:
            yield from (item for item, _ in send.writes)


def assert_interned(outcomes):
    canonical: dict = {}
    occurrences = 0
    for item in recorded_items(outcomes):
        occurrences += 1
        assert canonical.setdefault(item, item) is item, item
    # The check has teeth only if items really repeat.
    assert occurrences > len(canonical) > 0


def test_fig7_items_are_shared():
    result = run_once(fig7_spec(300, "paxos"), seed=0)
    assert_interned(result.outcomes)


def test_xgroup_mix_items_are_shared_including_2pc_records():
    result = run_once(xgroup_mix_spec(200), seed=0)
    global_records = [
        outcome for outcome in result.outcomes
        if outcome.transaction.group == CROSS_GROUP and outcome.transaction.writes
    ]
    assert global_records  # the mix really ran 2PC
    assert any(txn.transaction.sends for txn in result.outcomes)
    assert_interned(result.outcomes)
    assert_interned(global_records)
