"""Property-based cross-validation of the two serializability oracles.

The MVSG acyclicity test (polynomial, given a version order) must agree
with the brute-force Definition-1 search (exponential, exact over *all*
serial orders) in one direction: **acyclic MVSG ⇒ brute force finds a
witness** — the MVSG test is sound for its version order.  (The converse
does not hold in general: a history can be 1SR under a *different* version
order, which the given-order MVSG test may reject.  On histories generated
*from an execution order* — like ours, where the log defines versions — the
tests agree both ways; we check that stronger agreement on exactly such
histories.)
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serializability.checker import (
    brute_force_one_copy_serializable,
    classify_anomalies,
    equivalent_serial_order,
    is_one_copy_serializable,
    merge_group_histories,
)
from repro.serializability.history import HistoryTxn, MVHistory, serial_reads_from
from tests.helpers import fig7_history_inputs
from tests.serializability.explicit_mvsg import (
    INITIAL_NODE,
    assert_classifier_matches_reference,
    build_mvsg,
    find_cycle,
)

ITEMS = [("row0", "a"), ("row0", "b"), ("row0", "c")]


@st.composite
def execution_histories(draw):
    """Histories arising from an ordered execution with snapshot reads.

    Each transaction reads some items *from the state at a position at or
    before its own slot* and writes some items; versions are ordered by
    slot.  This generates both serializable histories (reads from the
    immediately preceding state) and non-serializable ones (stale reads).
    """
    n = draw(st.integers(min_value=1, max_value=6))
    history = MVHistory()
    # state_at[s][item] = writer of item after slot s (slot 0 = initial).
    states: list[dict] = [{item: None for item in ITEMS}]
    for slot in range(1, n + 1):
        tid = f"t{slot}"
        read_items = draw(st.sets(st.sampled_from(ITEMS), max_size=2))
        write_items = draw(st.sets(st.sampled_from(ITEMS), max_size=2))
        reads = []
        for item in sorted(read_items):
            # Read from any past state — possibly stale.
            source_slot = draw(st.integers(min_value=0, max_value=slot - 1))
            reads.append((item, states[source_slot][item]))
        history.add(HistoryTxn(tid, reads=tuple(reads), writes=tuple(sorted(write_items))))
        new_state = dict(states[-1])
        for item in write_items:
            history.version_order.setdefault(item, []).append(tid)
            new_state[item] = tid
        states.append(new_state)
    return history


@given(execution_histories())
@settings(max_examples=300, deadline=None)
def test_mvsg_sound_for_given_order(history):
    """MVSG acyclic ⇒ an equivalent serial order exists (Definition 1)."""
    ok, _cycle = is_one_copy_serializable(history)
    if ok:
        assert brute_force_one_copy_serializable(history)


@given(execution_histories())
@settings(max_examples=300, deadline=None)
def test_mvsg_complete_on_execution_histories(history):
    """On log-ordered histories the MVSG test is also complete.

    If the brute force finds *no* serial order at all, the MVSG must have a
    cycle (otherwise the topological order would be a witness, contradiction
    with the soundness test above); conversely if brute force succeeds under
    *some* order... we only assert the direction that matters for our use:
    brute-force failure ⇒ MVSG cycle.
    """
    if not brute_force_one_copy_serializable(history):
        ok, cycle = is_one_copy_serializable(history)
        assert not ok
        assert cycle


@given(execution_histories())
@settings(max_examples=150, deadline=None)
def test_fresh_reads_always_serializable(history):
    """A history whose every read is from the immediately preceding state is
    1SR by construction — rebuild the history with fresh reads and check."""
    fresh = MVHistory()
    last_writer = {item: None for item in ITEMS}
    for tid in history.tids():
        txn = history.transactions[tid]
        reads = tuple((item, last_writer[item]) for item, _ in txn.reads)
        fresh.add(HistoryTxn(tid, reads=reads, writes=txn.writes))
        for item in txn.writes:
            fresh.version_order.setdefault(item, []).append(tid)
            last_writer[item] = tid
    ok, cycle = is_one_copy_serializable(fresh)
    assert ok, f"fresh-read history must be serializable, got cycle {cycle}"


# ----------------------------------------------------------------------
# The chained MVSG against the explicit graph
# ----------------------------------------------------------------------

#: How a read picks its version relative to the reader's own version of the
#: item (falls back to "any" when the reader did not write the item).
READ_SHAPES = ("any", "own", "before_own", "after_own")


@st.composite
def arbitrary_histories(draw):
    """Valid histories with *no* execution order behind them.

    Unlike :func:`execution_histories`, version orders may be shuffled (a
    reader then precedes or follows its own version arbitrarily) and reads
    are steered into the shapes the chained graph special-cases: a
    transaction reading its own write, a read-modify-write (reads the
    version just before its own), a reader that wrote an *earlier* version
    than the one it reads, and blind writes (written, never read).
    """
    n = draw(st.integers(min_value=1, max_value=8))
    items = ITEMS[: draw(st.integers(min_value=1, max_value=len(ITEMS)))]
    tids = [f"t{index}" for index in range(1, n + 1)]
    writes = {
        tid: tuple(sorted(draw(st.sets(st.sampled_from(items), max_size=len(items)))))
        for tid in tids
    }
    history = MVHistory()
    for item in items:
        writers = [tid for tid in tids if item in writes[tid]]
        if writers:
            if draw(st.booleans()):
                writers = list(draw(st.permutations(writers)))
            history.version_order[item] = writers
    for tid in tids:
        reads = []
        for item in sorted(draw(st.sets(st.sampled_from(items), max_size=len(items)))):
            versions = [None, *history.version_order.get(item, [])]
            shape = draw(st.sampled_from(READ_SHAPES))
            own = versions.index(tid) if tid in versions else None
            if shape == "own" and own is not None:
                choices = [own]
            elif shape == "before_own" and own is not None:
                choices = [own - 1]
            elif shape == "after_own" and own is not None and own + 1 < len(versions):
                choices = list(range(own + 1, len(versions)))
            else:
                choices = list(range(len(versions)))
            reads.append((item, versions[draw(st.sampled_from(choices))]))
        history.add(HistoryTxn(tid, reads=tuple(reads), writes=writes[tid]))
    history.validate()
    return history


def assert_chained_graph_agrees_with_explicit_graph(history: MVHistory) -> None:
    """Same verdict as ``find_cycle(build_mvsg(h))``, and both witnesses —
    the cycle and the serial order — hold in the explicit graph.  The
    anomaly classifier, which runs on the chained graph, agrees with its
    explicit-graph reference."""
    labels: dict = {}
    explicit = build_mvsg(history, labels=labels)
    assert_classifier_matches_reference(history, explicit, labels)
    ok, cycle = is_one_copy_serializable(history)
    assert ok == (find_cycle(explicit) is None)
    if not ok:
        assert len(set(cycle)) == len(cycle) >= 2
        for hop in zip(cycle, cycle[1:] + cycle[:1]):
            assert explicit.has_edge(*hop), f"{hop} of {cycle} is no MVSG edge"
        return
    order = equivalent_serial_order(history)
    assert sorted(order) == sorted(history.transactions)
    slot = {tid: index for index, tid in enumerate(order)}
    for earlier, later in explicit.edges:
        if earlier != INITIAL_NODE:
            assert slot[earlier] < slot[later]
    # A serial single-version execution reads before it writes, so it can
    # replay every reads-from pair except a transaction's read of itself.
    if all(writer != txn.tid for txn in history.transactions.values()
           for _item, writer in txn.reads):
        replayed = serial_reads_from(history.transactions[tid] for tid in order)
        assert replayed == {
            tid: txn.reads_map() for tid, txn in history.transactions.items()
        }


@given(arbitrary_histories())
@settings(max_examples=600, deadline=None)
def test_chained_graph_agrees_with_explicit_graph(history):
    assert_chained_graph_agrees_with_explicit_graph(history)


@given(arbitrary_histories())
@settings(max_examples=200, deadline=None)
def test_classifier_reports_nothing_iff_chained_graph_is_acyclic(history):
    ok, _cycle = is_one_copy_serializable(history)
    assert classify_anomalies(history).serializable == ok


@pytest.mark.parametrize("n_transactions", [300, 1200])
def test_chained_graph_agrees_with_explicit_graph_on_fig7_cells(n_transactions):
    """The contended Figure 7 cell: hot items with hundreds of versions and
    readers, the shape the chains exist for."""
    assert_chained_graph_agrees_with_explicit_graph(
        MVHistory.from_log(*fig7_history_inputs(n_transactions))
    )


# ----------------------------------------------------------------------
# Group histories against their merge
# ----------------------------------------------------------------------


def in_group(history: MVHistory, group: str) -> MVHistory:
    """*history* with every transaction id prefixed by *group*, so that
    histories of different groups share no id until a rename merges some."""
    def tid(writer):
        return writer if writer is None else f"{group}:{writer}"

    renamed = MVHistory()
    for txn in history.transactions.values():
        reads = tuple((item, tid(writer)) for item, writer in txn.reads)
        renamed.add(HistoryTxn(tid(txn.tid), reads=reads, writes=txn.writes))
    for item, writers in history.version_order.items():
        renamed.version_order[item] = [tid(writer) for writer in writers]
    return renamed


@st.composite
def linked_group_histories(draw):
    """``(groups, rename)``: two to four group histories and a rename map
    that sends at most one transaction of each group to each global id —
    the shape a run's committed 2PC branches give the merge (one branch per
    participant group, all renamed to their gtid)."""
    groups = [
        (f"group-{index}", in_group(draw(arbitrary_histories()), f"group-{index}"))
        for index in range(draw(st.integers(min_value=2, max_value=4)))
    ]
    rename = {}
    for _group, history in groups:
        tids = draw(st.permutations(sorted(history.transactions)))
        gtids = draw(st.lists(
            st.sampled_from(["G0", "G1", "G2"]), unique=True, max_size=len(tids),
        ))
        rename.update(zip(tids, gtids))
    return groups, rename


@given(linked_group_histories())
@settings(max_examples=100, deadline=None)
def test_merged_history_keeps_every_group_cycle(groups_and_rename):
    """A cycle in any one group's history is a cycle of the merged history,
    however committed branches link the groups.  This is what lets the
    offline pass run the one merged MVSG test in place of the per-group
    ones; and with no branch linking them, the merge is the disjoint union
    of the groups, so the verdicts agree both ways."""
    groups, rename = groups_and_rename
    group_ok = all(is_one_copy_serializable(history)[0] for _group, history in groups)
    merged_ok, _cycle = is_one_copy_serializable(merge_group_histories(groups, rename))
    if not group_ok:
        assert not merged_ok
    unlinked_ok, _cycle = is_one_copy_serializable(merge_group_histories(groups))
    assert unlinked_ok == group_ok
