"""The chained MVSG against its list-of-lists reference.

:class:`~repro.serializability.graph.ChainedMVSG` derives the successors of
its chain nodes instead of storing them.  The graph is the same one, so the
search over it must report the same cycle, or the same serial order, and
count the same edges as :class:`ReferenceChainedMVSG`, the form that stored
one list per node.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.serializability.graph import ChainedMVSG
from repro.serializability.history import MVHistory
from tests.helpers import fig7_history_inputs
from tests.serializability.reference_mvsg import ReferenceChainedMVSG
from tests.serializability.test_checker_properties import arbitrary_histories


def assert_same_graph(history: MVHistory) -> None:
    chained, reference = ChainedMVSG(history), ReferenceChainedMVSG(history)
    assert chained.cycle_or_order() == reference.cycle_or_order()
    assert chained.edge_count == reference.edge_count


@given(arbitrary_histories())
@settings(max_examples=600, deadline=None)
def test_chained_graph_matches_reference_on_arbitrary_histories(history):
    assert_same_graph(history)


@pytest.mark.parametrize("n_transactions", [300, 1200])
def test_chained_graph_matches_reference_on_fig7_cells(n_transactions):
    assert_same_graph(MVHistory.from_log(*fig7_history_inputs(n_transactions)))
