"""The anomaly classifier against the explicit-graph reference on the
histories the isolation sweep's ``si`` cells produce.

:func:`~repro.serializability.checker.classify_anomalies` finds its
components on the chained graph and labels edges only inside them; the
reference (:mod:`tests.serializability.explicit_mvsg`) builds the whole
explicit MVSG and asks ``networkx``.  The same comparison runs on arbitrary
histories in :mod:`tests.serializability.test_checker_properties`.
"""

from __future__ import annotations

import pytest

from benchmarks.bench_isolation import isolation_spec
from repro.harness.experiment import run_once
from repro.serializability import checker
from repro.serializability.history import MVHistory
from tests.serializability.explicit_mvsg import (
    assert_classifier_matches_reference,
    build_mvsg,
)

#: ``(protocol, n_transactions, seed)``: every seed of the two smaller
#: sizes, and the 3000-transaction cells (≈ 550 commits, ≈ 100k explicit
#: edges, ≈ 70 components) at seed 0.
SI_CELLS = [
    *((protocol, n, seed)
      for protocol in ("paxos", "paxos-cp")
      for n in (120, 500)
      for seed in (0, 1, 2)),
    ("paxos", 3000, 0),
    ("paxos-cp", 3000, 0),
]


@pytest.mark.parametrize("protocol, n_transactions, seed", SI_CELLS)
def test_classifier_matches_reference_on_si_cells(
    protocol, n_transactions, seed, monkeypatch
):
    histories: list[MVHistory] = []
    classify = checker.classify_anomalies

    def capture(history: MVHistory):
        histories.append(history)
        return classify(history)

    monkeypatch.setattr(checker, "classify_anomalies", capture)
    result = run_once(isolation_spec("si", protocol, n_transactions), seed)
    assert result.metrics.anomalies.get("write_skew", 0) > 0
    (history,) = histories
    labels: dict = {}
    graph = build_mvsg(history, labels=labels)
    assert_classifier_matches_reference(history, graph, labels)
