"""Calibration sensitivity: the store-latency knob vs. the paper's shapes.

EXPERIMENTS.md fixes one free parameter — per-operation store latency —
to land basic Paxos near the paper's absolute commit rate.  This bench
demonstrates the claim made there: the paper's *qualitative* conclusions
(CP > basic; contention bends CP, not basic) hold across a wide range of
that knob, while the absolute commit rate moves.  If a code change makes
the conclusions calibration-sensitive, this fails.
"""

from benchmarks.conftest import N_TRANSACTIONS, TRIALS, RESULTS_DIR
from repro.config import ClusterConfig, StoreConfig, WorkloadConfig
from repro.harness.experiment import ExperimentSpec, run_cell
from repro.harness.report import format_cells

#: (low_ms, high_ms) per store operation: fast SSD-class → slow EBS-class.
LATENCY_POINTS = [(2.0, 5.0), (5.0, 11.0), (10.0, 24.0), (16.0, 36.0)]


def run_sweep():
    results = []
    for low, high in LATENCY_POINTS:
        for protocol in ("paxos", "paxos-cp"):
            spec = ExperimentSpec(
                name=f"store {low:g}-{high:g}ms",
                cluster=ClusterConfig(
                    cluster_code="VVV",
                    store=StoreConfig(op_low_ms=low, op_high_ms=high),
                ),
                workload=WorkloadConfig(n_transactions=N_TRANSACTIONS),
                protocol=protocol,
            )
            results.append(run_cell(spec, trials=TRIALS))
    return results


def test_calibration_sensitivity(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    text = format_cells(results, title="Calibration: store latency sweep (VVV, 100 attrs)")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "calibration_sensitivity.txt").write_text(text + "\n")
    print()
    print(text)

    cells: dict[str, dict[str, int]] = {}
    for result in results:
        cells.setdefault(result.spec.name, {})[result.spec.protocol] = (
            result.metrics.commits
        )
    basic_rates = []
    for name, by_protocol in cells.items():
        # The headline conclusion holds at every calibration point.
        assert by_protocol["paxos-cp"] > by_protocol["paxos"], name
        basic_rates.append(by_protocol["paxos"])
    # The knob genuinely moves the absolute numbers: slower stores widen the
    # contention window and cut basic Paxos's commit rate.
    assert basic_rates[0] > basic_rates[-1]
