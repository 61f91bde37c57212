"""One workload, one seed, one JSON line: the ``BENCHMARK.json`` command.

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` reports every end-to-end metric, ``--trace 1`` every
per-layer metric; the last line of standard output is the result object.
``--seconds`` buys a *fixed* number of cells (``seconds ÷ workload.cell_s``,
at least three), so the simulated metrics depend on the seed and never on
how fast the host was.  Any correctness failure exits non-zero with no
result line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.ledger.runner import load_contract, measure, named  # noqa: E402
from benchmarks.ledger.workloads import WORKLOADS  # noqa: E402

#: Fewest timed cells per run: a median of fewer is no median.
MIN_REPEATS = 3
#: Samples of ``setup_s`` per run, topped up with set-up-only children.
SETUP_SAMPLES = 7
#: Untraced cells beside the traced one: enough for the untraced phase
#: times and ``harness.host_spread``.
TRACED_REPEATS = 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    contract = load_contract()
    workload = WORKLOADS[args.workload]
    if args.trace:
        result = measure(workload, args.seed, TRACED_REPEATS, trace=True)
        metrics = named(result["per_layer"], contract["per_layer"])
    else:
        repeats = max(MIN_REPEATS, round(args.seconds / workload.cell_s))
        result = measure(workload, args.seed, repeats, setup_samples=SETUP_SAMPLES)
        metrics = named(result["end_to_end"], contract["end_to_end"])
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
