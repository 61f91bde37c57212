"""The perf ledger: every workload, both clocks, every layer, one command.

    PYTHONPATH=src python -m benchmarks.ledger [--seed 0] [--repeats 5]
        [--workload NAME]... [--out FILE] [--verify] [--twice] [--smoke]

Prints every metric of ``BENCHMARK.json`` by name with its unit, checks
correctness, and exits 1 — writing no file — on any violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.ledger.runner import (  # noqa: E402
    LedgerError,
    is_host_clock,
    MICRO_JOB,
    cell_job,
    load_contract,
    measure,
    named,
    spawn,
)
from benchmarks.ledger.workloads import WORKLOADS  # noqa: E402

#: The paper's sentence the ``--verify`` pass prints the measured
#: per-instance message counts beside (arXiv:1208.0270, abstract).
PAPER_CLAIM = (
    'the paper says Paxos-CP keeps "the same per instance message '
    'complexity" as basic Paxos'
)


def run_pass(names: list[str], seed: int, repeats: int, scale: float) -> dict[str, dict]:
    """Measure every named workload once, traced; print as it goes."""
    contract = load_contract()
    micro = spawn(MICRO_JOB)  # workload-independent: once per pass
    results = {}
    for name in names:
        result = measure(
            WORKLOADS[name], seed, repeats, scale, trace=True, micro=micro
        )
        result["end_to_end"] = named(result["end_to_end"], contract["end_to_end"])
        result["per_layer"] = named(result["per_layer"], contract["per_layer"])
        results[name] = result
        print_result(result)
    return results


def print_result(result: dict) -> None:
    print(
        f"\n== {result['workload']}: seed {result['seed']}, "
        f"{result['repeats']} cell(s), {result['attempted']} transactions "
        f"attempted, {result['failed']} unanswered, commits per cell "
        f"{result['commits']}"
    )
    print(f"{'end-to-end (median over cells)':36s} {'median':>14s} "
          f"{'q1':>12s} {'q3':>12s}  unit   clock")
    for name, metric in result["end_to_end"].items():
        low, _, high = result["quartiles"][name]
        clock = "host" if is_host_clock(name) else "sim"
        print(f"{name:36s} {metric['value']:>14.6g} {low:>12.6g} "
              f"{high:>12.6g}  {metric['unit']:6s} {clock}")
    print(f"{'per-layer (counters; traced cell; micro)':36s}")
    for name, metric in result["per_layer"].items():
        clock = "host" if is_host_clock(name) else "sim"
        print(f"{name:36s} {metric['value']:>14.6g} {'':>25s}  "
              f"{metric['unit']:6s} {clock}")


def violations(results: dict[str, dict]) -> list[str]:
    """What one pass must satisfy beyond every child exiting 0 (which
    covers the invariant suite and the MVSG oracle on the checked cells)."""
    found = []

    def value(workload: str, kind: str, name: str) -> float:
        return results[workload][kind][name]["value"]

    if {"fig7_paxos", "fig7_paxos_cp"} <= results.keys():
        basic = value("fig7_paxos", "end_to_end", "commit_ratio")
        cp = value("fig7_paxos_cp", "end_to_end", "commit_ratio")
        if not cp > basic:
            found.append(
                f"the paper's claim fails: Paxos-CP commits {cp:.3f} of its "
                f"transactions, basic Paxos {basic:.3f}"
            )
    for name, result in results.items():
        shares = sum(
            metric["value"] for key, metric in result["per_layer"].items()
            if key.endswith(".self_share")
        )
        if abs(shares - 1.0) > 0.01:
            found.append(f"{name}: self shares sum to {shares:.4f}, not 1")
    if "openloop_knee" in results and value("openloop_knee", "per_layer", "check.host_s"):
        found.append("openloop_knee ran the checkers; it exists to bypass them")
    if "crash_recovery" in results and not value(
        "crash_recovery", "per_layer", "failures.unavailable_ms"
    ):
        found.append("crash_recovery saw no unavailability; its faults did not bite")
    return found


def disagreements(first: dict[str, dict], second: dict[str, dict]) -> list[str]:
    """Two passes of the same code: simulated metrics and counters must be
    identical, host end-to-end medians within their ``BENCHMARK.json`` bound."""
    bounds = {entry["name"]: entry for entry in load_contract()["end_to_end"]}
    found = []
    for name in first:
        for kind in ("end_to_end", "per_layer"):
            for key, metric in first[name][kind].items():
                a, b = metric["value"], second[name][kind][key]["value"]
                if not is_host_clock(key):
                    if a != b:
                        found.append(f"{name} {key}: {a!r} then {b!r} (simulated: must repeat)")
                elif key in bounds:
                    worse = (b - a) / a if bounds[key]["better"] == "lower" else (a - b) / a
                    if worse > bounds[key]["bound"]:
                        found.append(
                            f"{name} {key}: {a:.6g} then {b:.6g}, worse by "
                            f"{worse:.1%} > bound {bounds[key]['bound']:.0%}"
                        )
    return found


def verify(results: dict[str, dict], seed: int, scale: float) -> list[str]:
    """The reproduction checks nobody had run: engine equivalence (gated)
    and per-instance message complexity (reported, not gated)."""
    found = []
    if "sharded_64g" in results:
        single_heap = spawn(
            cell_job("sharded_64g", seed * 100, scale, engine="global")
        )["digest"]
        laned = results["sharded_64g"]["digests"][0]
        same = single_heap == laned
        print(f"\nverify: sharded_64g digest {laned[:16]} (laned engine) vs "
              f"{single_heap[:16]} (single heap): {'equal' if same else 'DIFFERENT'}")
        if not same:
            found.append("sharded_64g: the laned and single-heap engines disagree")
    if {"fig7_paxos", "fig7_paxos_cp"} <= results.keys():
        basic, cp = (
            results[name]["per_layer"]["paxos.msgs_per_position"]["value"]
            for name in ("fig7_paxos", "fig7_paxos_cp")
        )
        print(f"verify: {PAPER_CLAIM}.\n"
              f"        measured paxos.msgs_per_position: fig7_paxos {basic:.3f}, "
              f"fig7_paxos_cp {cp:.3f} (ratio {cp / basic:.3f}; reported, not gated)")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5,
                        help="untraced cells per workload (default 5)")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="run only this workload (repeatable; default all six)")
    parser.add_argument("--out", type=Path, help="write the results as JSON")
    parser.add_argument("--verify", action="store_true",
                        help="also: laned vs single-heap digest, message complexity")
    parser.add_argument("--twice", action="store_true",
                        help="run everything twice and check the two passes agree")
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of every workload, one cell: a plumbing check")
    args = parser.parse_args(argv)

    names = args.workload or list(WORKLOADS)
    scale, repeats = (0.1, 1) if args.smoke else (1.0, args.repeats)
    try:
        passes = [run_pass(names, args.seed, repeats, scale)]
        found = violations(passes[0])
        if args.verify:
            found += verify(passes[0], args.seed, scale)
        if args.twice:
            passes.append(run_pass(names, args.seed, repeats, scale))
            found += violations(passes[1]) + disagreements(*passes)
    except LedgerError as error:
        found = [str(error)]
    if found:
        print("\nFAILED:\n  " + "\n  ".join(found), file=sys.stderr)
        return 1
    print("\nall correctness checks passed")
    if args.out:
        args.out.write_text(json.dumps(
            {"seed": args.seed, "repeats": repeats, "scale": scale, "passes": passes},
            indent=1,
        ) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
