"""The ledger's one run procedure, shared by both front-ends.

``measure`` runs one workload: *repeats* untraced cells, each in a fresh
child process spawned one at a time (the box has two cores and the load
generator is the single simulator thread), then — when tracing — one cell
under ``cProfile`` and the isolated micro-drives.

Two clocks.  *Simulated* metrics repeat exactly for a given seed; *host*
metrics are CPU seconds (``time.process_time``) and are noisy.  Cell *i*
of a run simulates with sub-seed ``seed * 100 + i``: the medians over the
cells then steady the simulated metrics across seeds as well as the host
ones, and stay a pure function of ``(seed, repeats)``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

from benchmarks.ledger.workloads import Workload

ROOT = Path(__file__).resolve().parents[2]
CELL = Path(__file__).with_name("cell.py")

#: The job that runs the isolated micro-drives instead of a cell.
MICRO_JOB = {"micro": True}
#: No cell takes a tenth of this; a hung child must not hang the run.
CELL_TIMEOUT_S = 150


#: Per-layer metrics on the host clock beside every ``*.self_share`` and
#: ``harness.*``; all the others are counters of the simulation.
_HOST_LAYER_METRICS = frozenset({
    "sim.events_per_host_s", "sim.chain_events_per_s",
    "net.pingpong_msgs_per_s", "wal.finalize_s",
    "check.host_s", "check.us_per_txn", "check.host_share",
})
_HOST_END_TO_END = frozenset({"host_us_per_txn", "setup_s", "peak_rss_mb"})


def is_host_clock(name: str) -> bool:
    """Whether metric *name* is measured on the (noisy) host clock; the
    rest come from the simulator and repeat exactly for a given seed."""
    return (
        name in _HOST_END_TO_END or name in _HOST_LAYER_METRICS
        or name.endswith(".self_share") or name.startswith("harness.")
    )


class LedgerError(RuntimeError):
    """A correctness check of the ledger failed; no metrics are reported."""


def load_contract() -> dict:
    """``BENCHMARK.json``: the names, units and bounds the ledger emits."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spawn(job: dict) -> dict:
    """Run one job in a fresh child and return the record it printed."""
    # A fixed hash seed removes one source of host noise (dict and set
    # layouts); simulated results do not depend on it.
    child = subprocess.run(
        [sys.executable, str(CELL), json.dumps(job)],
        capture_output=True, text=True, timeout=CELL_TIMEOUT_S,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    if child.returncode != 0:
        raise LedgerError(
            f"child for {job} exited {child.returncode}:\n{child.stderr[-2000:]}"
        )
    return json.loads(child.stdout.splitlines()[-1])


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    low, _, high = quantiles(values, n=4)
    return (high - low) / median(values)


def cell_job(
    workload: str, seed: int, scale: float = 1.0, trace: bool = False,
    setup_only: bool = False, engine: str | None = None,
) -> dict:
    """The job ``cell.py`` takes: one cell of *workload* with *seed*.

    ``setup_only`` stops where ``Cluster.run`` would start; ``engine``
    overrides the workload's simulation engine (the ``--verify`` pass).
    """
    return {"workload": workload, "seed": seed, "scale": scale, "trace": trace,
            "setup_only": setup_only, "engine": engine}


def measure(
    workload: Workload, seed: int, repeats: int, scale: float = 1.0,
    setup_samples: int = 0, trace: bool = False, micro: dict | None = None,
) -> dict:
    """Run *workload* and return its end-to-end (and traced) metrics.

    Set-up is ~0.3 s of a multi-second cell, so a run with few cells tops
    ``setup_s`` up to *setup_samples* samples with set-up-only children.
    *micro* passes in micro-drive results already measured in this pass.
    """
    name = workload.name
    cells = [spawn(cell_job(name, seed * 100 + i, scale)) for i in range(repeats)]
    samples = {
        metric: [cell["end_to_end"][metric] for cell in cells]
        for metric in cells[0]["end_to_end"]
    }
    samples["setup_s"] = [cell["setup_s"] for cell in cells] + [
        spawn(cell_job(name, seed * 100, scale, setup_only=True))["setup_s"]
        for _ in range(setup_samples - repeats)
    ]
    result = {
        "workload": name,
        "seed": seed,
        "repeats": repeats,
        "attempted": sum(cell["attempted"] for cell in cells),
        "failed": sum(cell["failed"] for cell in cells),
        "commits": [cell["commits"] for cell in cells],
        "digests": [cell["digest"] for cell in cells],
        "end_to_end": {metric: median(values) for metric, values in samples.items()},
        "quartiles": {
            metric: quantiles(values, n=4) if len(values) > 1 else values * 3
            for metric, values in samples.items()
        },
    }
    if not trace:
        return result
    first = cells[0]
    traced = spawn(cell_job(name, first["seed"], scale, trace=True))
    if traced["digest"] != first["digest"]:
        raise LedgerError(
            f"{name}: seed {first['seed']} gave digest "
            f"{first['digest'][:12]} untraced and {traced['digest'][:12]} "
            f"traced — the simulation is not deterministic"
        )
    phases = {
        phase: median(cell["phase_s"][phase] for cell in cells)
        for phase in ("prepare_run", "cluster.run", "finish_run")
    }
    result["per_layer"] = {
        **first["counters"],
        **traced["traced"],
        **(micro or spawn(MICRO_JOB)),
        "sim.events_per_host_s": median(
            cell["events"] / cell["phase_s"]["cluster.run"] for cell in cells
        ),
        "harness.prepare_s": phases["prepare_run"],
        "harness.run_s": phases["cluster.run"],
        "harness.finish_s": phases["finish_run"],
        "harness.trace_overhead_ratio": traced["host_s"] / first["host_s"],
        "harness.wall_over_cpu": median(
            cell["wall_s"] / cell["host_s"] for cell in cells
        ),
        "harness.host_spread": spread(samples["host_us_per_txn"]),
    }
    result["spans"] = traced["spans"]
    return result


def named(values: dict[str, float], entries: list[dict]) -> dict[str, dict]:
    """*values* in the contract's shape: every listed name, with its unit."""
    missing = [entry["name"] for entry in entries if entry["name"] not in values]
    if missing:
        raise LedgerError(f"metrics in BENCHMARK.json but not measured: {missing}")
    return {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in entries
    }
