"""Fanning experiment cells out over worker processes.

Every experiment cell is deterministic and shares nothing: ``run_once``
builds a fresh :class:`~repro.cluster.Cluster` from a frozen spec and a
seed, runs it to quiescence, and returns plain-data metrics.  That makes
(cell × trial seed) tasks embarrassingly parallel — the same observation
that lets the benchmark sweeps exploit every core instead of being
wall-clock bound by one Python interpreter.

Guarantees:

* **Bit-identical results.**  Seeds are derived exactly as the serial path
  derives them (:func:`trial_seed`), workers return the full per-trial
  result, and aggregation happens in the parent in the same (cell, trial)
  order the serial loop uses — so ``jobs=N`` and ``jobs=1`` produce
  field-for-field identical :class:`~repro.harness.metrics.RunMetrics`.
* **Spawn-safe.**  Tasks and results cross the process boundary by pickle:
  specs are frozen dataclasses, results are plain dataclasses.  The pool
  uses the ``spawn`` start method everywhere (the only method available on
  every platform, and the one that catches hidden global state by
  construction); pass ``mp_context="fork"`` to trade that safety for faster
  worker start-up on POSIX.
* **Invariant checking still bites.**  Workers run the full §3 invariant
  suite inside ``run_once`` exactly as the serial path does; a violation
  raises in the worker and the pool re-raises it in the parent.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

from repro.harness.experiment import (
    ExperimentResult,
    ExperimentSpec,
    aggregate_cell,
    run_once,
)
from repro.sim.rng import sha256

#: Task and result shapes crossing the process boundary.
_Task = tuple[int, int, ExperimentSpec, int]  # (cell index, trial, spec, seed)


def trial_seed(base_seed: int, trial: int) -> int:
    """Seed of one trial — the serial harness's derivation, shared so the
    parallel path can never drift from it."""
    return base_seed + trial


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` means one per CPU."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1 (or 0/None for auto), got {jobs}")
    return jobs


def default_jobs() -> int:
    """Worker processes when ``--jobs`` is not given: ``REPRO_JOBS`` or 1.

    Shared by every entry point (benchmark scripts, the pytest benches,
    the CLI) so the environment knob behaves identically everywhere.  The
    default stays serial — parallel runs are bit-identical, but opting in
    keeps single-core CI and profiling runs predictable.
    """
    return int(os.environ.get("REPRO_JOBS", "1"))


def _run_task(task: _Task) -> tuple[int, int, ExperimentResult]:
    cell, trial, spec, seed = task
    return cell, trial, run_once(spec, seed=seed)


def run_cells(
    specs: Sequence[ExperimentSpec] | Iterable[ExperimentSpec],
    trials: int = 3,
    base_seed: int = 0,
    jobs: int | None = 1,
    mp_context: str = "spawn",
) -> list[ExperimentResult]:
    """Run every cell for every trial seed, optionally across processes.

    Returns one aggregated :class:`ExperimentResult` per spec, in spec
    order.  ``jobs=1`` runs inline (no pool, no pickling); ``jobs=N`` fans
    the (cell × trial) grid out over ``N`` worker processes; ``jobs=0`` or
    ``None`` uses one worker per CPU.  Results are bit-identical across all
    of these.
    """
    specs = list(specs)
    if trials < 1:
        raise ValueError("need at least one trial")
    if not specs:
        return []
    jobs = resolve_jobs(jobs)
    tasks: list[_Task] = [
        (cell, trial, spec, trial_seed(base_seed, trial))
        for cell, spec in enumerate(specs)
        for trial in range(trials)
    ]
    runs: list[list[ExperimentResult | None]] = [
        [None] * trials for _ in specs
    ]
    if jobs == 1 or len(tasks) == 1:
        for cell, trial, spec, seed in tasks:
            runs[cell][trial] = run_once(spec, seed=seed)
    else:
        from multiprocessing import get_context

        ctx = get_context(mp_context)
        with ctx.Pool(processes=min(jobs, len(tasks))) as pool:
            # chunksize=1 keeps long and short cells from queueing behind
            # each other; results carry their grid position, so completion
            # order is irrelevant to the (deterministic) aggregation below.
            for cell, trial, result in pool.imap_unordered(
                _run_task, tasks, chunksize=1
            ):
                runs[cell][trial] = result
    return [
        aggregate_cell(spec, runs[cell])  # type: ignore[arg-type]
        for cell, spec in enumerate(specs)
    ]


def metrics_digest(results: Iterable[ExperimentResult]) -> str:
    """A stable fingerprint of aggregated metrics, for determinism checks.

    Built from the canonical ``repr`` of each cell's (name, metrics,
    per-instance metrics) — every field participates, dict fields are
    constructed in sorted order by the aggregator, and ``nan`` reprs are
    stable — so serial and parallel runs of the same grid hash identically,
    and any drift in any field changes the digest.

    The hash is :mod:`repro.sim.rng`'s built-in SHA-256, not
    :mod:`hashlib`'s: the same algorithm over the same bytes, so the digest
    is unchanged, without mapping OpenSSL into every process.
    """
    payload = "\n".join(
        f"{result.spec.name!r} {result.metrics!r} "
        f"{sorted(result.per_instance.items())!r}"
        for result in results
    )
    return sha256(payload.encode("utf-8")).hexdigest()
