"""Outside-only tracing: spans around the calls into the program, and a
``cProfile`` table bucketed by ``repro`` package.

Nothing here touches ``src/``: spans are recorded by the ledger around the
public phase functions it calls, and the per-layer split is read off the
profiler's table afterwards.  ``cProfile`` taxes every Python call but not
the work inside C functions, so shares lean towards call-heavy layers — a
traced run *attributes*, the untraced runs *measure*.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Mapping

#: The layers of the ledger: the packages of ``src/repro`` (``check`` is
#: ``serializability`` plus ``wal/invariants.py``; ``cluster`` is the
#: top-level modules), and ``other`` for every frame outside ``repro`` —
#: stdlib, builtins, networkx, the ledger itself.
LAYERS = (
    "sim", "net", "paxos", "core", "wal", "kvstore", "check", "workload",
    "failures", "harness", "cluster", "other",
)

#: One row of ``pstats.Stats(...).stats``:
#: ``(file, line, function) -> (primitive calls, calls, tottime, cumtime, callers)``.
ProfileTable = Mapping[tuple[str, int, str], tuple[int, int, float, float, object]]


class Spans:
    """In-memory span log: one row per outside call into a layer boundary.

    Rows carry name, parent, start, and CPU / wall durations; they are kept
    in memory and written out with the run's record, never during it.
    """

    def __init__(self) -> None:
        self.rows: list[dict] = []
        self._open: list[str] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        row = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start_s": time.perf_counter(),
        }
        self._open.append(name)
        cpu = time.process_time()
        try:
            yield row
        finally:
            row["cpu_s"] = time.process_time() - cpu
            row["wall_s"] = time.perf_counter() - row["start_s"]
            self._open.pop()
            self.rows.append(row)


def layer_of(filename: str) -> str:
    """The ledger layer a profiled frame's source file belongs to."""
    _, found, tail = filename.replace("\\", "/").rpartition("/repro/")
    if not found:
        return "other"
    package, slash, _ = tail.partition("/")
    if not slash:
        return "cluster"
    if package == "serializability" or tail == "wal/invariants.py":
        return "check"
    return package if package in LAYERS else "other"


def self_time_by_layer(table: ProfileTable) -> dict[str, float]:
    """Sum of ``tottime`` per layer; every frame lands in exactly one."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for (filename, _line, _name), row in table.items():
        totals[layer_of(filename)] += row[2]
    return totals


def function_row(table: ProfileTable, module: str, name: str) -> tuple[int, float]:
    """``(ncalls, cumtime)`` of function *name* defined in ``repro/<module>``.

    The call count is exact and deterministic, so it doubles as a counter
    the program never had to export.  Zero when the function never ran.
    """
    calls, cumulative = 0, 0.0
    suffix = "/repro/" + module
    for (filename, _line, function), row in table.items():
        if function == name and filename.replace("\\", "/").endswith(suffix):
            calls += row[1]
            cumulative += row[3]
    return calls, cumulative
