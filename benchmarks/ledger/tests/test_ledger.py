"""Tests of the perf ledger itself (not tier-1; run them explicitly):

    PYTHONPATH=src python -m pytest benchmarks/ledger/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.ledger.runner import ROOT, cell_job, is_host_clock, load_contract, spawn
from benchmarks.ledger.tracer import LAYERS, function_row, layer_of, self_time_by_layer

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_smoke_emits_every_name_in_the_contract(tmp_path):
    """``--smoke`` (a tenth of every workload, one cell) is the plumbing
    check: six workloads, every metric of BENCHMARK.json, by name."""
    out = tmp_path / "ledger.json"
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", "--smoke", "--verify",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    contract = load_contract()
    (results,) = json.loads(out.read_text())["passes"]
    assert list(results) == [w["name"] for w in contract["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        wanted = [entry["name"] for entry in contract[kind]]
        assert len(set(wanted)) == len(wanted)
        assert all(NAME.fullmatch(name) for name in wanted)
        for result in results.values():
            assert list(result[kind]) == wanted
    for result in results.values():
        assert all(m["value"] > 0 for m in result["end_to_end"].values())
        shares = [m["value"] for k, m in result["per_layer"].items()
                  if k.endswith(".self_share")]
        assert sum(shares) == pytest.approx(1.0)
    assert results["openloop_knee"]["per_layer"]["check.host_s"]["value"] == 0
    assert results["fig7_paxos_cp"]["per_layer"]["check.host_s"]["value"] > 0
    assert "digest" in done.stdout and "equal" in done.stdout


def test_profile_table_is_bucketed_by_package():
    src = "/any/where/src/repro"
    table = {
        (f"{src}/sim/core.py", 10, "run"): (5, 5, 1.0, 9.0, {}),
        (f"{src}/net/network.py", 20, "send"): (7, 7, 0.5, 0.6, {}),
        (f"{src}/wal/log.py", 152, "record_chosen"): (3, 4, 0.25, 0.3, {}),
        (f"{src}/wal/invariants.py", 1, "check"): (1, 1, 2.0, 2.0, {}),
        (f"{src}/serializability/graph.py", 1, "build_mvsg"): (1, 1, 1.0, 1.0, {}),
        (f"{src}/cluster.py", 715, "finalize_all"): (1, 1, 0.125, 0.75, {}),
        (f"{src}/model.py", 1, "latency_ms"): (9, 9, 0.125, 0.125, {}),
        ("/usr/lib/python3.11/heapq.py", 1, "heappush"): (9, 9, 0.5, 0.5, {}),
        ("~", 0, "<built-in method builtins.len>"): (9, 9, 0.25, 0.25, {}),
        ("/any/where/networkx/algorithms/cycles.py", 1, "f"): (1, 1, 0.25, 0.25, {}),
        # A checkout that is itself called "repro" must not confuse it.
        ("/tmp/repro/benchmarks/ledger/cell.py", 1, "run_cell"): (1, 1, 0.5, 9.5, {}),
    }
    assert self_time_by_layer(table) == {
        **dict.fromkeys(LAYERS, 0.0),
        "sim": 1.0, "net": 0.5, "wal": 0.25, "check": 3.0, "cluster": 0.25,
        "other": 1.5,
    }
    assert layer_of("/tmp/repro/src/repro/kvstore/store.py") == "kvstore"
    assert function_row(table, "wal/log.py", "record_chosen") == (4, 0.3)
    assert function_row(table, "cluster.py", "finalize_all") == (1, 0.75)
    assert function_row(table, "core/combine.py", "combine") == (0, 0.0)


def test_simulated_metrics_repeat_exactly_and_follow_the_seed():
    job = cell_job("xgroup_mix", seed=7, scale=0.05)
    first, again = spawn(job), spawn(job)
    other = spawn(cell_job("xgroup_mix", seed=8, scale=0.05))
    assert first["digest"] == again["digest"] != other["digest"]
    assert first["counters"] == again["counters"]
    for name, value in first["end_to_end"].items():
        if not is_host_clock(name):
            assert again["end_to_end"][name] == value


def test_command_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit and no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        Path(__file__).resolve().parents[1], tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    contract = load_contract()
    done = subprocess.run(
        [*contract["command"], "--workload", "fig7_paxos", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
