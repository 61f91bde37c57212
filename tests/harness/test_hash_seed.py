"""Digests do not depend on the interpreter's string-hash seed.

Set and dict iteration order over strings changes with ``PYTHONHASHSEED``;
a run that let it leak into scheduling or aggregation would digest
differently per process.  Each child computes the ``metrics_digest`` of the
Figure 7 cell and the cross-group mix at seed 0 under one hash seed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

SCRIPT = """
from repro.harness.experiment import run_once
from repro.harness.parallel import metrics_digest
from tests.helpers import fig7_spec, xgroup_mix_spec

for spec in (fig7_spec(60, "paxos-cp"), xgroup_mix_spec(60)):
    print(metrics_digest([run_once(spec, seed=0)]))
"""


def digests_under(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    child = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True,
        timeout=120, cwd=ROOT, env=env,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


def test_digests_equal_under_every_hash_seed():
    outputs = {seed: digests_under(seed) for seed in ("0", "1", "random")}
    assert len(set(outputs.values())) == 1, outputs
    assert len(outputs["0"].split()) == 2
