"""The resident floor: ``import repro`` keeps OpenSSL out of the process.

``hashlib`` maps OpenSSL's libcrypto in (≈ 4 MB resident) for SHA-256 that
CPython also ships as a built-in module.  :mod:`repro.sim.rng` takes the
built-in one and :mod:`repro.harness.parallel` reuses it; these tests keep
``hashlib`` off the import path and pin both users to ``hashlib``'s bytes,
so every derived seed and every metrics digest is what it always was.
``statistics`` stays off it too: :mod:`repro.harness.metrics` has its own
``fmean`` and ``median`` (pinned to the stdlib's in
``tests/harness/test_metrics.py``).
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.harness.experiment import run_once
from repro.harness.parallel import metrics_digest
from repro.sim.rng import derive_seed
from tests.helpers import fig7_spec

ROOT = Path(__file__).resolve().parents[1]

#: Modules ``import repro`` must not load: ``hashlib`` maps OpenSSL in;
#: ``statistics`` brings ``fractions`` and ``decimal`` (≈ 0.5 MB resident).
ABSENT = ("hashlib", "_hashlib", "statistics", "fractions", "decimal")

SCRIPT = f"""
import sys
import repro, repro.harness.parallel, repro.cli
print(sorted(name for name in {ABSENT!r} if name in sys.modules))
"""


def test_import_repro_loads_no_hashlib():
    """Nor ``statistics`` and what it imports: every name in ``ABSENT``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    child = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True,
        timeout=60, cwd=ROOT, env=env,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


@pytest.mark.parametrize("root_seed, name", [
    (0, "net"),
    (7, "workload.thread.3"),
    (-1, "client.retry.cli:V1:1"),
    (-(2**63), "faults"),
    (2**64 - 1, "net.jitter"),
    (2**63 + 12345, "é/数据中心/🙂"),
    (42, ""),
])
def test_derive_seed_matches_hashlib(root_seed, name):
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    assert derive_seed(root_seed, name) == int.from_bytes(digest[:8], "big")


def _payload(results) -> bytes:
    return "\n".join(
        f"{result.spec.name!r} {result.metrics!r} "
        f"{sorted(result.per_instance.items())!r}"
        for result in results
    ).encode("utf-8")


def test_metrics_digest_matches_hashlib():
    results = [
        run_once(fig7_spec(30, "paxos"), seed=0),
        SimpleNamespace(
            spec=SimpleNamespace(name="zelle-ä-数据"),
            metrics={"commit_ratio": float("nan"), "n": 3},
            per_instance={"V2": 1.5, "V1": -0.0},
        ),
    ]
    assert metrics_digest(results) == hashlib.sha256(_payload(results)).hexdigest()
    assert metrics_digest([]) == hashlib.sha256(b"").hexdigest()
