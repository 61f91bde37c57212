"""Named, seeded random-number streams.

Determinism requires that unrelated components never share a random stream:
if the network's jitter draws interleaved with the workload's key choices,
adding one message would perturb the whole workload.  The registry hands each
named component its own :class:`random.Random` seeded from ``(root_seed,
name)`` via SHA-256, so streams are independent and stable across runs and
Python versions (``hash()`` is salted per-process and must not be used).

SHA-256 comes from CPython's built-in module (``_sha2`` on 3.12+,
``_sha256`` on 3.11), the way ``random`` itself takes SHA-512, rather than
from :mod:`hashlib`: importing ``hashlib`` maps OpenSSL's libcrypto into
every process (≈ 4 MB resident) to hash a few hundred short strings per
cell.  Both implement the same algorithm over the same bytes, so every
derived seed is unchanged; ``hashlib`` remains the fallback for an
interpreter built without the built-in module.
"""

from __future__ import annotations

import random

try:  # CPython 3.12+
    from _sha2 import sha256
except ImportError:
    try:  # CPython 3.11
        from _sha256 import sha256
    except ImportError:  # pragma: no cover - no built-in SHA-256 module
        from hashlib import sha256


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from a root seed and a stream name."""
    digest = sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """A factory of independent, reproducible random streams."""

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = root_seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for *name*, creating it on first use.

        Repeated calls with the same name return the same object, so a
        component can re-fetch its stream cheaply.
        """
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.root_seed, name))
            self._streams[name] = stream
        return stream

    def fork(self, name: str) -> "RngRegistry":
        """A child registry whose root seed is derived from *name*.

        Used when an experiment runs several independent trials: each trial
        forks the registry so trials do not perturb one another.
        """
        return RngRegistry(derive_seed(self.root_seed, name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(root_seed={self.root_seed}, streams={sorted(self._streams)})"
