"""The one retry/backoff policy every layer shares.

"Sleep for random time period" (Algorithm 2) generalized to a capped
exponential: attempt ``k`` sleeps ``uniform(0, min(retry_backoff_cap_ms,
retry_backoff_ms * 2.0**k))``.  The default cap equals the
base, so attempt 0 — and, at default settings, every attempt — draws the
historic flat ``uniform(0, retry_backoff_ms)``; existing schedules are
bit-identical until a config raises the cap.

Used by the client failover retries (:mod:`repro.core.client`), the 2PC
coordinator's ballot rounds (:mod:`repro.core.commit_2pc`), and the queue
pumps' Synod append walks (:mod:`repro.core.queues`).  Each caller passes
its own named RNG stream, so drawing extra jitter in one component never
perturbs another.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    import random

    from repro.config import ProtocolConfig


def backoff_bound_ms(config: "ProtocolConfig", attempt: int) -> float:
    """Upper bound of the attempt-*k* backoff draw (deterministic part)."""
    bound = config.retry_backoff_ms * (2.0 ** attempt)
    return min(config.retry_backoff_cap_ms, bound)


def backoff_delay_ms(
    rng: "random.Random", config: "ProtocolConfig", attempt: int = 0,
) -> float:
    """One jittered backoff delay for retry attempt *attempt* (0-based)."""
    return rng.uniform(0.0, backoff_bound_ms(config, attempt))
