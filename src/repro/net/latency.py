"""One-way message delay models.

The network asks its latency model once per route for the path between two
datacenters (:meth:`LatencyModel.path`), then draws each message's one-way
delay on it.  Models are deliberately simple — the paper's effects depend on the *relative*
magnitude of intra-region vs. cross-country delays, not on precise tail
shapes — but jitter is included because perfectly deterministic delays would
hide races the protocols must survive.
"""

from __future__ import annotations

import random
from math import cos, log, sin, sqrt, tau
from typing import Any, Callable

from repro.net.topology import INTRA_DC_RTT_MS, PAPER_RTT_MS, Topology


#: ``draw(base, rng)``: one message's delay on a path whose fixed part is
#: *base* (see :meth:`LatencyModel.path`).
PathDraw = Callable[[Any, random.Random], float]


class LatencyModel:
    """Interface: map (src datacenter, dst datacenter) to a one-way delay."""

    def one_way_delay(self, src_dc: str, dst_dc: str, rng: random.Random) -> float:
        """One-way delay in milliseconds for a message src → dst."""
        raise NotImplementedError

    def path(self, src_dc: str, dst_dc: str) -> tuple[PathDraw, Any]:
        """``(draw, base)`` for the path src → dst, resolved once.

        ``draw(base, rng)`` is :meth:`one_way_delay` for this pair, the same
        float from the same stream position.  The network resolves each
        route once and calls ``draw`` per message, so a model can hoist
        whatever depends only on the pair into *base*.
        """
        return (lambda _base, rng: self.one_way_delay(src_dc, dst_dc, rng)), None


class ConstantLatency(LatencyModel):
    """The same fixed delay for every message.  Useful in unit tests."""

    def __init__(self, delay_ms: float = 1.0) -> None:
        if delay_ms < 0:
            raise ValueError(f"negative delay: {delay_ms}")
        self.delay_ms = delay_ms

    def one_way_delay(self, src_dc: str, dst_dc: str, rng: random.Random) -> float:
        return self.delay_ms


class RttMatrixLatency(LatencyModel):
    """Delays derived from a region-pair RTT matrix with multiplicative jitter.

    One-way delay = RTT/2 × J where J is a truncated Gaussian factor
    (mean 1, std ``jitter``, floored at ``1 - 2·jitter`` and at 0.5).  Two
    endpoints in the *same datacenter* use ``intra_dc_rtt_ms`` instead of the
    same-region figure.

    The default matrix is :data:`repro.net.topology.PAPER_RTT_MS`.
    """

    def __init__(
        self,
        topology: Topology,
        rtt_ms: dict[frozenset[str], float] | None = None,
        intra_dc_rtt_ms: float = INTRA_DC_RTT_MS,
        jitter: float = 0.08,
    ) -> None:
        if not 0 <= jitter < 0.5:
            raise ValueError(f"jitter must be in [0, 0.5), got {jitter}")
        self.topology = topology
        self.rtt_ms = dict(PAPER_RTT_MS if rtt_ms is None else rtt_ms)
        self.intra_dc_rtt_ms = intra_dc_rtt_ms
        self.jitter = jitter
        self._jitter_floor = max(0.5, 1.0 - 2.0 * jitter)

    def base_rtt(self, src_dc: str, dst_dc: str) -> float:
        """The jitter-free RTT between two datacenters."""
        if src_dc == dst_dc:
            return self.intra_dc_rtt_ms
        pair = frozenset(
            {self.topology.region_of(src_dc), self.topology.region_of(dst_dc)}
        )
        try:
            return self.rtt_ms[pair]
        except KeyError:
            raise KeyError(
                f"no RTT configured for region pair {sorted(pair)}"
            ) from None

    def one_way_delay(self, src_dc: str, dst_dc: str, rng: random.Random) -> float:
        return self.jittered(self.base_rtt(src_dc, dst_dc) / 2.0, rng)

    def path(self, src_dc: str, dst_dc: str) -> tuple[PathDraw, float]:
        """The jitter draw over the pair's half-RTT, looked up once."""
        return self.jittered, self.base_rtt(src_dc, dst_dc) / 2.0

    def jittered(self, base: float, rng: random.Random) -> float:
        """*base* (a half-RTT) times one jitter factor drawn from *rng*."""
        jitter = self.jitter
        if jitter == 0:
            return base
        # ``rng.gauss(1.0, jitter)``, inlined: one draw per message makes
        # the stdlib frame a measurable share of a run.  The arithmetic is
        # the stdlib's step for step (Box-Muller, the second normal of a
        # pair parked in the stream's own ``gauss_next``), so the factor is
        # the same float and loss / duplication coins drawn between two
        # delays see the stream where they always did
        # (``tests/sim/test_exact_draws.py`` pins it).
        z = rng.gauss_next
        if z is None:
            x2pi = rng.random() * tau
            g2rad = sqrt(-2.0 * log(1.0 - rng.random()))
            z = cos(x2pi) * g2rad
            rng.gauss_next = sin(x2pi) * g2rad
        else:
            rng.gauss_next = None
        factor = 1.0 + z * jitter
        floor = self._jitter_floor
        if factor < floor:
            factor = floor
        return base * factor
