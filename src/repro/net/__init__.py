"""Multi-datacenter network substrate.

The paper's prototype sent UDP messages between EC2 datacenters with a two
second loss-detection timeout; messages either arrive within a known bound or
are lost (§2.2).  This package models exactly that contract on top of the
simulation kernel:

* :mod:`repro.net.topology` — named datacenters grouped into regions, with
  the paper's cluster presets (``VV``, ``OV``, ``VVV``, ``COV``, ...).
* :mod:`repro.net.latency` — one-way delay models; the default is the RTT
  matrix the paper reports (Virginia–Virginia ≈ 1.5 ms, Virginia–Oregon and
  Virginia–California ≈ 90 ms, Oregon–California ≈ 20 ms) plus jitter.
* :mod:`repro.net.network` — unicast delivery with Bernoulli loss, link and
  datacenter outages; no ordering guarantees (UDP semantics).
* :mod:`repro.net.node` — endpoints with typed message handlers and the
  request/reply slot and quorum-gather machinery the commit protocols use.
"""

from repro.net.latency import ConstantLatency, LatencyModel, RttMatrixLatency
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import Gather, Node, Reply
from repro.net.topology import Datacenter, Topology, cluster_preset

__all__ = [
    "ConstantLatency",
    "Datacenter",
    "Gather",
    "LatencyModel",
    "Message",
    "Network",
    "Node",
    "Reply",
    "RttMatrixLatency",
    "Topology",
    "cluster_preset",
]
