"""The transaction tier (§2.2, §4, §5) — the paper's primary contribution.

Two halves, exactly as in the paper:

* :class:`~repro.core.service.TransactionService` — one per datacenter per
  deployment.  Hosts the Paxos acceptor (Algorithm 1) over the local
  key-value store, serves ``begin`` (read-position) and ``read`` requests,
  applies committed log entries to data rows lazily, arbitrates the
  per-log-position leader fast path, and catches up on missed decisions.
* :class:`~repro.core.client.TransactionClient` — the library an
  application instance links against.  Provides ``begin`` / ``read`` /
  ``write`` / ``commit``, buffers the read and write sets, and on commit
  drives one of the commit protocols:

  - :class:`~repro.core.commit_basic.BasicPaxosCommit` — Megastore's
    protocol (Algorithm 2 with ``findWinningVal``): one transaction per log
    position; concurrent non-conflicting transactions still abort.
  - :class:`~repro.core.commit_cp.PaxosCPCommit` — the paper's Paxos-CP
    (``enhancedFindWinningVal``): combination of non-conflicting
    transactions into one position, and promotion of losers to the next
    position.
  - :class:`~repro.core.leased_leader.LeasedLeaderCommit` — the §7/§8
    "long-term leader" design sketched as future work, implemented here as
    an extension for the ablation benchmarks.
"""

from repro.core.client import TransactionClient, TransactionHandle
from repro.core.combine import best_combination, greedy_combination
from repro.core.commit_basic import BasicPaxosCommit, find_winning_val
from repro.core.commit_cp import PaxosCPCommit, enhanced_find_winning_val
from repro.core.leased_leader import LeasedLeaderCommit
from repro.core.service import TransactionService

__all__ = [
    "BasicPaxosCommit",
    "LeasedLeaderCommit",
    "PaxosCPCommit",
    "TransactionClient",
    "TransactionHandle",
    "TransactionService",
    "best_combination",
    "enhanced_find_winning_val",
    "find_winning_val",
    "greedy_combination",
]
