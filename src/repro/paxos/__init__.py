"""Paxos (the Synod algorithm), one instance per log position.

The paper uses a single Paxos instance to decide each write-ahead-log
position (§4.1, Algorithms 1 and 2).  This package implements the three
roles:

* :mod:`repro.paxos.acceptor` — the Transaction Service side (Algorithm 1).
  All acceptor state lives in the datacenter's key-value store and every
  transition goes through ``checkAndWrite``, exactly as the paper specifies.
* :mod:`repro.paxos.proposer` — the Transaction Client side:
  ``SynodProposer.round`` runs one instance (prepare / accept / apply with
  quorum gathering) for every caller, and the two vote rules
  ``highest_vote`` (what to re-propose) and ``decided_vote`` (what is
  provably decided) are shared by recovery, catch-up and the offline
  checks.  The *policy* deciding what value to propose
  (``findWinningVal`` vs. ``enhancedFindWinningVal``) lives with the
  commit protocols in :mod:`repro.core`.
* :mod:`repro.paxos.learner` — catch-up for services that missed decisions
  (§4.1 "Fault Tolerance and Recovery").

Ballot numbers are ``(round, proposer)`` pairs (:mod:`repro.paxos.ballot`);
the fast-path ballot granted by a per-position leader is round 0.
"""

from repro.paxos.ballot import FAST_PATH_ROUND, NULL_BALLOT, Ballot
from repro.paxos.messages import (
    AcceptPayload,
    AcceptReply,
    ApplyPayload,
    LearnPayload,
    LearnReply,
    PreparePayload,
    PrepareReply,
)
from repro.paxos.acceptor import Acceptor, AcceptorState
from repro.paxos.proposer import (
    PhaseOutcome,
    Round,
    SynodProposer,
    decided_vote,
    highest_vote,
)
from repro.paxos.learner import Learner

__all__ = [
    "Acceptor",
    "AcceptorState",
    "AcceptPayload",
    "AcceptReply",
    "ApplyPayload",
    "Ballot",
    "FAST_PATH_ROUND",
    "Learner",
    "LearnPayload",
    "LearnReply",
    "NULL_BALLOT",
    "PhaseOutcome",
    "PreparePayload",
    "PrepareReply",
    "Round",
    "SynodProposer",
    "decided_vote",
    "highest_vote",
]
