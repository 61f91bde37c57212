"""Event budget: the kernel queue holds simulated delays, not relays.

A message between datacenters and an operation on a datacenter's store are
the two things that take time in the paper's cost model; a think time, a
retry backoff, a pump's poll, a quorum's grace window and a request whose
loss-detection deadline is still *live* when due are the simulation's own
delays.  Those — plus a lock grant, a spawned process's first step and
completion, a wake-up that ties with another entry, and one pop of each
node's deadline FIFO per timeout's worth of simulated time — are what a run
may spend kernel events on.  Not among them: the same-instant relays that
used to move a result one hop (a store operation's ``done`` event, a
handler process's bootstrap and completion, a gather's completion; 48 % of
all events, handed off in place now), and a deadline that is dead when it
comes due (a further 6–9 % of the relaying kernel's count; it waits in
its node's FIFO and is dropped unpopped).  So a run must fit in 48 % of the
events the relaying kernel (commit 392c1b5) spent on it — today's counts
are 17 719 / 12 400 / 29 012, i.e. 44.4 / 43.3 / 47.7 % — while sending
exactly the messages and committing exactly the transactions it did.
Integer counters, exact for a seed on any machine: a tier-1 guard, not a
timing benchmark.
"""

from __future__ import annotations

import pytest

from repro.harness.experiment import finish_run, prepare_run
from tests.helpers import fig7_spec, xgroup_mix_spec

#: shape -> (spec, kernel events at 392c1b5, messages sent, commits,
#: messages by type), all at seed 0 and measured on a copy of that commit.
PINNED = {
    "fig7-paxos-cp": (fig7_spec(300), 39924, 9658, 188, {
        "leader.claim": 655, "leader.claim.response": 655,
        "paxos.accept": 621, "paxos.accept.response": 621,
        "paxos.apply": 570,
        "paxos.prepare": 1479, "paxos.prepare.response": 1479,
        "txn.begin": 300, "txn.begin.response": 300,
        "txn.read": 1489, "txn.read.response": 1489,
    }),
    "fig7-paxos": (fig7_spec(300, "paxos"), 28644, 6794, 83, {
        "leader.claim": 300, "leader.claim.response": 300,
        "paxos.accept": 372, "paxos.accept.response": 372,
        "paxos.apply": 276,
        "paxos.prepare": 798, "paxos.prepare.response": 798,
        "txn.begin": 300, "txn.begin.response": 300,
        "txn.read": 1489, "txn.read.response": 1489,
    }),
    "xgroup-mix": (xgroup_mix_spec(300), 60825, 13133, 216, {
        "leader.claim": 569, "leader.claim.response": 569,
        "paxos.accept": 1635, "paxos.accept.response": 1635,
        "paxos.apply": 1311,
        "paxos.learn": 66, "paxos.learn.response": 66,
        "paxos.prepare": 1965, "paxos.prepare.response": 1965,
        "txn.begin": 366, "txn.begin.response": 366,
        "txn.read": 1310, "txn.read.response": 1310,
    }),
}


@pytest.mark.parametrize("shape", sorted(PINNED))
def test_run_fits_the_event_budget_and_sends_the_same_messages(shape):
    spec, relaying_events, sent, commits, by_type = PINNED[shape]
    cluster, drivers = prepare_run(spec, seed=0)
    cluster.run()
    events = cluster.env.sim.processed_events
    result = finish_run(spec, cluster, drivers)
    stats = cluster.network.stats

    assert (stats.sent, result.metrics.commits) == (sent, commits)
    assert stats.by_type == by_type
    assert 100 * events <= 48 * relaying_events
