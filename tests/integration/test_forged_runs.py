"""Every raise of ``Cluster.check_invariants_all``, seen through ``finish_run``.

Each case settles a small real cell, corrupts a copy of its ``SettledRun``
in one named way, has ``Cluster.settle`` return the copy, and asserts that
``finish_run`` — the path ``repro run`` and ``repro check`` take — fails
with that raise's message.  Forged entries go after the real log's last
position and read only items nothing else wrote, so every check that runs
before the targeted one still passes: each raise is reached past the
per-group (L3) replay.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cluster import Cluster, CrashRecord, SettledRun
from repro.harness.experiment import finish_run, prepare_run
from repro.paxos.ballot import Ballot
from repro.wal.entry import LogEntry
from repro.wal.invariants import InvariantViolation
from tests.helpers import entry, fig7_spec, txn, xgroup_mix_spec


def append(log: dict[int, LogEntry], *entries: LogEntry) -> None:
    """Add *entries* at the log's next free positions."""
    for appended in entries:
        log[max(log, default=0) + 1] = appended


def logged_twice(cluster: Cluster, run: SettledRun) -> None:
    """A data entry of group-0 also chosen in group-1."""
    first = next(e for e in run.logs["group-0"].values() if e.kind == "data")
    append(run.logs["group-1"], first)


def promise_forgotten(cluster: Cluster, run: SettledRun) -> None:
    """A crash snapshot of V2 that promised one round more than V2's store
    holds at the end of the run."""
    image = cluster._durable_acceptor_image(cluster.lane_stores[("V2", 0)])
    key = min(image)
    next_bal, *rest = image[key]
    image[key] = (Ballot(next_bal.round + 1, next_bal.proposer), *rest)
    cluster.crash_records.append(CrashRecord(
        "V2", 0, crash_ms=1.0, durable_image=image, restart_ms=2.0,
    ))


def marker_flipped(cluster: Cluster, run: SettledRun) -> None:
    """A decision marker replaced by the opposite decision's marker."""
    group, position, marker = next(
        (group, position, e)
        for group, log in sorted(run.logs.items())
        for position, e in sorted(log.items()) if e.is_marker
    )
    run.logs[group][position] = LogEntry.marker(
        marker.kind != "commit", marker.gtid, marker.participants,
    )


def redelivery_altered(cluster: Cluster, run: SettledRun) -> None:
    """A redelivered queue apply whose writes differ from the first one's."""
    log = next(
        log for _group, log in sorted(run.logs.items())
        if any(e.kind == "queue_apply" for e in log.values())
    )
    first = next(e for e in log.values() if e.kind == "queue_apply")
    message = first.transactions[0]
    altered = replace(message, writes=((message.writes[0][0], "altered"),))
    append(log, replace(first, transactions=(altered,)))


def opposite_2pc_orders(cluster: Cluster, run: SettledRun) -> None:
    """Two committed 2PC transactions ordered one way in group-0 and the
    other way in group-1: each group's log replays, the merge has a cycle."""
    groups = ("group-0", "group-1")

    def branch(gtid, group, log, **kwargs):
        return LogEntry.prepare(
            txn(f"{gtid}@{group}", group=group, read_position=max(log), **kwargs),
            gtid, groups,
        )

    first, second = run.logs["group-0"], run.logs["group-1"]
    append(first, branch("forged-1", "group-0", first, writes={"x": "1"}))
    append(first, branch("forged-2", "group-0", first, reads={"x": "1"}))
    append(second, branch("forged-2", "group-1", second, writes={"y": "2"}))
    append(second, branch("forged-1", "group-1", second, reads={"y": "2"}))
    run.decisions.update({"forged-1": True, "forged-2": True})


def stale_read_masked(cluster: Cluster, run: SettledRun) -> None:
    """A writer whose read was pinned before an overwrite of its item yet
    committed after it: the overwrite wrote the same value, so the replay
    sees no stale read, but the writer must both precede the overwrite (it
    read the older version) and follow it (a later reader sees the
    writer's version as the newest)."""
    log = run.logs["group-0"]
    pin = max(log) + 1

    def forged(tid, read_position, **kwargs):
        return entry(txn(tid, read_position=read_position, group="group-0", **kwargs))

    append(
        log,
        forged("forged-1", pin - 1, writes={"x": "v"}),
        forged("forged-2", pin, writes={"x": "v"}),
        forged("forged-3", pin, reads={"x": "v"}, writes={"x": "r"}),
        forged("forged-4", pin + 2, reads={"x": "r"}, writes={"y": "4"}),
    )


FORGERIES = [
    pytest.param(xgroup_mix_spec(40), logged_twice,
                 r"\(groups\) \S+ is logged in both group-0 and group-1", id="groups"),
    pytest.param(xgroup_mix_spec(40), promise_forgotten,
                 r"\(amnesia\) \S+: promise regressed", id="amnesia"),
    pytest.param(xgroup_mix_spec(40), marker_flipped,
                 r"\(2PC\) marker .* disagrees with the durable decision", id="2pc"),
    pytest.param(xgroup_mix_spec(40), redelivery_altered,
                 r"\(queue\) redelivery of .* differs from its first occurrence",
                 id="queue"),
    pytest.param(xgroup_mix_spec(40), opposite_2pc_orders,
                 r"\(2PC\) global MVSG test failed", id="global-mvsg"),
    pytest.param(fig7_spec(30, "paxos"), stale_read_masked,
                 r"^MVSG test failed", id="mvsg"),
]


@pytest.mark.parametrize(("spec", "forge", "message"), FORGERIES)
def test_finish_run_raises_on_a_forged_settled_run(spec, forge, message, monkeypatch):
    cluster, drivers = prepare_run(spec, seed=0)
    cluster.run()
    settled = cluster.settle()
    forged = SettledRun(
        {group: dict(log) for group, log in settled.logs.items()},
        dict(settled.decisions),
    )
    forge(cluster, forged)
    monkeypatch.setattr(Cluster, "settle", lambda self: forged)
    with pytest.raises(InvariantViolation, match=message) as raised:
        finish_run(spec, cluster, drivers)
    assert len(raised.value.violations) == 1, raised.value.violations
