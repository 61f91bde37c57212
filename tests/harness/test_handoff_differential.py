"""Differential: the kernel's two shortcuts against what they replaced.

``Event.hand_off`` runs a settled request's, store operation's or message
handler's waiters in the caller's frame when no other entry is due at that
instant (and ``Node.deliver`` takes a handler's first step the same way),
and claims this *is* the queue order.  The check: the same cell
with both replaced by "always queue" — which is what every one of those
sites did before — must decide, send and store exactly the same things.

A request's loss-detection deadline waits in its node's FIFO and only the
oldest live one is a heap entry (``_DeadlineFifo``), and claims a live
deadline still fires at its old queue position.  The check: the same cell
with every deadline forced back onto the heap as a plain ``_Deadline`` of
its own must again observe exactly the same things, in strictly more
kernel events.

Swept over the three protocols × seeds × {no faults; an outage over two
overlapping crash windows} × {one lane; four lanes on the single heap; four
lanes drained one by one}, plus the ``xgroup_mix`` shape (2PC, queues,
pumps), which is long enough to hit same-instant ties: there the hand-off
guard's fallback must have been taken, so the test fails without it.
"""

from __future__ import annotations

import pytest

from repro.config import (
    ClusterConfig,
    CrashWindow,
    FaultScheduleConfig,
    OutageWindow,
    PlacementConfig,
    ProtocolConfig,
    WorkloadConfig,
)
from repro.harness.experiment import ExperimentSpec, finish_run, prepare_run
from repro.harness.parallel import metrics_digest
from repro.net.node import _FIRST_STEP, _Deadline, _DeadlineFifo, _HandlerProcess
from repro.sim.events import Event
from repro.sim.process import Process
from tests.helpers import xgroup_mix_spec

N_GROUPS = 6

#: V3 crashes twice over (the second window opens inside the first) and V2
#: is cut off before V3 is back: handlers die mid-operation, in-flight store
#: operations are fenced, and quorum is lost for a stretch.
FAULTS = FaultScheduleConfig(
    crashes=(
        CrashWindow("V3", 300.0, 400.0),
        CrashWindow("V3", 500.0, 500.0),
    ),
    outages=(OutageWindow("V2", 800.0, 700.0),),
)

#: (shards, engine): one lane, four lanes on one heap, four lanes one by one.
LAYOUTS = {"1-lane": (1, "global"), "4-lanes": (4, "global"),
           "4-lanes-one-by-one": (4, "sharded")}


def always_queued(event: Event, value=None, ok: bool = True) -> None:
    """What every hand-off site did before: a same-instant queue entry."""
    if ok:
        event.succeed(value)
    else:
        event.fail(value)


def queued_first_step(process: _HandlerProcess, event: Event) -> None:
    """A handler's first step as the bootstrap entry every process gets."""
    if event is _FIRST_STEP:  # ``Node.deliver`` taking it in its own frame
        Process._bootstrap(process, None)
    else:
        Process._resume(process, event)


def relaying(patch: pytest.MonkeyPatch) -> None:
    """Every same-instant wake-up rides the queue again."""
    patch.setattr(Event, "hand_off", always_queued)
    patch.setattr(_HandlerProcess, "_resume", queued_first_step)


def deadline_on_the_heap(fifo: _DeadlineFifo, gather, timeout_ms: float) -> None:
    """What every request did before: a heap entry of its own."""
    fifo._sim.schedule(_Deadline(gather), timeout_ms)


def observe(spec: ExperimentSpec, seed: int) -> tuple[dict, int]:
    """Everything a run decided, sent and stored; and its kernel events."""
    cluster, drivers = prepare_run(spec, seed)
    cluster.run()
    result = finish_run(spec, cluster, drivers)  # raises on any violation
    stats = cluster.network.stats
    observed = {
        "digest": metrics_digest([result]),
        "sent": stats.sent,
        "by_type": dict(stats.by_type),
        "delivered": stats.delivered,
        "dropped": stats.dropped,
        "store_ops": {dc: dict(store.op_counts)
                      for dc, store in cluster.stores.items()},
        "crashes": len(cluster.crash_records),
    }
    return observed, cluster.env.sim.processed_events


def cell(protocol: str, faults: FaultScheduleConfig, layout: str) -> ExperimentSpec:
    shards, engine = LAYOUTS[layout]
    return ExperimentSpec(
        "handoff-cell",
        ClusterConfig(
            placement=PlacementConfig.ranged(N_GROUPS), shards=shards,
            engine=engine,  # type: ignore[arg-type]
            protocol=ProtocolConfig(retry_attempts=6, retry_backoff_cap_ms=320.0),
            faults=faults,
        ),
        WorkloadConfig(
            n_transactions=30, n_rows=N_GROUPS, n_threads=3,
            target_rate_per_thread=4.0, group_distribution="pinned",
        ),
        protocol,  # type: ignore[arg-type]
    )


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("faulty", (False, True), ids=("clean", "faults"))
@pytest.mark.parametrize("protocol", ("paxos", "paxos-cp", "leased-leader"))
def test_handed_off_equals_queued(protocol, faulty, layout, monkeypatch):
    spec = cell(protocol, FAULTS if faulty else FaultScheduleConfig(), layout)
    for seed in (0, 11):
        handed, handed_events = observe(spec, seed)
        with monkeypatch.context() as patch:
            relaying(patch)
            queued, queued_events = observe(spec, seed)
        with monkeypatch.context() as patch:
            patch.setattr(_DeadlineFifo, "add", deadline_on_the_heap)
            heaped, heaped_events = observe(spec, seed)
        assert handed == queued
        assert handed == heaped
        assert (handed["crashes"] > 0) == faulty  # the schedule happened
        # The runs really took different paths: the relays are events, and
        # so is every request's deadline.
        assert handed_events < 0.7 * queued_events
        assert handed_events < heaped_events


def test_ties_fall_back_to_the_queue_on_the_xgroup_mix_shape(monkeypatch):
    spec = xgroup_mix_spec(300)
    fell_back = []
    hand_off = Event.hand_off

    def counting(event, value=None, ok=True):
        hand_off(event, value, ok)
        if not event.processed:
            fell_back.append(type(event).__name__)

    monkeypatch.setattr(Event, "hand_off", counting)
    handed, handed_events = observe(spec, 0)
    with monkeypatch.context() as patch:
        relaying(patch)
        queued, queued_events = observe(spec, 0)
    with monkeypatch.context() as patch:
        patch.setattr(_DeadlineFifo, "add", deadline_on_the_heap)
        heaped, heaped_events = observe(spec, 0)

    assert handed == queued
    assert handed == heaped
    assert handed_events < 0.7 * queued_events
    assert handed_events < heaped_events
    # Some entry was due at the instant of a hand-off (two deliveries
    # landing together; a handler's last step releasing the apply lock to a
    # queued waiter), and the guard sent the wake-up through the queue.
    assert fell_back
