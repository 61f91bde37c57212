"""Builders shared across test modules."""

from __future__ import annotations

import functools
from typing import Any

from repro.model import Transaction, TransactionOutcome, TransactionStatus
from repro.wal.entry import LogEntry


def txn(
    tid: str,
    reads: dict[str, Any] | None = None,
    writes: dict[str, Any] | None = None,
    read_position: int = 0,
    group: str = "g",
    origin_dc: str = "V1",
) -> Transaction:
    """A transaction over single-row items: attribute name → value.

    ``reads`` maps attribute → the value observed (recorded in the
    snapshot); ``writes`` maps attribute → the value written.  Items are
    ``("row0", attribute)``.
    """
    reads = reads or {}
    writes = writes or {}
    read_items = tuple(sorted(("row0", a) for a in reads))
    return Transaction(
        tid=tid,
        group=group,
        read_set=frozenset(read_items),
        writes=tuple((("row0", a), v) for a, v in sorted(writes.items())),
        read_position=read_position,
        origin=f"cli:{tid}",
        origin_dc=origin_dc,
        read_snapshot=tuple((("row0", a), v) for a, v in sorted(reads.items())),
    )


def entry(*txns: Transaction) -> LogEntry:
    return LogEntry(transactions=tuple(txns))


def committed(transaction: Transaction, position: int | None = None,
              promotions: int = 0) -> TransactionOutcome:
    return TransactionOutcome(
        transaction=transaction,
        status=TransactionStatus.COMMITTED,
        commit_position=position,
        promotions=promotions,
    )


def aborted(transaction: Transaction, reason) -> TransactionOutcome:
    return TransactionOutcome(
        transaction=transaction,
        status=TransactionStatus.ABORTED,
        abort_reason=reason,
    )


def xgroup_mix_spec(n_transactions: int, faults=None):
    """The ledger's ``xgroup_mix`` shape at *n_transactions*: 8 groups, 20 %
    2PC, 30 % queue sends, pumps polling every 50 ms, Paxos-CP."""
    from repro.config import (
        ClusterConfig,
        FaultScheduleConfig,
        PlacementConfig,
        ProtocolConfig,
        WorkloadConfig,
    )
    from repro.harness.experiment import ExperimentSpec

    return ExperimentSpec(
        "xgroup_mix_shape",
        ClusterConfig(
            "VVV", placement=PlacementConfig.ranged(8, 8),
            protocol=ProtocolConfig(queue_poll_ms=50.0),
            faults=faults or FaultScheduleConfig(),
        ),
        WorkloadConfig(
            n_transactions=n_transactions, n_rows=8, n_threads=8,
            target_rate_per_thread=8.0,
            cross_group_fraction=0.2, cross_group_span=2, queue_fraction=0.3,
        ),
        "paxos-cp",
    )


def fig7_spec(n_transactions: int, protocol: str = "paxos-cp"):
    """The paper's contended Figure 7 cell (the ledger's ``fig7_*`` shape) at
    *n_transactions*: one row of 100 attributes, 4 threads x 4 txn/s."""
    from repro.config import ClusterConfig, WorkloadConfig
    from repro.harness.experiment import ExperimentSpec

    return ExperimentSpec(
        "fig7_shape",
        ClusterConfig("VVV"),
        WorkloadConfig(
            n_transactions=n_transactions, n_rows=1, n_attributes=100,
            n_threads=4, target_rate_per_thread=4.0,
        ),
        protocol,
    )


@functools.cache
def fig7_history_inputs(n_transactions: int, protocol: str = "paxos-cp", seed: int = 0):
    """``(effective log, initial image)`` of one finished :func:`fig7_spec`
    cell: what :meth:`MVHistory.from_log` reads to check it.  Simulated
    once per process; callers only read it."""
    from repro.harness.experiment import prepare_run
    from repro.wal.invariants import effective_log

    cluster, _drivers = prepare_run(fig7_spec(n_transactions, protocol), seed=seed)
    cluster.run()
    (group,) = cluster.groups
    log = effective_log(cluster.finalize(group), cluster.cross_group_decisions())
    return log, cluster.initial_image_for(group)


def merged_history(cluster, run):
    """Every group's history of a settled *run* merged into one, committed
    2PC branches renamed to their gtid: the history the MVSG pass of
    ``check_invariants_all`` tests when a branch links two groups, built
    here for any run."""
    from repro.serializability.checker import merge_group_histories
    from repro.serializability.history import MVHistory
    from repro.wal.invariants import effective_log

    logs, decisions = run
    rename = {
        entry.transactions[0].tid: entry.gtid
        for log in logs.values() for entry in log.values()
        if entry.kind == "prepare" and decisions.get(entry.gtid)
    }
    histories = (
        (group, MVHistory.from_log(
            effective_log(logs[group], decisions), cluster.initial_image_for(group)
        ))
        for group in sorted(logs)
    )
    return merge_group_histories(histories, rename)
