"""Executable checkers for the paper's correctness obligations.

§3.2 requires of any correct implementation:

* **(L1)** the log only contains operations from committed transactions;
* **(L2)** a committed read/write transaction occupies exactly one position;
* **(L3)** every log prefix is a one-copy serializable history;
* **(R1)** no two replicas disagree on the value of a log position.

These functions turn each obligation into a check over the state left behind
by a run: one group's finalized log (``{position: entry}``, what
:meth:`repro.cluster.Cluster.finalize` returns), the per-datacenter
:class:`~repro.wal.log.LogReplica` views that only (R1) reads, and the
:class:`~repro.model.TransactionOutcome` records collected by the harness.
:meth:`repro.cluster.Cluster.check_invariants_all` runs :func:`run_all_checks`
on every group of a settled run (:meth:`repro.cluster.Cluster.settle`); each
checker takes its log (and the queue-shadow set) as an argument, never
rebuilds it and never changes it.

The (L3) check is the strongest available: it *replays* the global log from
the initial data image and verifies that every committed transaction observed
exactly the item values its serial position implies (via the
``read_snapshot`` that rides along in :class:`~repro.model.Transaction`).
This is Definition 1 specialized to the log order, covering both CP
enhancements (combined entries are replayed member-by-member in list order;
promoted transactions must still have read the pre-state of their final
position).

Cross-group 2PC adds entry kinds the replay must respect: a *prepare*
entry's branch counts only when the global decision for its transaction is
COMMIT; aborted prepares and commit/abort markers contribute nothing.  The
checkers take the resolved ``decisions`` map (gtid → committed) and treat an
*unresolved* prepare as its own violation — after recovery, an in-doubt
prepare is an orphan (the no-orphaned-prepare invariant).

The asynchronous queue layer adds ``queue_apply`` entries whose defining
property is *at-least-once append, exactly-once effect*: a delivery-pump
crash legitimately lands the same message at several log positions, and only
the first occurrence (by the entry's ``(sender_group, seqno)`` stream key)
takes effect.  :func:`queue_shadow_positions` identifies the redelivered
shadows; every replay-based checker skips them, exactly as the runtime apply
path does.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Mapping

from repro.model import Item, Transaction, TransactionOutcome, TransactionStatus
from repro.wal.entry import LogEntry
from repro.wal.log import LogReplica


class InvariantViolation(AssertionError):
    """One or more correctness obligations failed; message lists them all."""

    def __init__(self, violations: list[str]) -> None:
        super().__init__("\n".join(violations))
        self.violations = violations


def global_log(replicas: list[LogReplica]) -> dict[int, Any]:
    """Union of all replicas' chosen entries, keyed by position.

    A log built from replicas by hand, for inspecting them outside a run's
    offline pass (which checks the log :meth:`repro.cluster.Cluster.finalize`
    returns).  Assumes (R1) holds; when replicas disagree the lowest-named
    store's value wins.
    """
    merged: dict[int, Any] = {}
    for replica in sorted(replicas, key=lambda r: r.store.name, reverse=True):
        merged.update(replica.entries())
    return merged


def queue_shadow_positions(log: Mapping[int, LogEntry]) -> set[int]:
    """Positions holding a *redelivered* queue_apply entry.

    A pump crash can append the same message (same ``(sender_group, seqno)``
    stream key) at several positions; only the first occurrence in log order
    takes effect.  The later ones are shadows: the apply path skips them and
    so must every replay.  The first-occurrence rule has exactly one
    implementation (:func:`repro.core.queues.first_applies`) so the replays
    here can never drift from the delivery checker and the drain.
    """
    from repro.core.queues import first_applies

    firsts = set(first_applies(log).values())
    return {
        position for position in log
        if log[position].queue_key is not None and position not in firsts
    }


def effective_transactions(
    entry: LogEntry, decisions: Mapping[str, bool] | None = None
) -> tuple[Transaction, ...]:
    """The transactions of *entry* that actually took effect.

    Data entries contribute every member; a prepare entry contributes its
    branch iff its transaction's decision is COMMIT; markers and aborted or
    unresolved prepares contribute nothing.  A queue_apply entry contributes
    its message — *unless* it is a redelivery shadow, which only
    :func:`queue_shadow_positions` can see (log-wide context); callers
    replaying whole logs must skip shadow positions.
    """
    if entry.kind in ("data", "queue_apply"):
        return entry.transactions
    if entry.kind == "prepare" and (decisions or {}).get(entry.gtid or ""):
        return entry.transactions
    return ()


def effective_log(
    log: Mapping[int, LogEntry], decisions: Mapping[str, bool] | None = None
) -> dict[int, LogEntry]:
    """The committed content of *log*: positions whose entry took effect.

    Positions occupied by markers, non-committed prepares, or redelivered
    queue_apply shadows are omitted — they applied nothing, so replays and
    history constructions skip them.
    """
    shadows = queue_shadow_positions(log)
    return {
        position: entry
        for position, entry in log.items()
        if position not in shadows and effective_transactions(entry, decisions)
    }


def check_no_orphaned_prepares(
    log: Mapping[int, LogEntry], decisions: Mapping[str, bool]
) -> list[str]:
    """(2PC) every prepare entry's transaction has a durable decision.

    Run after recovery: an unresolved prepare at that point is an orphan —
    some participant group could still block forever on it.
    """
    violations: list[str] = []
    for position in sorted(log):
        entry = log[position]
        if entry.kind == "prepare" and entry.gtid not in decisions:
            violations.append(
                f"(2PC) orphaned prepare for {entry.gtid} at position "
                f"{position}: no durable commit/abort decision"
            )
    return violations


def check_r1_replica_agreement(replicas: list[LogReplica]) -> list[str]:
    """(R1): no two logs have different values for the same position."""
    violations: list[str] = []
    seen: dict[int, tuple[str, Any]] = {}
    for replica in replicas:
        for position, entry in replica.entries().items():
            if position in seen:
                other_store, other_entry = seen[position]
                if other_entry != entry:
                    violations.append(
                        f"(R1) position {position}: {replica.store.name} has "
                        f"{entry} but {other_store} has {other_entry}"
                    )
            else:
                seen[position] = (replica.store.name, entry)
    return violations


def check_l1_only_committed(
    log: Mapping[int, LogEntry], outcomes: list[TransactionOutcome]
) -> list[str]:
    """(L1) plus durability, phrased over observable outcomes.

    * every committed *read/write* transaction appears in the log
      (read-only transactions are never logged: "Read-only transactions are
      not recorded in the log", §3.2);
    * no transaction reported aborted appears in the log.

    Transactions with no recorded outcome (client crashed mid-protocol) are
    unconstrained — the paper allows either result in that case (§4.1).
    """
    violations: list[str] = []
    logged_tids = {
        txn.tid for entry in log.values() for txn in entry.transactions
    }
    for outcome in outcomes:
        tid = outcome.transaction.tid
        if (
            outcome.status is TransactionStatus.COMMITTED
            and not outcome.transaction.is_read_only
            and tid not in logged_tids
        ):
            violations.append(f"(L1/durability) {tid} reported committed but absent from the log")
        if outcome.status is TransactionStatus.ABORTED and tid in logged_tids:
            violations.append(f"(L1) {tid} reported aborted but present in the log")
    return violations


def check_read_only_consistency(
    log: Mapping[int, LogEntry],
    shadows: set[int],
    outcomes: list[TransactionOutcome],
    initial_image: Mapping[Item, Any] | None = None,
    decisions: Mapping[str, bool] | None = None,
) -> list[str]:
    """Read-only transactions read a consistent snapshot (Theorem 1).

    Theorem 1 serializes each committed read-only transaction immediately
    after the last transaction written at its read position, so its observed
    values must equal the one-copy state after replaying the log through
    that position.

    The replay is indexed, not materialized: instead of copying the whole
    one-copy state dict at every position (quadratic in log length × item
    count), one pass records each item's version list and every read resolves
    by bisecting that list at its read position.
    """
    violations: list[str] = []
    initial = dict(initial_image or {})
    # One pass: versions[item] = ([position, ...], [value, ...]) in log order.
    versions: dict[Item, tuple[list[int], list[Any]]] = {}
    positions = sorted(log)
    for position in positions:
        if position in shadows:
            continue
        for txn in effective_transactions(log[position], decisions):
            for item, value in txn.writes:
                lists = versions.get(item)
                if lists is None:
                    lists = versions[item] = ([], [])
                lists[0].append(position)
                lists[1].append(value)
    max_known = positions[-1] if positions else 0
    for outcome in outcomes:
        txn = outcome.transaction
        if not (outcome.status is TransactionStatus.COMMITTED and txn.is_read_only):
            continue
        if txn.read_position > max_known:
            violations.append(
                f"(RO) {txn.tid} read at position {txn.read_position}, beyond "
                f"the known log (max {max_known})"
            )
            continue
        for item, recorded_value in txn.read_snapshot:
            lists = versions.get(item)
            expected = initial.get(item)
            if lists is not None:
                index = bisect_right(lists[0], txn.read_position) - 1
                if index >= 0:
                    expected = lists[1][index]
            if expected != recorded_value:
                violations.append(
                    f"(RO) {txn.tid} at read position {txn.read_position} read "
                    f"{item}={recorded_value!r} but the one-copy state there "
                    f"is {expected!r}"
                )
    return violations


def check_l2_single_position(
    log: Mapping[int, LogEntry], shadows: set[int]
) -> list[str]:
    """(L2): each transaction occupies exactly one log position.

    Queue redelivery shadows are exempt: a pump crash legitimately lands the
    same message at several positions, and only the first takes effect (the
    queue delivery invariant separately verifies the shadows are byte-equal
    twins of their first occurrence).
    """
    violations: list[str] = []
    first_seen: dict[str, int] = {}
    for position in sorted(log):
        if position in shadows:
            continue
        for txn in log[position].transactions:
            if txn.tid in first_seen and first_seen[txn.tid] != position:
                violations.append(
                    f"(L2) {txn.tid} appears at positions {first_seen[txn.tid]} and {position}"
                )
            first_seen.setdefault(txn.tid, position)
    return violations


def check_l3_prefix_serializable(
    log: Mapping[int, LogEntry],
    shadows: set[int],
    initial_image: Mapping[Item, Any] | None = None,
    decisions: Mapping[str, bool] | None = None,
) -> list[str]:
    """(L3): replay the log and verify every recorded read.

    For each committed transaction *t* at position *p*: for every item *t*
    read, the value recorded in its ``read_snapshot`` must equal the item's
    state after replaying positions ``1..p-1`` plus any members preceding
    *t* in *p*'s own entry (the combination rule guarantees those members
    never wrote *t*'s read items, so this reduces to the state at ``p-1``,
    but replaying in member order also validates that rule).  Aborted
    prepares and decision markers replay as no-ops.
    """
    violations: list[str] = []
    state: dict[Item, Any] = dict(initial_image or {})
    positions = sorted(log)
    # Verify contiguity: a chosen position with an unchosen predecessor means
    # catch-up was not run to completion before checking.
    expected = 1
    for position in positions:
        if position != expected:
            violations.append(
                f"(L3) log has a gap: expected position {expected}, found {position}"
            )
            break
        expected += 1
    for position in positions:
        if position in shadows:
            continue
        for txn in effective_transactions(log[position], decisions):
            if txn.read_position >= position:
                violations.append(
                    f"(L3) {txn.tid} at position {position} has read_position "
                    f"{txn.read_position} >= its commit position"
                )
            for item, recorded_value in txn.read_snapshot:
                current = state.get(item)
                if current != recorded_value:
                    violations.append(
                        f"(L3) {txn.tid} at position {position} read "
                        f"{item}={recorded_value!r} but the one-copy state "
                        f"there is {current!r}"
                    )
            for item, value in txn.writes:
                state[item] = value
    return violations


def check_snapshot_reads(
    log: Mapping[int, LogEntry],
    shadows: set[int],
    initial_image: Mapping[Item, Any] | None = None,
    decisions: Mapping[str, bool] | None = None,
) -> list[str]:
    """(SI) the snapshot-isolation obligations, replacing (L3) under ``si``.

    Every committed transaction must have (a) read its *start-timestamp
    snapshot* — each ``read_snapshot`` value equals the one-copy state at
    its ``read_position``, not at its commit position — and (b) won
    *first-committer-wins*: no other transaction wrote an overlapping
    write-set item at a position strictly inside its snapshot-to-commit
    window.  Stale reads of items written inside the window are exactly
    what SI admits, so unlike (L3) they are not violations here; the MVSG
    classifier names the anomalies they cause instead.

    Blind write-write overlap *within* one combined entry is tolerated: the
    combination rule already forbids a member from reading a co-member's
    writes, so the overlap is between blind writers, which member order
    serializes (the same argument that makes it harmless under 1SR).
    ``queue_apply`` entries are skipped outright — deferred sends are
    applied asynchronously under the exactly-once delivery invariant, not
    under snapshot validation (and SI runs currently exclude queue traffic
    at the spec level).
    """
    violations: list[str] = []
    positions = sorted(log)
    expected = 1
    for position in positions:
        if position != expected:
            violations.append(
                f"(SI) log has a gap: expected position {expected}, found {position}"
            )
            break
        expected += 1
    initial = dict(initial_image or {})
    # One pass: versions[item] = ([position, ...], [value, ...]) in log order.
    versions: dict[Item, tuple[list[int], list[Any]]] = {}
    for position in positions:
        if position in shadows:
            continue
        for txn in effective_transactions(log[position], decisions):
            for item, value in txn.writes:
                lists = versions.get(item)
                if lists is None:
                    lists = versions[item] = ([], [])
                lists[0].append(position)
                lists[1].append(value)
    for position in positions:
        if position in shadows or log[position].kind == "queue_apply":
            continue
        for txn in effective_transactions(log[position], decisions):
            if txn.read_position >= position:
                violations.append(
                    f"(SI) {txn.tid} at position {position} has read_position "
                    f"{txn.read_position} >= its commit position"
                )
                continue
            for item, recorded_value in txn.read_snapshot:
                lists = versions.get(item)
                value = initial.get(item)
                if lists is not None:
                    index = bisect_right(lists[0], txn.read_position) - 1
                    if index >= 0:
                        value = lists[1][index]
                if value != recorded_value:
                    violations.append(
                        f"(SI) {txn.tid} at read position {txn.read_position} "
                        f"read {item}={recorded_value!r} but the snapshot "
                        f"there is {value!r}"
                    )
            for item in sorted(txn.write_set):
                lists = versions.get(item)
                if lists is None:
                    continue
                low = bisect_right(lists[0], txn.read_position)
                high = bisect_left(lists[0], position)
                if low < high:
                    violations.append(
                        f"(SI) {txn.tid} at position {position} wrote {item} "
                        f"also written at position {lists[0][low]} inside its "
                        f"snapshot window (first-committer-wins)"
                    )
    return violations


def run_all_checks(
    log: Mapping[int, LogEntry],
    replicas: list[LogReplica],
    outcomes: list[TransactionOutcome],
    initial_image: Mapping[Item, Any],
    decisions: Mapping[str, bool],
    isolation: str = "1sr",
) -> None:
    """Run every checker on one group; raise :class:`InvariantViolation` on
    any failure.

    *log* is the group's finalized log; *replicas* are its per-datacenter
    views, which only (R1) reads.  ``decisions`` resolves 2PC prepare
    entries (gtid → committed): the post-recovery map.

    ``isolation`` selects the replay obligation: ``"1sr"`` runs owe the
    full (L3) prefix-serializability replay; ``"si"`` runs owe the weaker
    :func:`check_snapshot_reads` contract instead — stale reads inside the
    snapshot window are admitted by construction there, and the MVSG
    classifier names the anomalies they cause.

    The queue-shadow set is computed once here and shared by every checker.
    """
    shadows = queue_shadow_positions(log)
    replay = check_snapshot_reads if isolation == "si" else check_l3_prefix_serializable
    violations = (
        check_r1_replica_agreement(replicas)
        + check_l1_only_committed(log, outcomes)
        + check_l2_single_position(log, shadows)
        + replay(log, shadows, initial_image, decisions)
        + check_read_only_consistency(
            log, shadows, outcomes, initial_image, decisions
        )
        + check_no_orphaned_prepares(log, decisions)
    )
    if violations:
        raise InvariantViolation(violations)
