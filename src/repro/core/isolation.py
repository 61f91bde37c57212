"""Commit-time validation under the per-run isolation level.

The commit engines discover, while competing for log positions, the union
write set of every transaction that committed *after* this transaction's
snapshot (``read_position``) — that is exactly the "concurrent committed
transactions" set of the SI literature.  What the engine does with it
depends on the deployment's :data:`repro.config.IsolationLevel`:

``"1sr"``
    The paper's rule (§5): abort iff the transaction *read* an item a
    concurrent winner wrote — its reads would no longer be the latest
    writes before its commit position.  Blind write-write overlap is
    harmless because the log order serializes it.  This is the
    write-snapshot isolation rule of A Critique of Snapshot Isolation
    (arXiv:2405.18393), which checks read-write conflicts *instead of*
    write-write ones and shows that rule alone is serializable; Paxos-CP's
    promotion check enforces it.

``"si"``
    Snapshot isolation: reads are served from the start-timestamp snapshot
    (the MVCC store already pins them at ``read_position``), and commit
    validation is *first-committer-wins* — abort iff the transaction
    *writes* an item a concurrent winner wrote.  Stale reads are allowed
    through, which is what admits write skew.

Queue sends ride in the transaction's durable entry under every level, so
``union_write_set`` (which includes send targets) is the right "what the
winner made durable" set for the write-write test, while the read-set test
keeps using in-group writes only — exactly the predicate the 1SR path has
always used.
"""

from __future__ import annotations

from repro.config import IsolationLevel
from repro.model import AbortReason, Item, Transaction


def conflict_abort_reason(
    isolation: IsolationLevel,
    txn: Transaction,
    conflict_writes: frozenset[Item] | set[Item],
) -> AbortReason | None:
    """Why *txn* must abort against the concurrent write set, or ``None``.

    ``conflict_writes`` is the union write set of every transaction that
    committed in ``(txn.read_position, candidate commit position)`` — the
    snapshot-to-commit window.  The returned reason distinguishes the two
    failure modes so abort histograms stay meaningful across levels:
    ``WRITE_CONFLICT`` is an SI first-committer-wins loss,
    ``PROMOTION_CONFLICT`` is the 1SR stale-read rejection.
    """
    if isolation == "si" and txn.write_set & conflict_writes:
        return AbortReason.WRITE_CONFLICT
    if isolation != "si" and txn.read_set & conflict_writes:
        return AbortReason.PROMOTION_CONFLICT
    return None
