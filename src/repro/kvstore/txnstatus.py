"""The durable transaction-status table (cross-group 2PC).

Each datacenter's key-value store holds one row per cross-group transaction
once its commit/abort decision is durable: ``_txnstatus/{gtid}`` with the
decision and the participant group list.  The *authoritative* decision is a
dedicated Paxos instance (group ``_txn/{gtid}``, position 1) whose acceptors
are the same Transaction Services that replicate the group logs; the status
row is the applied, locally-readable projection of that instance — the same
relationship a group's data rows have to its log.

Recovery reads the table first (cheap, local), then falls back to the
decision instance (quorum read), exactly like a pinned data read falls back
to log catch-up.
"""

from __future__ import annotations

from typing import Iterator

from repro.kvstore.store import MultiVersionStore
from repro.model import TransactionStatusRecord

#: Attributes of a status row.
ATTR_STATUS = "status"
ATTR_PARTICIPANTS = "participants"

_STATUS_PREFIX = "_txnstatus/"

#: Root of every decision-instance group name (``_txn/{gtid}``); exported so
#: store scans can compose the Paxos-row prefix from the real constants.
DECISION_GROUP_ROOT = "_txn"
_DECISION_GROUP_PREFIX = DECISION_GROUP_ROOT + "/"


def status_row_key(gtid: str) -> str:
    """Key of the status row for global transaction *gtid*."""
    return f"{_STATUS_PREFIX}{gtid}"


def decision_group(gtid: str) -> str:
    """Name of the Paxos instance group that decides *gtid*'s outcome.

    The instance lives at position 1 of this single-slot "log"; the acceptor
    machinery needs nothing new because its state is keyed by (group,
    position) strings.
    """
    return f"{_DECISION_GROUP_PREFIX}{gtid}"


def is_decision_group(group: str) -> bool:
    """True if *group* names a transaction-status instance, not a data group."""
    return group.startswith(_DECISION_GROUP_PREFIX)


def gtid_of_decision_group(group: str) -> str:
    """Inverse of :func:`decision_group`."""
    if not is_decision_group(group):
        raise ValueError(f"{group!r} is not a transaction-status group")
    return group[len(_DECISION_GROUP_PREFIX):]


class TxnStatusTable:
    """One datacenter's view of the transaction-status table."""

    def __init__(self, store: MultiVersionStore) -> None:
        self.store = store

    def get(self, gtid: str) -> TransactionStatusRecord | None:
        """The locally-known decision for *gtid*, or ``None`` if unresolved."""
        version = self.store.read(status_row_key(gtid))
        if version is None:
            return None
        return TransactionStatusRecord(
            gtid=gtid,
            committed=version.get(ATTR_STATUS) == "committed",
            participants=tuple(version.get(ATTR_PARTICIPANTS) or ()),
        )

    def record(self, record: TransactionStatusRecord) -> None:
        """Durably record a decision; idempotent (decisions never change)."""
        if self.get(record.gtid) is not None:
            return
        self.store.write(status_row_key(record.gtid), {
            ATTR_STATUS: "committed" if record.committed else "aborted",
            ATTR_PARTICIPANTS: tuple(record.participants),
        })

    def __iter__(self) -> Iterator[TransactionStatusRecord]:
        """Every resolved transaction known locally."""
        for key in self.store.keys(_STATUS_PREFIX):
            record = self.get(key[len(_STATUS_PREFIX):])
            if record is not None:
                yield record
