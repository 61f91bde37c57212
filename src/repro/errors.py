"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch one base class at API boundaries.  Errors are grouped by the
subsystem that raises them (simulation kernel, key-value store, network,
transaction tier) and carry enough structured context to be useful in tests
and in the benchmark harness.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# Simulation kernel
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event simulation kernel."""


class SimulationFinished(SimulationError):
    """Raised when :meth:`Environment.run` exhausts its event queue.

    This is a control-flow signal rather than a failure: the simulation has no
    more scheduled work.  It is only raised when the caller asked to run
    forever (``until=None``) and the queue drained.
    """


class ProcessKilled(SimulationError):
    """Injected into a process generator when the process is killed."""


class InvalidYield(SimulationError):
    """A process yielded something that is not a waitable event."""


# ---------------------------------------------------------------------------
# Key-value store
# ---------------------------------------------------------------------------


class KVStoreError(ReproError):
    """Base class for key-value store errors."""


class RowVersionError(KVStoreError):
    """A write specified a timestamp not greater than an existing version.

    The paper's ``write(key, value, timestamp)`` primitive returns an error if
    a version with a greater (or equal) timestamp already exists; we surface
    that as an exception carrying the offending and existing timestamps.
    """

    def __init__(self, key: str, timestamp: int, existing: int) -> None:
        super().__init__(
            f"write to {key!r} at timestamp {timestamp} rejected: "
            f"a version with timestamp {existing} already exists"
        )
        self.key = key
        self.timestamp = timestamp
        self.existing = existing


class StateHistoryError(KVStoreError):
    """A read asked a state row for a version it no longer keeps.

    A state row (Paxos acceptor state, queue tables, intents, transaction
    status) keeps only its current version: each write replaces it.  A read
    at a timestamp below that version cannot be answered — the row's
    earlier state is gone, which is not the same as the row not existing —
    so it raises instead of returning ``None``.
    """

    def __init__(self, key: str, timestamp: float, retained: float) -> None:
        super().__init__(
            f"read of state row {key!r} at timestamp {timestamp}: only its "
            f"current version, at timestamp {retained}, is kept"
        )
        self.key = key
        self.timestamp = timestamp
        self.retained = retained


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------


class NetworkError(ReproError):
    """Base class for network substrate errors."""


class UnknownDatacenter(NetworkError):
    """A message was addressed to a datacenter not present in the topology."""


# ---------------------------------------------------------------------------
# Transaction tier
# ---------------------------------------------------------------------------


class TransactionError(ReproError):
    """Base class for transaction tier errors."""


class TransactionStateError(TransactionError):
    """The transaction API was used out of order (e.g. read before begin)."""


class CrossGroupTransaction(TransactionError):
    """A *pinned* transaction touched a row outside its entity group.

    The paper's transactions live entirely within one entity group; a read
    or write whose row routes (via the deployment's
    :class:`~repro.model.Placement`) to a different group than the one the
    transaction began on is a programming error, reported before any
    message is sent.  Transactions that genuinely need several groups open
    an *unpinned* handle instead — ``begin()`` with no group — and commit
    atomically through the 2PC coordinator
    (:mod:`repro.core.commit_2pc`).
    """

    def __init__(self, handle_group: str, row: str, row_group: str) -> None:
        super().__init__(
            f"transaction on group {handle_group!r} touched row {row!r}, "
            f"which belongs to group {row_group!r}; transactions must stay "
            f"within one entity group"
        )
        self.handle_group = handle_group
        self.row = row
        self.row_group = row_group


class ServiceUnavailable(TransactionError):
    """No transaction service (local or remote) answered a request."""


class DeadlineExceeded(TransactionError):
    """The transaction's deadline budget ran out before it finished.

    Raised by the client retry loop when a ``begin``/``read`` retry would
    start later than ``deadline_ms`` after the transaction began (see
    :class:`repro.config.ProtocolConfig`).  The workload drivers record it
    as a ``timeout`` abort — the *typed* terminal outcome of a transaction
    that kept being retried until its budget died, distinct from
    ``service_unavailable`` (retries exhausted with no answer at all).
    """

    def __init__(self, operation: str, elapsed_ms: float, budget_ms: float) -> None:
        super().__init__(
            f"{operation}: deadline budget exhausted "
            f"({elapsed_ms:.0f} ms elapsed of {budget_ms:.0f} ms)"
        )
        self.operation = operation
        self.elapsed_ms = elapsed_ms
        self.budget_ms = budget_ms


# ---------------------------------------------------------------------------
# Experiment harness
# ---------------------------------------------------------------------------


class FaultScheduleError(ReproError):
    """A declarative fault schedule cannot be installed on this deployment.

    Raised by :func:`repro.failures.schedule.install_fault_schedule` for
    schedules naming unknown datacenters or groups, pump crashes without a
    running pump, and by :meth:`repro.failures.injector.FailureInjector.kill_process_at`
    for cross-lane kills requested *mid-run* on a lane-partitioned kernel
    (the cross-lane coupling lane independence forbids) — a typed error at
    the declaration site instead of a lane-kernel crash deep in the run.
    """


class InvalidExperimentSpec(ReproError, ValueError):
    """An :class:`~repro.harness.experiment.ExperimentSpec` combines options
    that cannot run together (e.g. the open-loop engine on a sharded
    deployment), or names a protocol that does not exist.

    Raised by :func:`repro.config.check_combination`, with the reason of the
    compatibility-table row that refuses the combination, and by
    :func:`repro.config.check_choices`, at spec *construction* —
    misconfigured sweeps die before any cluster is built.
    Also a :class:`ValueError`, for callers that guard with the generic type.
    """


# ---------------------------------------------------------------------------
# Serializability analysis
# ---------------------------------------------------------------------------


class HistoryError(ReproError):
    """A history object is malformed (e.g. a read of a version never written)."""

