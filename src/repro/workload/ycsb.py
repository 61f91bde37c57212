"""Transaction generation in the style of the paper's extended YCSB.

"Transaction operations are 50% reads and 50% writes, and the attribute for
each operation is chosen uniformly at random." (§6)  "We evaluate the
transaction protocols on a single entity group consisting of a single row
... The attribute names and values are generated randomly by the
benchmarking framework."

Write values are made globally unique (``{tid-seed}:{op-index}``) so that a
finished run's reads can be attributed to their writers exactly — the
serializability oracles depend on this.

The zipfian generator is the standard YCSB construction (Gray et al.'s
incremental zeta computation is unnecessary here; attribute counts are
small, so the distribution is materialized directly).

**Multi-group mode** (the paper's §2 "partitioned into entity groups"):
constructed with a :class:`~repro.model.Placement` of more than one group,
the workload routes its row universe through the placement, draws each
transaction's group uniformly or zipfian-distributed
(``WorkloadConfig.group_distribution``), and confines the transaction's
operations to that group's rows — matching the paper's scope.  With
``WorkloadConfig.cross_group_fraction`` > 0 that fraction of transactions
instead spans ``cross_group_span`` distinct groups, spreading its
operations round-robin over them; the driver commits those through the 2PC
coordinator.  With ``WorkloadConfig.queue_fraction`` > 0 a further slice
stays pinned to one group but converts its remote-group operations into
asynchronous *queue sends* (deferred writes; remote reads make no sense
deferred, so those operations are forced to writes) — the driver enqueues
them on the handle and commits down the ordinary single-group path.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import Literal, NamedTuple

from repro.config import WorkloadConfig
from repro.model import Placement

OpKind = Literal["read", "write"]


class Operation(NamedTuple):
    """One step of a transaction: read or write one attribute of one row.

    A NamedTuple, like the message records (``repro.paxos.messages``): one
    is built per operation generated.
    """

    kind: OpKind
    row: str
    attribute: str


@dataclass(frozen=True)
class TransactionPlan:
    """Everything the driver needs to execute one generated transaction.

    ``groups`` holds the *directly accessed* groups: one element is the
    paper's pinned single-group transaction, several a 2PC cross-group
    transaction.  ``queue_ops`` are deferred remote writes, each paired with
    its target group; only single-group plans carry them.
    """

    groups: tuple[str, ...]
    ops: tuple[Operation, ...]
    queue_ops: tuple[tuple[str, Operation], ...] = ()

    @property
    def home_group(self) -> str:
        return self.groups[0]


class ZipfianGenerator:
    """Zipf-distributed indices over ``[0, n)`` with parameter *theta*."""

    def __init__(self, n: int, theta: float = 0.99) -> None:
        if n <= 0:
            raise ValueError("zipfian domain must be non-empty")
        if not 0 < theta < 1:
            raise ValueError(f"theta must be in (0,1), got {theta}")
        self.n = n
        self.theta = theta
        weights = [1.0 / math.pow(rank + 1, theta) for rank in range(n)]
        total = 0.0
        for weight in weights:  # left to right: builtin sum() compensates on 3.12+
            total += weight
        cumulative = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            cumulative.append(acc)
        self._cumulative = cumulative

    def next(self, rng: random.Random) -> int:
        """Draw one index; rank 0 is the most popular."""
        return bisect.bisect_left(self._cumulative, rng.random())


class YcsbWorkload:
    """Generates rows, initial data, and per-transaction operation lists.

    With a *placement* of more than one group the workload runs in
    multi-group mode: each transaction targets one group (chosen per
    ``config.group_distribution``) and only touches rows routed to it.
    Every group must own at least one row — size ``n_rows`` and the
    placement so none comes up empty (range assignment with
    ``key_universe == n_rows`` guarantees this).
    """

    def __init__(
        self,
        config: WorkloadConfig,
        rng: random.Random,
        placement: Placement | None = None,
        fixed_group: str | None = None,
    ) -> None:
        self.config = config
        self.rng = rng
        self.placement = placement
        self.multi_group = placement is not None and placement.n_groups > 1
        #: Pin every generated transaction's home group (the ``"pinned"``
        #: group distribution: one generator per client thread, each owning
        #: one group).  Cross-group and queue plans still span out from it.
        self.fixed_group = fixed_group
        if fixed_group is not None and not self.multi_group:
            raise ValueError("fixed_group needs a multi-group placement")
        self._zipf = (
            ZipfianGenerator(config.n_attributes)
            if config.distribution == "zipfian"
            else None
        )
        self._group_zipf: ZipfianGenerator | None = None
        #: Attribute names by index, built once for :meth:`_make_ops`.  One
        #: past the last: a zipfian draw above the final cumulative weight
        #: (which float rounding can leave just under 1.0) bisects to it.
        self._attribute_names = [
            self.attribute_name(a) for a in range(config.n_attributes + 1)
        ]
        self._all_rows = [self.row_name(r) for r in range(config.n_rows)]
        self._group_rows: dict[str, list[str]] = {}
        if self.multi_group:
            assert placement is not None
            self._group_rows = placement.split_by_group(self._all_rows)
            empty = [group for group, rows in self._group_rows.items() if not rows]
            if empty:
                raise ValueError(
                    f"groups {empty} own no rows under this placement; "
                    f"raise n_rows (= {config.n_rows}) or use range assignment"
                )
            if config.group_distribution == "zipfian":
                self._group_zipf = ZipfianGenerator(
                    placement.n_groups, config.group_zipfian_theta
                )

    @property
    def groups(self) -> tuple[str, ...]:
        """The groups this workload generates transactions for."""
        if self.multi_group:
            assert self.placement is not None
            return self.placement.groups
        return (self.config.group,)

    @property
    def all_rows(self) -> tuple[str, ...]:
        """Every row name this workload can touch."""
        return tuple(self._all_rows)

    # ------------------------------------------------------------------
    # Data layout
    # ------------------------------------------------------------------

    def row_name(self, index: int) -> str:
        return f"row{index}"

    def attribute_name(self, index: int) -> str:
        return f"a{index}"

    def initial_rows(self) -> dict[str, dict[str, str]]:
        """The initial image: every attribute of every row pre-populated."""
        return {
            self.row_name(r): {
                self.attribute_name(a): f"init:{r}:{a}"
                for a in range(self.config.n_attributes)
            }
            for r in range(self.config.n_rows)
        }

    def initial_images(self) -> dict[str, dict[str, dict[str, str]]]:
        """The initial image partitioned by group: ``{group: {row: attrs}}``."""
        rows = self.initial_rows()
        if not self.multi_group:
            return {self.config.group: rows}
        return {
            group: {row: rows[row] for row in group_rows}
            for group, group_rows in self._group_rows.items()
        }

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def _pick_attribute(self) -> int:
        if self._zipf is not None:
            return self._zipf.next(self.rng)
        return self.rng.randrange(self.config.n_attributes)

    def _pick_group(self) -> str:
        assert self.placement is not None
        if self.fixed_group is not None:
            return self.fixed_group
        if self._group_zipf is not None:
            return self.placement.group_name(self._group_zipf.next(self.rng))
        return self.placement.group_name(self.rng.randrange(self.placement.n_groups))

    def _make_ops(self, rows: list[str]) -> list[Operation]:
        """``ops_per_transaction`` operations over *rows*.

        Per operation: a ``random()`` coin for the kind, ``randrange`` for
        the row, then the attribute (:meth:`_pick_attribute`).  One call per
        generated transaction, so the two ``randrange`` draws are inlined as
        the standard library computes them — ``getrandbits(n.bit_length())``
        until the value is below ``n``; for ``n == 1`` that still draws one
        bit until it reads 0 — which leaves every value and every stream
        position as ``randrange`` would (``tests/sim/test_exact_draws.py``).
        """
        config = self.config
        rng = self.rng
        coin = rng.random
        getrandbits = rng.getrandbits
        read_fraction = config.read_fraction
        n_rows = len(rows)
        row_bits = n_rows.bit_length()
        names = self._attribute_names
        zipf = self._zipf
        n_attributes = config.n_attributes
        attribute_bits = n_attributes.bit_length()
        ops: list[Operation] = []
        for _index in range(config.ops_per_transaction):
            kind: OpKind = "read" if coin() < read_fraction else "write"
            row = getrandbits(row_bits)
            while row >= n_rows:
                row = getrandbits(row_bits)
            if zipf is not None:
                attribute = zipf.next(rng)
            else:
                attribute = getrandbits(attribute_bits)
                while attribute >= n_attributes:
                    attribute = getrandbits(attribute_bits)
            ops.append(Operation(kind, rows[row], names[attribute]))
        return ops

    def _pick_groups(self, span: int) -> list[str]:
        """*span* distinct groups, first drawn by the configured
        distribution, the rest uniformly from the remainder."""
        assert self.placement is not None
        first = self._pick_group()
        others = [group for group in self.placement.groups if group != first]
        span = min(span, len(others) + 1)
        return [first] + self.rng.sample(others, span - 1)

    def next_transaction(self) -> list[Operation]:
        """The operation list for one transaction (single-group form)."""
        return self._make_ops(self._all_rows)

    def plan_for_row(self, group: str, row: str) -> TransactionPlan:
        """A single-group plan confined to one specific row.

        The open-loop engine samples a logical user, maps it to its home
        row/group, and asks for a plan there — the user model owns row
        choice; this workload still owns the op mix (read fraction,
        attribute skew, ops per transaction).
        """
        return TransactionPlan(groups=(group,), ops=tuple(self._make_ops([row])))

    def next_group_transaction(self) -> tuple[str, list[Operation]]:
        """One transaction plus the group it targets.

        Multi-group mode draws the group first, then confines the operations
        to that group's rows; single-group mode targets ``config.group``.
        """
        if not self.multi_group:
            return self.config.group, self.next_transaction()
        group = self._pick_group()
        return group, self._make_ops(self._group_rows[group])

    def next_transaction_spec(self) -> tuple[tuple[str, ...], list[Operation]]:
        """One transaction plus *all* the groups it targets.

        The legacy (pre-queue) spec form; equivalent to
        :meth:`next_transaction_plan` with the queue ops folded away.
        Retained because the stream-identity contract is defined on it: with
        both mix fractions 0 it is ``next_group_transaction`` byte for byte.
        """
        plan = self.next_transaction_plan()
        return plan.groups, list(plan.ops)

    def next_transaction_plan(self) -> TransactionPlan:
        """One generated transaction in full (2PC, queue, or single-group).

        Draw order is significant for RNG-stream stability: the cross-group
        coin is tossed only when ``cross_group_fraction`` > 0 (exactly as
        before queues existed) and the queue coin only when
        ``queue_fraction`` > 0 — so runs with either knob at 0 reproduce
        the corresponding pre-knob streams bit for bit.
        """
        if (
            self.multi_group
            and self.config.cross_group_fraction > 0
            and self.rng.random() < self.config.cross_group_fraction
        ):
            groups = self._pick_groups(self.config.cross_group_span)
            ops: list[Operation] = []
            for index in range(self.config.ops_per_transaction):
                kind: OpKind = (
                    "read" if self.rng.random() < self.config.read_fraction
                    else "write"
                )
                rows = self._group_rows[groups[index % len(groups)]]
                ops.append(Operation(
                    kind=kind,
                    row=rows[self.rng.randrange(len(rows))],
                    attribute=self.attribute_name(self._pick_attribute()),
                ))
            return TransactionPlan(groups=tuple(groups), ops=tuple(ops))
        if (
            self.multi_group
            and self.config.queue_fraction > 0
            and self.rng.random() < self.config.queue_fraction
        ):
            return self._queue_plan()
        group, ops = self.next_group_transaction()
        return TransactionPlan(groups=(group,), ops=tuple(ops))

    def _queue_plan(self) -> TransactionPlan:
        """A single-group transaction with deferred writes to other groups.

        Operations are spread round-robin over ``cross_group_span`` groups
        like a 2PC transaction — the same data footprint, so benchmarks
        compare the two disciplines head to head — but only the first
        (home) group is accessed directly; every remote-group operation
        becomes an enqueued *write* (reads cannot be deferred).
        """
        groups = self._pick_groups(self.config.cross_group_span)
        home = groups[0]
        ops: list[Operation] = []
        queue_ops: list[tuple[str, Operation]] = []
        for index in range(self.config.ops_per_transaction):
            kind: OpKind = (
                "read" if self.rng.random() < self.config.read_fraction
                else "write"
            )
            group = groups[index % len(groups)]
            rows = self._group_rows[group]
            operation = Operation(
                kind=kind if group == home else "write",
                row=rows[self.rng.randrange(len(rows))],
                attribute=self.attribute_name(self._pick_attribute()),
            )
            if group == home:
                ops.append(operation)
            else:
                queue_ops.append((group, operation))
        return TransactionPlan(
            groups=(home,), ops=tuple(ops), queue_ops=tuple(queue_ops)
        )
