"""Deployment builder: one call assembles a whole multi-datacenter system.

:class:`Cluster` wires together the simulation environment, the network with
the paper's RTT matrix, one multi-version key-value store and one
Transaction Service per datacenter, and hands out Transaction Clients.  It
is the entry point examples, tests, and the benchmark harness all use::

    cluster = Cluster(ClusterConfig(cluster_code="VVV", seed=7))
    cluster.preload("group-0", {"row0": {"a0": "init"}})
    client = cluster.add_client("V1", protocol="paxos-cp")

It also hosts the *offline verification* pass: after a run,
:meth:`finalize_all` completes the replicas' knowledge of every decided
position by direct store inspection (the runtime equivalent is the
protocol-level catch-up in :class:`repro.paxos.learner.Learner`; the offline
form exists so invariant checks never block on simulated messaging), and
:meth:`check_invariants_all` — the one check entry point — runs the
(L1)–(L3)/(R1) checkers on those logs plus the MVSG serializability test.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.config import ClusterConfig, Combination, ProtocolName, check_combination
from repro.core.client import TransactionClient
from repro.core.leased_leader import install_leased_leader
from repro.core.queues import (
    DRAIN_ORIGIN,
    DeliveryTable,
    QueueDeliveryPump,
    QueueStats,
    build_queue_apply,
    enumerate_sends,
    first_applies,
)
from repro.core.service import TransactionService, ordered_service_names
from repro.errors import FaultScheduleError
from repro.kvstore.service import StoreAccessor, StoreLatencyModel
from repro.kvstore.store import MultiVersionStore
from repro.kvstore.txnstatus import (
    DECISION_GROUP_ROOT,
    TxnStatusTable,
    decision_group,
)
from repro.model import (
    AbortReason,
    Item,
    Placement,
    QueueSend,
    TransactionOutcome,
    TransactionStatus,
    TransactionStatusRecord,
)
from repro.net.latency import RttMatrixLatency
from repro.paxos.acceptor import AcceptorState
from repro.net.network import Network
from repro.net.topology import Topology, cluster_preset
from repro.sim.shard import ShardMap
from repro.sim.shard import store_name as shard_store_name
from repro.serializability.checker import (
    check_queue_delivery,
    is_one_copy_serializable,
    merge_group_histories,
)
from repro.serializability.history import MVHistory
from repro.sim.env import Environment
from repro.wal.entry import LogEntry
from repro.wal.invariants import InvariantViolation, effective_log, run_all_checks
from repro.wal.log import (
    ATTR_BALLOT,
    ATTR_CHOSEN,
    ATTR_VALUE,
    LogReplica,
    data_row_key,
    paxos_group_prefix,
    paxos_row_key,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.serializability.checker import Anomaly


@dataclass
class CrashRecord:
    """One service replica's crash-restart cycle.

    Carries the decoded durable image taken at the crash instant — the
    amnesia detector compares it against the store at restart (nothing may
    change while the replica is down) and again at end of run (promises and
    decisions may only move forward across a crash, never regress).
    """

    datacenter: str
    lane: int
    crash_ms: float
    #: Versions the crash erased (:meth:`MultiVersionStore.erase_volatile`):
    #: each data version written during the run, and each non-durable state
    #: row (``_queue/``, ``_txnstatus/``) once, since it keeps one version.
    erased_versions: int = 0
    killed_processes: int = 0
    #: ``{paxos row key: (next_bal, ballot, chosen, vote_key, seq)}``.
    durable_image: dict[str, tuple] = field(default_factory=dict, repr=False)
    #: ``{_meta/ row key: latest attributes}`` (lease epochs, head intents).
    meta_image: dict[str, dict] = field(default_factory=dict, repr=False)
    restart_ms: float | None = None
    recovery_groups: tuple[str, ...] = ()


class Cluster:
    """A fully wired multi-datacenter deployment."""

    def __init__(self, config: ClusterConfig | None = None) -> None:
        self.config = config or ClusterConfig()
        self.topology: Topology = cluster_preset(self.config.cluster_code)
        self.placement = Placement(self.config.placement)
        self.shard_map = ShardMap(self.placement.groups, self.config.shards)
        latency = RttMatrixLatency(self.topology, jitter=self.config.jitter)
        self.env = Environment(
            seed=self.config.seed,
            lanes=self.shard_map.n_lanes,
            engine=self.config.engine,
        )
        self.network = Network(
            self.env,
            self.topology,
            latency,
            loss_probability=self.config.loss_probability,
            duplicate_probability=self.config.duplicate_probability,
        )
        self.home_dc = self.topology.names[0]
        self.stores: dict[str, MultiVersionStore] = {}
        self.services: dict[str, TransactionService] = {}
        #: Full (datacenter, lane) grids; lane 0 is aliased by the legacy
        #: per-datacenter dicts above.
        self.lane_stores: dict[tuple[str, int], MultiVersionStore] = {}
        self.lane_services: dict[tuple[str, int], TransactionService] = {}
        self._client_counters: dict[str, int] = {}
        #: The simulation's item intern table, shared by every client it
        #: creates (see :class:`~repro.core.client.TransactionClient`).
        self._items: dict[Item, Item] = {}
        self._initial_images: dict[str, dict[Item, Any]] = {}
        self._groups: set[str] = set()
        #: Every delivery pump ever started (restarts append, never replace).
        self._pumps: list[tuple[str, QueueDeliveryPump]] = []
        self._pump_counter = 0
        self._queue_drained = 0
        #: Classified MVSG anomalies of the last :meth:`check_invariants_all`
        #: pass (snapshot-isolation runs only; empty otherwise).  Sorted
        #: deterministically so metrics digests agree serial vs parallel.
        self._anomalies: "list[Anomaly]" = []
        #: Network-fault windows installed by a declarative schedule, as
        #: sorted ``(start_ms, end_ms)`` pairs; the availability report
        #: aligns its timeline against these.
        self.fault_windows: list[tuple[float, float]] = []
        #: One :class:`CrashRecord` per service crash, in kill order; the
        #: amnesia detector and the harness's recovery metrics read these.
        self.crash_records: list[CrashRecord] = []
        #: Open crash windows per (datacenter, lane) — overlapping windows
        #: refcount exactly like outages: a crash of an already-down
        #: replica is absorbed into the open record, and only the last
        #: matching restart actually reboots the node.
        self._crash_depth: dict[tuple[str, int], int] = {}

        group_homes = dict(self.config.placement.group_homes or {})
        for group, dc in group_homes.items():
            if dc not in self.topology.names:
                raise ValueError(
                    f"group_homes places {group!r} in {dc!r}, which is not a "
                    f"datacenter of cluster {self.config.cluster_code!r}"
                )
        store_latency = StoreLatencyModel(
            self.config.store.op_low_ms, self.config.store.op_high_ms
        )
        for dc in self.topology.names:
            for lane in range(self.shard_map.n_lanes):
                store = MultiVersionStore(name=shard_store_name(dc, lane))
                accessor = StoreAccessor(self.env, store, latency=store_latency)
                service = TransactionService(
                    self.env, self.network, dc, store,
                    self.config.protocol, home_dc=self.home_dc,
                    store_accessor=accessor,
                    group_homes=group_homes,
                    lane=lane,
                )
                install_leased_leader(service)
                self.lane_stores[(dc, lane)] = store
                self.lane_services[(dc, lane)] = service
                if lane == 0:
                    self.stores[dc] = store
                    self.services[dc] = service
        for (dc, lane), service in self.lane_services.items():
            peers = [
                self.lane_services[(peer, lane)].node.name
                for peer in self.topology.names
            ]
            decision_peers = [
                self.lane_services[(peer, 0)].node.name
                for peer in self.topology.names
            ]
            service.set_peers(peers, decision_peers=decision_peers)

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------

    def preload(self, group: str, rows: Mapping[str, Mapping[str, Any]]) -> None:
        """Install initial data in every datacenter at timestamp 0.

        Also remembered as the initial image the serializability checkers
        replay from (per group: row names may repeat across groups).
        """
        self._groups.add(group)
        image = self._initial_images.setdefault(group, {})
        lane = self.shard_map.lane_of(group)
        for dc in self.topology.names:
            store = self.lane_stores[(dc, lane)]
            for row, attributes in rows.items():
                store.write(data_row_key(group, row), dict(attributes), timestamp=0)
        for row, attributes in rows.items():
            for attribute, value in attributes.items():
                image[(row, attribute)] = value

    def preload_placed(self, rows: Mapping[str, Mapping[str, Any]]) -> None:
        """Preload *rows*, routing each row to its group via the placement."""
        for group, group_rows in self.placement.place_rows(rows).items():
            self.preload(group, group_rows)

    def add_client(
        self,
        datacenter: str,
        protocol: ProtocolName = "paxos",
        name: str | None = None,
        lane: int = 0,
    ) -> TransactionClient:
        """Create a Transaction Client (an application instance) in *datacenter*.

        ``lane`` places the client's node in one event lane — a thread
        pinned to a single entity group belongs in that group's lane; the
        default shared lane suits clients that roam groups.
        """
        self.topology.get(datacenter)
        check_combination(Combination(protocol=protocol, isolation=self.config.isolation))
        if name is None:
            count = self._client_counters.get(datacenter, 0) + 1
            self._client_counters[datacenter] = count
            name = f"cli:{datacenter}:{count}"
        return TransactionClient(
            self.env, self.network, datacenter, name,
            datacenters=self.topology.names,
            config=self.config.protocol,
            protocol=protocol,
            home_dc=self.home_dc,
            # Only multi-group deployments hand clients the placement: the
            # single-group API admits arbitrary group names ("accounts"),
            # which a 1-group placement would spuriously reject.
            placement=self.placement if self.placement.n_groups > 1 else None,
            shard_map=self.shard_map if not self.shard_map.single_lane else None,
            lane=lane,
            isolation=self.config.isolation,
            items=self._items,
        )

    def client_pool(
        self,
        datacenter: str,
        protocol: ProtocolName = "paxos",
        size: int = 16,
        prefix: str = "pool",
    ) -> "list[TransactionClient]":
        """*size* client nodes in *datacenter* with deterministic names.

        The open-loop engine multiplexes millions of logical users over
        such a pool — the pool, not the user population, bounds the number
        of live simulation processes.
        """
        return [
            self.add_client(
                datacenter, protocol=protocol,
                name=f"cli:{datacenter}:{prefix}:{index}",
            )
            for index in range(size)
        ]

    # ------------------------------------------------------------------
    # Execution helpers
    # ------------------------------------------------------------------

    def run(self, until: float | None = None) -> None:
        """Advance the simulation (drains the queue when *until* is None)."""
        self.env.run(until)

    def restrict_lane_channels(
        self, channels: "set[tuple[int, int]]"
    ) -> None:
        """Install the run's cross-lane communication graph.

        A message crossing an undeclared lane pair raises instead of
        silently miscomputing, so the graph must be a *superset* of the
        traffic the run can generate — the workload driver and the queue
        pumps know theirs (see
        :meth:`repro.sim.shard.ShardMap.channels_for_client` /
        ``channels_for_pump``); until one is installed the kernel assumes
        the always-sound complete graph.  An empty graph declares the lanes
        fully independent, which lets ``engine="sharded"`` drain them one
        after another.
        """
        self.env.sim.restrict_channels(channels)

    # ------------------------------------------------------------------
    # Service crash-restart (the durable/volatile split, enforced)
    # ------------------------------------------------------------------

    def _durable_acceptor_image(self, store: MultiVersionStore) -> dict[str, tuple]:
        """Decode every ``_paxos/`` row into a comparable snapshot tuple."""
        image: dict[str, tuple] = {}
        for key in store.keys("_paxos/"):
            state = AcceptorState.from_version(store.read(key))
            image[key] = (
                state.next_bal, state.ballot, state.chosen,
                state.value.vote_key if state.value is not None else None,
                state.seq,
            )
        return image

    def _meta_image(self, store: MultiVersionStore) -> dict[str, dict]:
        """Latest attributes of every durable ``_meta/`` intent row."""
        image: dict[str, dict] = {}
        for key in store.keys("_meta/"):
            version = store.read(key)
            if version is not None:
                image[key] = dict(version.attributes)
        return image

    def crash_service(self, datacenter: str, lane: int = 0) -> CrashRecord:
        """Crash one service replica: kill its processes, lose its RAM.

        The replica's node goes down (the network drops its traffic), every
        tracked handler process dies mid-yield, in-flight store operations
        are fenced (their mutations never land, like writes that missed the
        disk), volatile store versions are erased, and the service's
        in-memory state — replica caches, apply locks, leader claims, the
        leased-leader host — is dropped wholesale.  What remains is exactly
        the durable contract: ``_paxos/`` rows, ``_meta/`` intents, and the
        preloaded base image.
        """
        service = self.lane_services[(datacenter, lane)]
        store = self.lane_stores[(datacenter, lane)]
        node = service.node
        depth = self._crash_depth.get((datacenter, lane), 0)
        self._crash_depth[(datacenter, lane)] = depth + 1
        if depth:
            # Nested crash of an already-down replica: nothing new dies,
            # no new snapshot — the window merges into the open record.
            return next(
                r for r in reversed(self.crash_records)
                if r.datacenter == datacenter and r.lane == lane
                and r.restart_ms is None
            )
        record = CrashRecord(
            datacenter=datacenter, lane=lane, crash_ms=self.env.now,
            durable_image=self._durable_acceptor_image(store),
            meta_image=self._meta_image(store),
        )
        service.accessor.fence()
        node.down = True
        record.killed_processes = node.kill_tracked("injected crash")
        node._pending.clear()
        record.erased_versions = store.erase_volatile()
        service.crash_reset()
        self.crash_records.append(record)
        return record

    def restart_service(self, datacenter: str, lane: int = 0) -> CrashRecord:
        """Restart a crashed replica; recover purely from durable state.

        First re-checks the durable image against the crash-time snapshot —
        a down replica accepts no traffic and runs no processes, so *any*
        difference is an amnesia-detector violation.  Then the node comes
        back up, the leased-leader host bumps its incarnation and starts
        its lease wait-out, and one recovery process per durable group
        replays the WAL (Paxos catch-up filling gaps) to rebuild the
        volatile projections.
        """
        service = self.lane_services[(datacenter, lane)]
        store = self.lane_stores[(datacenter, lane)]
        record = next(
            (r for r in reversed(self.crash_records)
             if r.datacenter == datacenter and r.lane == lane
             and r.restart_ms is None),
            None,
        )
        if record is None:
            raise FaultScheduleError(
                f"restart_service({datacenter!r}, lane={lane}) without a "
                f"matching crash"
            )
        depth = self._crash_depth.get((datacenter, lane), 1) - 1
        self._crash_depth[(datacenter, lane)] = depth
        if depth:
            # An overlapping crash window still holds this replica down;
            # only the last matching restart reboots it.
            return record
        violations = self._image_drift(record, store)
        if violations:
            raise InvariantViolation(violations)
        service.node.down = False
        record.restart_ms = self.env.now
        if service.lease_host is not None:
            service.lease_host.on_restart(self.env.now)
        record.recovery_groups = tuple(sorted(service.spawn_recovery()))
        return record

    def _image_drift(self, record: CrashRecord,
                     store: MultiVersionStore) -> list[str]:
        """Durable-state changes between a crash and its restart (must be
        none: the replica was down, so nothing may have written its store)."""
        violations: list[str] = []
        for label, snapshot, current in (
            ("acceptor", record.durable_image, self._durable_acceptor_image(store)),
            ("meta", record.meta_image, self._meta_image(store)),
        ):
            if snapshot == current:
                continue
            changed = sorted(
                key for key in (set(snapshot) | set(current))
                if snapshot.get(key) != current.get(key)
            )
            violations.append(
                f"(amnesia) {store.name}: durable {label} state changed "
                f"while the replica was down "
                f"({record.crash_ms:.0f}..{self.env.now:.0f}ms): "
                f"{changed[:5]}"
            )
        return violations

    def check_crash_amnesia(self) -> list[str]:
        """End-of-run amnesia detector, over every crash of the run.

        For each crash, the durable acceptor state snapshotted at the kill
        instant must still be honoured by the final store: no promise
        (``nextBal``) regression, no ``seq`` regression, no vanished row,
        and every value chosen before the crash still chosen, unchanged.
        Any of these would mean a restarted replica forgot a durable
        promise — the failure mode that lets Paxos double-decide.
        """
        violations: list[str] = []
        for record in self.crash_records:
            store = self.lane_stores[(record.datacenter, record.lane)]
            final = self._durable_acceptor_image(store)
            stamp = f"the crash of {store.name} at {record.crash_ms:.0f}ms"
            for key, snap in sorted(record.durable_image.items()):
                next_bal, _ballot, chosen, vote_key, seq = snap
                now_state = final.get(key)
                if now_state is None:
                    violations.append(
                        f"(amnesia) durable row {key} vanished across {stamp}"
                    )
                    continue
                f_next, _f_ballot, f_chosen, f_vote, f_seq = now_state
                if f_next < next_bal:
                    violations.append(
                        f"(amnesia) {key}: promise regressed "
                        f"{next_bal} -> {f_next} across {stamp}"
                    )
                if seq is not None and (f_seq is None or f_seq < seq):
                    violations.append(
                        f"(amnesia) {key}: seq regressed {seq} -> {f_seq} "
                        f"across {stamp}"
                    )
                if chosen and not f_chosen:
                    violations.append(
                        f"(amnesia) {key}: chosen value forgotten across {stamp}"
                    )
                elif chosen and f_vote != vote_key:
                    violations.append(
                        f"(amnesia) {key}: chosen value changed "
                        f"{vote_key} -> {f_vote} across {stamp}"
                    )
            if record.restart_ms is None:
                violations.append(
                    f"(amnesia) {record.datacenter} lane {record.lane} "
                    f"crashed at {record.crash_ms:.0f}ms and never restarted "
                    f"(recovery must be finite)"
                )
        return violations

    def lane_profile(self) -> "dict[str, list] | None":
        """Per-lane processed events and their share of the total, when the
        kernel drained lane by lane; ``None`` for a single-heap run."""
        events = self.env.sim.lane_events
        if events is None:
            return None
        total = sum(events)
        return {
            "events": list(events),
            "utilization": [count / total if total else 0.0 for count in events],
        }

    def initial_image_for(self, group: str) -> dict[Item, Any]:
        """The initial image one group's serializability checks replay from."""
        return dict(self._initial_images.get(group, {}))

    @property
    def groups(self) -> tuple[str, ...]:
        """Every entity group this cluster has data for, sorted by name."""
        return tuple(sorted(self._groups))

    def service_for(self, datacenter: str, group: str) -> TransactionService:
        """The service endpoint owning *group*'s log in *datacenter*."""
        return self.lane_services[(datacenter, self.shard_map.lane_of(group))]

    def replicas(self, group: str) -> list[LogReplica]:
        """Every datacenter's log replica for *group*."""
        return [
            self.service_for(dc, group).replica(group)
            for dc in self.topology.names
        ]

    # ------------------------------------------------------------------
    # Offline verification
    # ------------------------------------------------------------------

    def finalize(self, group: str) -> dict[int, LogEntry]:
        """Complete every replica's log knowledge by direct inspection.

        A value is decided iff some replica recorded it as chosen or a
        majority of replicas accepted it at one ballot.  Decided values are
        recorded at every replica (what APPLY / catch-up would eventually
        do), so the invariant checkers see the full picture.  Returns the
        global log.
        """
        replicas = self.replicas(group)
        decided: dict[int, LogEntry] = {}
        positions: set[int] = set()
        prefix = paxos_group_prefix(group)
        for replica in replicas:
            for key in replica.store.keys(prefix):
                positions.add(int(key[len(prefix):]))
        lane = self.shard_map.lane_of(group)
        for position in sorted(positions):
            entry = self._decided_value(paxos_row_key(group, position), lane)
            if entry is not None:
                decided[position] = entry
        for position, entry in decided.items():
            for replica in replicas:
                replica.record_chosen(position, entry)
        return {pos: entry for pos, entry in sorted(decided.items())}

    def _lane_store_grid(self, lane: int) -> list[MultiVersionStore]:
        """One lane's store partition in every datacenter."""
        return [self.lane_stores[(dc, lane)] for dc in self.topology.names]

    def _decided_value(self, row_key: str, lane: int = 0) -> LogEntry | None:
        """The provably decided value of one Paxos instance, by inspection.

        A value is decided iff some replica recorded it as chosen, or a
        majority of replicas hold it accepted at one ballot — the criterion
        :meth:`finalize` and :meth:`cross_group_decisions` share.  The
        instance's rows live in *lane*'s store partitions.
        """
        votes: Counter = Counter()
        candidates: dict[tuple, LogEntry] = {}
        for store in self._lane_store_grid(lane):
            version = store.read(row_key)
            if version is None:
                continue
            if version.get(ATTR_CHOSEN):
                return version.get(ATTR_VALUE)
            value = version.get(ATTR_VALUE)
            ballot = version.get(ATTR_BALLOT)
            if value is not None and ballot is not None:
                key = (ballot, value.vote_key)
                votes[key] += 1
                candidates[key] = value
        for key, count in votes.items():
            if count >= self.topology.majority:
                return candidates[key]
        return None

    def _highest_vote(self, row_key: str, lane: int = 0) -> LogEntry | None:
        """The highest-ballot accepted value of one Paxos instance, if any.

        The standard recovery proposal: with *every* replica visible, any
        already-chosen value necessarily equals the overall highest-ballot
        vote (a higher-ballot acceptance can only carry a chosen value
        forward), so completing the instance with this value never changes
        a decided outcome.
        """
        best_ballot = None
        best_value: LogEntry | None = None
        for store in self._lane_store_grid(lane):
            version = store.read(row_key)
            if version is None:
                continue
            value = version.get(ATTR_VALUE)
            ballot = version.get(ATTR_BALLOT)
            if value is None or ballot is None:
                continue
            if best_ballot is None or ballot > best_ballot:
                best_ballot, best_value = ballot, value
        return best_value

    def finalize_all(self) -> dict[str, dict[int, LogEntry]]:
        """:meth:`finalize` every group; returns ``{group: global log}``."""
        return {group: self.finalize(group) for group in self.groups}

    # ------------------------------------------------------------------
    # Cross-group (2PC) status, recovery, and verification
    # ------------------------------------------------------------------

    def cross_group_decisions(self) -> dict[str, bool]:
        """Durable 2PC decisions, ``{gtid: committed}``, by direct inspection.

        A decision is durable iff its single-slot Paxos instance is decided:
        chosen at some replica, or accepted at one ballot by a majority —
        the same criterion :meth:`finalize` applies to log positions
        (:meth:`_decided_value`).  Undecided transactions are simply absent
        (see :meth:`recover_cross_group`).
        """
        prefix = paxos_group_prefix(DECISION_GROUP_ROOT)
        decisions: dict[str, bool] = {}
        gtids: set[str] = set()
        for store in self.stores.values():
            for key in store.keys(prefix):
                gtids.add(key[len(prefix):].rsplit("/", 1)[0])
        for gtid in sorted(gtids):
            entry = self._decided_value(paxos_row_key(decision_group(gtid), 1))
            if entry is not None:
                decisions[gtid] = entry.kind == "commit"
        return decisions

    def recover_cross_group(
        self, logs: dict[str, dict[int, LogEntry]]
    ) -> dict[str, bool]:
        """Resolve every in-doubt 2PC transaction; returns the decision map.

        A prepare whose decision instance is still undecided after the run
        belongs to a coordinator that crashed mid-protocol.  Recovery
        completes the instance the way a Paxos recovery proposer would: if
        any replica holds an accepted value, that value (at the highest
        ballot) is adopted — a COMMIT the coordinator drove to an accept
        quorum but never saw acknowledged survives, never flips to abort
        (see :meth:`_highest_vote` for why this preserves any chosen value).
        Only an instance no acceptor ever voted in is presumed ABORT — no
        client can have been told COMMIT, and with the run over nobody else
        can propose it.  All participant groups then follow the one
        decision: all-or-nothing by construction.
        """
        decisions = self.cross_group_decisions()
        orphans: dict[str, tuple[str, ...]] = {}
        for log in logs.values():
            for entry in log.values():
                if entry.kind == "prepare" and entry.gtid not in decisions:
                    orphans[entry.gtid or ""] = entry.participants
        for gtid, participants in sorted(orphans.items()):
            resolution = self._highest_vote(paxos_row_key(decision_group(gtid), 1))
            if resolution is None:
                resolution = LogEntry.marker(False, gtid, participants)
            committed = resolution.kind == "commit"
            record = TransactionStatusRecord(
                gtid=gtid, committed=committed, participants=participants
            )
            for dc in self.topology.names:
                self.services[dc].replica(decision_group(gtid)).record_chosen(
                    1, resolution
                )
                TxnStatusTable(self.stores[dc]).record(record)
            decisions[gtid] = committed
        return decisions

    # ------------------------------------------------------------------
    # Asynchronous cross-group queues: pumps, offline drain, statistics
    # ------------------------------------------------------------------

    def start_queue_pump(
        self,
        group: str,
        poll_ms: float | None = None,
        idle_stop_after: int = 200,
    ):
        """Spawn a delivery pump for *group*'s outgoing queue messages.

        The pump runs in the group's home datacenter (durable progress in
        that store) and terminates once the log stays quiet for
        ``idle_stop_after`` polls, so :meth:`run` still drains.  Returns the
        pump's simulation :class:`~repro.sim.process.Process` — the fault
        injector can kill it mid-flight, and calling this method again
        starts a fresh pump that resumes from the durable watermark.
        ``poll_ms`` defaults to :attr:`ProtocolConfig.queue_poll_ms`.
        """
        if poll_ms is None:
            poll_ms = self.config.protocol.queue_poll_ms
        home = self.placement.home_of(group, self.home_dc)
        lane = self.shard_map.lane_of(group)
        self._pump_counter += 1
        pump = QueueDeliveryPump(
            self.env, self.network, home,
            name=f"pump:{group}:{self._pump_counter}",
            sender_group=group,
            store=self.lane_stores[(home, lane)],
            service_names=ordered_service_names(list(self.topology.names), home),
            config=self.config.protocol,
            shard_map=self.shard_map if not self.shard_map.single_lane else None,
            datacenters=list(self.topology.names),
        )
        self._pumps.append((group, pump))
        return self.env.process(
            pump.run(poll_ms=poll_ms, idle_stop_after=idle_stop_after),
            name=pump.node.name,
            lane=lane,
        )

    def start_queue_pumps(
        self, poll_ms: float | None = None, idle_stop_after: int = 200
    ) -> dict[str, Any]:
        """One delivery pump per placement group; ``{group: process}``.

        Call before :meth:`run` (alongside the workload drivers).  Groups
        outside the placement (ad-hoc names handed to :meth:`preload`) get
        pumps too if they already hold data.
        """
        groups = set(self.placement.groups) | self._groups
        return {
            group: self.start_queue_pump(group, poll_ms, idle_stop_after)
            for group in sorted(groups)
        }

    def drain_queues(
        self,
        logs: dict[str, dict[int, LogEntry]],
        decisions: dict[str, bool],
    ) -> int:
        """Complete every undelivered queue send, offline; returns the count.

        The queue analogue of :meth:`recover_cross_group`: after the run,
        any send the pump had not confirmed (pump crashed, idle-stopped, or
        partitioned away from a quorum) is applied by direct inspection —
        its ``queue_apply`` entry is recorded at every replica at the
        receiver's next free position, in stream order, skipping seqnos the
        log already holds.  Deterministic and idempotent: a second drain
        finds nothing left to do.  *logs* must hold every receiver group's
        log; the drained entries are added to it.
        """
        drained = 0
        next_free: dict[str, int] = {}
        for sender in sorted(logs):
            streams = enumerate_sends(sender, logs[sender], decisions)
            for receiver, sends in sorted(streams.items()):
                present = first_applies(logs[receiver], sender)
                for send in sends:
                    if (sender, send.seqno) in present:
                        continue
                    position = next_free.get(
                        receiver, max(logs[receiver], default=0) + 1
                    )
                    entry = build_queue_apply(
                        sender, receiver, send.seqno,
                        QueueSend(target_group=receiver, writes=send.writes),
                        origin=DRAIN_ORIGIN, origin_dc=self.home_dc,
                    )
                    for dc in self.topology.names:
                        self.service_for(dc, receiver).replica(receiver).record_chosen(
                            position, entry
                        )
                    logs[receiver][position] = entry
                    next_free[receiver] = position + 1
                    drained += 1
        self._queue_drained += drained
        return drained

    def queue_stats(
        self,
        logs: dict[str, dict[int, LogEntry]],
        decisions: dict[str, bool],
        stall_threshold_ms: float = 1000.0,
    ) -> QueueStats:
        """Aggregate queue-delivery statistics for the finished run.

        The applied/drained split is derived from the *logs* (the drain's
        entries carry a sentinel origin), never from pump bookkeeping
        alone — a pump killed after its append was chosen but before it
        could confirm still counts as an online delivery.  A send counts
        as **stalled** when it was committed but not applied within
        ``stall_threshold_ms`` of the pump first observing it — including
        every send only the offline drain completed, and any send still
        undelivered in the supplied logs (no drain ran).  Stalls are the
        queue path's availability failure mode and the report surfaces
        them as their own condition.
        """
        stats = QueueStats(stall_threshold_ms=stall_threshold_ms)
        for sender in sorted(logs):
            for sends in enumerate_sends(sender, logs[sender], decisions).values():
                stats.sends += len(sends)
        for receiver in sorted(logs):
            log = logs[receiver]
            for position in first_applies(log).values():
                if log[position].transactions[0].origin == DRAIN_ORIGIN:
                    stats.drained_offline += 1
                else:
                    stats.applied_online += 1
        # Lag is only known for messages a pump *confirmed*; a restarted
        # pump re-confirms its predecessor's unrecorded tail, so dedupe the
        # records per stream slot, keeping the earliest confirmation.
        confirmed: dict[tuple[str, str, int], Any] = {}
        for _group, pump in self._pumps:
            stats.max_depth = max(stats.max_depth, pump.max_depth)
            for record in pump.delivered:
                key = (record.sender_group, record.receiver_group, record.seqno)
                kept = confirmed.get(key)
                if kept is None or record.applied_ms < kept.applied_ms:
                    confirmed[key] = record
        lags = [record.lag_ms for record in confirmed.values()]
        if lags:
            total = 0.0
            for lag in lags:  # left to right: builtin sum() compensates on 3.12+
                total += lag
            stats.mean_lag_ms = total / len(lags)
            stats.max_lag_ms = max(lags)
        stats.undelivered = max(
            0, stats.sends - stats.applied_online - stats.drained_offline
        )
        stats.stalled = stats.drained_offline + stats.undelivered + sum(
            1 for lag in lags if lag > stall_threshold_ms
        )
        return stats

    def _check_delivery_records(
        self, logs: dict[str, dict[int, LogEntry]],
        decisions: dict[str, bool],
    ) -> list[str]:
        """Sanity of the durable receiver records against the logs.

        Every seqno a datacenter marked applied must name a send the stream
        actually committed — a phantom mark would let the dedup layer
        swallow a legitimate future message.
        """
        violations: list[str] = []
        expected: dict[tuple[str, str], set[int]] = {}
        for sender in sorted(logs):
            for receiver, sends in enumerate_sends(
                sender, logs[sender], decisions
            ).items():
                expected[(receiver, sender)] = {send.seqno for send in sends}
        for dc in self.topology.names:
            for receiver in sorted(logs):
                # Delivery marks live in the receiver group's store
                # partition; the scan unions the whole lane grid so the
                # phantom check sees every mark regardless of partition.
                recorded: dict[str, set[int]] = {}
                for lane in range(self.shard_map.n_lanes):
                    table = DeliveryTable(self.lane_stores[(dc, lane)])
                    for sender, seqnos in table.streams_into(receiver).items():
                        recorded.setdefault(sender, set()).update(seqnos)
                for sender, seqnos in recorded.items():
                    extra = seqnos - expected.get((receiver, sender), set())
                    if extra:
                        violations.append(
                            f"(queue) {dc} marked seqnos {sorted(extra)} of "
                            f"stream {sender}->{receiver} applied, but the "
                            f"sender log never committed them"
                        )
        return violations

    def check_cross_group_invariants(
        self,
        outcomes: list[TransactionOutcome],
        logs: dict[str, dict[int, LogEntry]],
        decisions: dict[str, bool],
    ) -> None:
        """The 2PC obligations, over the finalized logs and decision map.

        * **atomicity** — a COMMIT decision requires a chosen prepare in
          *every* participant group (never a proper subset); a reported
          commit requires a COMMIT decision and a reported (decisive) abort
          an ABORT decision;
        * **no orphaned prepare** — every prepare's gtid is decided (checked
          per group by :func:`repro.wal.invariants.check_no_orphaned_prepares`;
          re-checked here across groups);
        * **marker agreement** — every in-log commit/abort marker matches
          the durable decision.

        Global one-copy serializability over the merged history is the MVSG
        pass's job (:meth:`check_invariants_all`).
        """
        violations: list[str] = []
        prepared: dict[str, dict[str, int]] = {}
        participants: dict[str, tuple[str, ...]] = {}
        for group, log in sorted(logs.items()):
            for position, entry in sorted(log.items()):
                if entry.kind == "prepare":
                    gtid = entry.gtid or ""
                    prepared.setdefault(gtid, {})[group] = position
                    participants.setdefault(gtid, entry.participants)
                    if gtid not in decisions:
                        violations.append(
                            f"(2PC) orphaned prepare for {gtid} in {group} "
                            f"at position {position}"
                        )
                elif entry.is_marker:
                    committed = decisions.get(entry.gtid or "")
                    if committed is None or committed != (entry.kind == "commit"):
                        violations.append(
                            f"(2PC) marker {entry} in {group} at position "
                            f"{position} disagrees with the durable decision "
                            f"({committed})"
                        )
        for gtid, committed in sorted(decisions.items()):
            if not committed:
                continue
            expected = set(participants.get(gtid, ()))
            got = set(prepared.get(gtid, {}))
            if expected and got != expected:
                violations.append(
                    f"(2PC) {gtid} decided COMMIT but only "
                    f"{sorted(got)} of {sorted(expected)} groups hold its prepare"
                )
        for outcome in outcomes:
            txn = outcome.transaction
            if not txn.is_cross_group or not txn.groups:
                continue
            decided = decisions.get(txn.tid)
            if outcome.status is TransactionStatus.COMMITTED and decided is not True:
                violations.append(
                    f"(2PC) {txn.tid} reported committed but the durable "
                    f"decision is {decided}"
                )
            if (
                outcome.status is TransactionStatus.ABORTED
                and outcome.abort_reason is AbortReason.PREPARE_FAILED
                and decided is True
            ):
                violations.append(
                    f"(2PC) {txn.tid} reported a decisive abort but the "
                    f"durable decision is COMMIT"
                )
        if violations:
            raise InvariantViolation(violations)

    def check_invariants_all(
        self,
        outcomes: list[TransactionOutcome],
        logs: dict[str, dict[int, LogEntry]],
        strict_timeouts: bool = False,
    ) -> dict[str, bool]:
        """Run every correctness check of the run; raise on any violation.

        *logs* is :meth:`finalize_all`'s result, ``{group: finalized log}``;
        every check reads these logs and none re-derives them.  Outcomes are
        routed to their transaction's group.  The checks run, and raise, in
        this order:

        1. in-doubt 2PC transactions are resolved (:meth:`recover_cross_group`)
           and, in runs with queue traffic, undelivered sends are drained into
           *logs* (:meth:`drain_queues` — eventual delivery is an obligation
           *at quiescence*);
        2. no transaction is logged in more than one group;
        3. per group, in name order, (R1), (L1)-(L3) — (SI) in place of (L3)
           under snapshot isolation — read-only consistency and no orphaned
           prepare (:func:`repro.wal.invariants.run_all_checks`);
        4. the crash amnesia detector (:meth:`check_crash_amnesia`);
        5. when the run holds cross-group or queue entries, the 2PC
           obligations (:meth:`check_cross_group_invariants`), then the
           delivery invariant: every committed send applied exactly once at
           its receiver, in sender order, redeliveries byte-identical shadows,
           no phantom durable delivery marks;
        6. the MVSG pass (:meth:`_check_histories`).

        ``strict_timeouts=False`` (default) excludes transactions aborted
        with TIMEOUT / CLIENT_CRASH / SERVICE_UNAVAILABLE from the L1 "not
        in the log" side: the paper explicitly allows a transaction whose
        client failed mid-protocol to be committed or aborted (§4.1), and a
        timed-out client is indistinguishable from a failed one.

        Returns the resolved 2PC decision map, for :meth:`queue_stats`.
        """
        lenient = () if strict_timeouts else (
            AbortReason.TIMEOUT,
            AbortReason.CLIENT_CRASH,
            AbortReason.SERVICE_UNAVAILABLE,
        )
        by_group: dict[str, list[TransactionOutcome]] = {group: [] for group in logs}
        cross_outcomes: list[TransactionOutcome] = []
        for outcome in outcomes:
            if outcome.transaction.is_cross_group:
                cross_outcomes.append(outcome)
            elif not (
                outcome.status is TransactionStatus.ABORTED
                and outcome.abort_reason in lenient
            ):
                by_group[outcome.transaction.group].append(outcome)
        decisions = self.recover_cross_group(logs)
        queue_active = any(
            entry.kind == "queue_apply" or entry.queue_sends
            for log in logs.values() for entry in log.values()
        )
        if queue_active:
            self.drain_queues(logs, decisions)
        seen_tids: dict[str, str] = {}
        cross_group: list[str] = []
        for group, log in logs.items():
            for position, entry in log.items():
                for txn in entry.transactions:
                    # Intra-group duplicates are (L2)'s job, with positions.
                    if seen_tids.setdefault(txn.tid, group) != group:
                        cross_group.append(
                            f"(groups) {txn.tid} is logged in both "
                            f"{seen_tids[txn.tid]} and {group}"
                        )
        if cross_group:
            raise InvariantViolation(cross_group)
        for group in sorted(logs):
            run_all_checks(
                logs[group], self.replicas(group), by_group[group],
                self._initial_images.get(group, {}), decisions,
                isolation=self.config.isolation,
            )
        amnesia = self.check_crash_amnesia()
        if amnesia:
            raise InvariantViolation(amnesia)
        if cross_outcomes or any(
            entry.kind != "data" for log in logs.values() for entry in log.values()
        ):
            self.check_cross_group_invariants(cross_outcomes, logs, decisions)
        if queue_active:
            violations = check_queue_delivery(logs, decisions)
            violations += self._check_delivery_records(logs, decisions)
            if violations:
                raise InvariantViolation(violations)
        self._check_histories(logs, decisions)
        return decisions

    def _check_histories(
        self,
        logs: dict[str, dict[int, LogEntry]],
        decisions: dict[str, bool],
    ) -> None:
        """The MVSG pass: each group's history is built once, used, and
        dropped before the next is built.

        * Under snapshot isolation an acyclic MVSG is not owed: the cycles
          are classified into :attr:`anomalies` instead of failing the run,
          and no MVSG test runs.
        * When a committed 2PC branch links two groups (the branch → gtid
          rename map is non-empty), one MVSG test runs over the merged
          history: branches collapse into their global transaction and items
          are namespaced by group, so its cycles include every per-group
          cycle (:func:`~repro.serializability.checker.merge_group_histories`).
        * Otherwise the groups share no transaction — queue applies are
          transactions of their receiver alone — and the merged graph is
          the disjoint union of the group graphs, so one test per group
          gives the same verdict on smaller graphs.
        """
        def history(group: str) -> MVHistory:
            return MVHistory.from_log(
                effective_log(logs[group], decisions),
                self._initial_images.get(group, {}),
            )

        self._anomalies = []
        if self.config.isolation == "si":
            from repro.serializability.checker import classify_anomalies

            for group in sorted(logs):
                self._anomalies.extend(classify_anomalies(history(group)).anomalies)
            return
        rename = {
            entry.transactions[0].tid: entry.gtid or ""
            for log in logs.values() for entry in log.values()
            if entry.kind == "prepare" and decisions.get(entry.gtid or "")
        }
        if rename:
            merged = merge_group_histories(
                ((group, history(group)) for group in sorted(logs)), rename
            )
            ok, cycle = is_one_copy_serializable(merged)
            if not ok:
                raise InvariantViolation(
                    [f"(2PC) global MVSG test failed: cycle {cycle} in the "
                     f"merged cross-group history"]
                )
            return
        for group in sorted(logs):
            ok, cycle = is_one_copy_serializable(history(group))
            if not ok:
                raise InvariantViolation(
                    [f"MVSG test failed: cycle {cycle} in the observed history"]
                )

    def anomaly_counts(self) -> dict[str, int]:
        """``{anomaly kind: count}`` of the last invariant pass, sorted by
        kind — the shape :class:`repro.harness.metrics.RunMetrics` carries."""
        counts = Counter(anomaly.kind for anomaly in self._anomalies)
        return dict(sorted(counts.items()))
