"""Micro-benchmarks of the hot paths under the experiments.

These use pytest-benchmark's statistical looping (unlike the figure
benches, which run one deterministic simulation per invocation) and exist
to catch pathological slowdowns in the substrate — a 10× regression in
``check_and_write`` or MVSG construction quietly multiplies every figure's
wall-clock time.
"""

import random

from repro.core.combine import best_combination, greedy_combination
from repro.kvstore.service import StoreAccessor
from repro.kvstore.store import MultiVersionStore
from repro.net.latency import RttMatrixLatency
from repro.net.network import Network
from repro.net.node import Node
from repro.net.topology import cluster_preset
from repro.paxos.acceptor import ATTR_SEQ, Acceptor
from repro.paxos.ballot import Ballot
from repro.paxos.messages import PREPARE, PreparePayload
from repro.serializability.checker import is_one_copy_serializable
from repro.serializability.history import HistoryTxn, MVHistory
from repro.sim.env import Environment
from repro.wal.log import ATTR_BALLOT, ATTR_NEXT_BAL, ATTR_VALUE, paxos_row_key
from tests.helpers import txn


class TestStoreOps:
    def test_write_throughput(self, benchmark):
        store = MultiVersionStore("bench")
        counter = iter(range(10_000_000))

        def op():
            store.write(f"k{next(counter) % 64}", {"a": 1})

        benchmark(op)

    def test_read_at_timestamp(self, benchmark):
        store = MultiVersionStore("bench")
        for ts in range(1, 501):
            store.write("k", {"a": ts}, timestamp=ts)
        benchmark(lambda: store.read("k", timestamp=250))

    def test_check_and_write(self, benchmark):
        store = MultiVersionStore("bench")
        store.write("k", {"flag": 0})
        state = {"value": 0}

        def op():
            ok = store.check_and_write("k", "flag", state["value"],
                                       {"flag": state["value"] + 1})
            assert ok
            state["value"] += 1

        benchmark(op)

    def test_acceptor_check_and_write(self, benchmark):
        """The acceptor's vote: a ``check_and_write`` guarded on ``seq`` into
        a ``_paxos/`` row that already holds a version, the shape of every
        acceptor state transition.  The row is dropped and recreated every
        1000 writes, so the store stays small however long the benchmark
        runs."""
        store = MultiVersionStore("bench")
        key = paxos_row_key("g", 1)
        ballot = Ballot(1, "bench")
        counter = iter(range(10_000_000))

        def op():
            seq = next(counter) % 1000
            if seq == 0:
                store.erase_volatile(durable_prefixes=())
                store.write(key, {ATTR_NEXT_BAL: None, ATTR_SEQ: 0})
            assert store.check_and_write(key, ATTR_SEQ, seq, {
                ATTR_NEXT_BAL: ballot, ATTR_BALLOT: ballot,
                ATTR_VALUE: seq, ATTR_SEQ: seq + 1,
            })

        benchmark(op)

    # A data row: 100 attributes, of which each transaction writes a few.
    WIDE_IMAGE = {f"a{index}": index for index in range(100)}

    def test_wide_row_write(self, benchmark):
        """A two-attribute write into a 100-attribute row, the shape of a
        data-row apply.  The row is reset to its preloaded image every 1000
        writes, so the store stays small however long the benchmark runs."""
        store = MultiVersionStore("bench")
        store.write("row", self.WIDE_IMAGE, timestamp=0)
        counter = iter(range(10_000_000))

        def op():
            n = next(counter)
            if n % 1000 == 999:
                store.erase_volatile()
            store.write("row", {f"a{n % 100}": n, f"a{(n + 50) % 100}": n})

        benchmark(op)

    def test_wide_row_read_at_timestamp(self, benchmark):
        """One attribute of a 100-attribute row at a past timestamp, the
        shape of a transaction's read at its read position."""
        store = MultiVersionStore("bench")
        store.write("row", self.WIDE_IMAGE, timestamp=0)
        for ts in range(1, 501):
            store.write("row", {f"a{ts % 100}": ts, f"a{(ts + 50) % 100}": ts},
                        timestamp=ts)
        assert store.read_attribute("row", "a7", timestamp=250) == 207
        benchmark(lambda: store.read_attribute("row", "a7", timestamp=250))


class TestSimKernel:
    def test_event_scheduling_throughput(self, benchmark):
        def run_1000_timeouts():
            env = Environment(seed=0)
            for index in range(1000):
                env.timeout(float(index % 17))
            env.run()

        benchmark(run_1000_timeouts)

    def test_process_switching(self, benchmark):
        def run_ping_pong():
            env = Environment(seed=0)

            def worker():
                for _ in range(100):
                    yield env.timeout(1.0)

            for _ in range(10):
                env.process(worker())
            env.run()

        benchmark(run_ping_pong)


class TestMessageRoundTrip:
    ROUND_TRIPS = 1000
    TIMEOUT_MS = 2000.0  # ``Node.request``'s default, the paper's 2 s

    def test_request_reply(self, benchmark):
        """Request → instant handler → reply over ``Node`` and ``Network``
        alone: two messages per round trip and nothing else, so this reads
        what one message costs — building it, sending it, delivering it and
        settling its reply slot."""

        def run_round_trips():
            env = Environment(seed=0)
            topology = cluster_preset("VVV")
            network = Network(env, topology, RttMatrixLatency(topology))
            client = Node(env, network, "client", "V1")
            server = Node(env, network, "server", "V2")
            server.on("echo", lambda msg: msg.payload)

            def requester():
                for index in range(self.ROUND_TRIPS):
                    reply = yield client.request("server", "echo", index)
                    assert reply.payload == index
                return env.now

            process = env.process(requester())
            env.run()
            return env.sim.processed_events, process.value

        events, duration_ms = benchmark(run_round_trips)
        # Per round trip two simulated delays — the request's delivery and
        # the reply's — plus the requester's bootstrap and completion and
        # the deadline FIFO's head pops (see TestHandlerRoundTrip).
        head_pops = int(duration_ms // self.TIMEOUT_MS) + 1
        assert events == 2 * self.ROUND_TRIPS + 2 + head_pops
        if benchmark.stats:  # None under --benchmark-disable
            benchmark.extra_info["msgs_per_s"] = round(
                2 * self.ROUND_TRIPS / benchmark.stats.stats.median
            )


class TestHandlerRoundTrip:
    ROUND_TRIPS = 500
    TIMEOUT_MS = 2000.0  # ``Node.request``'s default, the paper's 2 s

    def test_request_store_op_reply(self, benchmark):
        """Request → one store operation → reply over ``Node`` and
        ``StoreAccessor`` alone, no protocol above: the path every service
        handler takes, and the kernel-event budget it is held to."""

        def run_round_trips():
            env = Environment(seed=0)
            topology = cluster_preset("VVV")
            network = Network(env, topology, RttMatrixLatency(topology))
            client = Node(env, network, "client", "V1")
            server = Node(env, network, "server", "V2")
            accessor = StoreAccessor(env, MultiVersionStore("server"))
            accessor.store.write("row", {"a": 1})

            def handler(msg):
                version = yield accessor.read("row")
                return version.get("a")

            server.on("read", handler)

            def requester():
                for _ in range(self.ROUND_TRIPS):
                    reply = yield client.request("server", "read")
                    assert reply.payload == 1
                return env.now

            process = env.process(requester())
            env.run()
            return env.sim.processed_events, process.value

        events, duration_ms = benchmark(run_round_trips)
        # Per round trip three simulated delays — request delivery, store
        # latency, reply delivery — and no deadline: an answered request's
        # timeout waits in the client's FIFO and is dropped unpopped.  The
        # requester's own bootstrap and completion are two more.  What is
        # left of the deadlines is the FIFO's head: armed by the first
        # request, and re-armed at each pop for the request then in flight,
        # which started at most one round trip earlier — one pop per
        # timeout's worth of simulated time, plus the first.
        head_pops = int(duration_ms // self.TIMEOUT_MS) + 1
        assert events == 3 * self.ROUND_TRIPS + 2 + head_pops
        if benchmark.stats:  # None under --benchmark-disable
            benchmark.extra_info["round_trips_per_s"] = round(
                self.ROUND_TRIPS / benchmark.stats.stats.median
            )


class TestAcceptorRoundTrip:
    ROUND_TRIPS = 200
    TIMEOUT_MS = 2000.0  # ``Node.request_many``'s default

    def test_prepare_read_check_and_write_reply(self, benchmark):
        """PREPARE to three acceptors, each answering with one read and one
        ``checkAndWrite`` over the calibrated store latency: the replica side
        of every Paxos phase, undiluted by a client or a checker."""

        def run_round_trips():
            env = Environment(seed=0)
            topology = cluster_preset("VVV")
            network = Network(env, topology, RttMatrixLatency(topology))
            proposer = Node(env, network, "proposer", "V1")
            acceptors = []
            for datacenter in topology.names:
                node = Node(env, network, f"acceptor@{datacenter}", datacenter)
                acceptor = Acceptor(StoreAccessor(env, MultiVersionStore(datacenter)))
                node.on(PREPARE, lambda msg, a=acceptor: a.on_prepare(msg.payload))
                acceptors.append(node.name)
            ballot = Ballot(1, "proposer")

            def prepares():
                for position in range(1, self.ROUND_TRIPS + 1):
                    responses = yield proposer.request_many(
                        acceptors, PREPARE, PreparePayload("g", position, ballot),
                    )
                    assert [r.payload.success for r in responses] == [True] * 3
                return env.now

            process = env.process(prepares())
            env.run()
            return env.sim.processed_events, process.value

        events, duration_ms = benchmark(run_round_trips)
        # Per round trip twelve simulated delays — three request deliveries,
        # a read and a checkAndWrite at each acceptor, three reply
        # deliveries — plus the proposer's bootstrap and completion and the
        # deadline FIFO's head pops (see TestHandlerRoundTrip).
        head_pops = int(duration_ms // self.TIMEOUT_MS) + 1
        assert events == 12 * self.ROUND_TRIPS + 2 + head_pops
        if benchmark.stats:  # None under --benchmark-disable
            benchmark.extra_info["round_trips_per_s"] = round(
                self.ROUND_TRIPS / benchmark.stats.stats.median
            )


class TestCombination:
    def setup_method(self):
        rng = random.Random(1)
        self.own = txn("me", reads={"a": 0}, writes={"b": 1})
        self.candidates = [
            txn(
                f"o{i}",
                reads={rng.choice("abcdef"): 0},
                writes={rng.choice("abcdef"): 1},
            )
            for i in range(4)
        ]

    def test_exhaustive_search(self, benchmark):
        benchmark(lambda: best_combination(self.own, self.candidates))

    def test_greedy_search(self, benchmark):
        many = self.candidates * 5
        benchmark(lambda: greedy_combination(self.own, many))


def fresh_read_history(n_transactions: int, n_attributes: int, ops: int) -> MVHistory:
    """A serial history over one row: every transaction reads the latest
    version of *ops* attributes and overwrites *ops* others."""
    items = [("row0", f"a{index}") for index in range(n_attributes)]
    rng = random.Random(2)
    history = MVHistory()
    last = {item: None for item in items}
    for index in range(n_transactions):
        tid = f"t{index}"
        reads = tuple((item, last[item]) for item in rng.sample(items, ops))
        writes = tuple(rng.sample(items, ops))
        history.add(HistoryTxn(tid, reads=reads, writes=writes))
        for item in writes:
            history.version_order.setdefault(item, []).append(tid)
            last[item] = tid
    return history


class TestSerializabilityOracle:
    def test_mvsg_check_60_txns(self, benchmark):
        history = fresh_read_history(60, n_attributes=8, ops=2)
        ok, _ = benchmark(lambda: is_one_copy_serializable(history))
        assert ok

    def test_mvsg_check_hot_row_2000_txns(self, benchmark):
        """The Figure 7 shape: ~100 versions per attribute, where the
        textbook graph's reads × versions edges dominated a run."""
        history = fresh_read_history(2000, n_attributes=100, ops=5)
        ok, _ = benchmark(lambda: is_one_copy_serializable(history))
        assert ok


class TestFullCommit:
    def test_single_commit_round_trip(self, benchmark):
        """One complete uncontended Paxos-CP commit, end to end."""

        def run_commit():
            from repro.cluster import Cluster
            from repro.config import ClusterConfig, StoreConfig

            cluster = Cluster(ClusterConfig(
                cluster_code="VVV", store=StoreConfig.instant(), jitter=0.0,
            ))
            cluster.preload("g", {"row0": {"a": 0}})
            client = cluster.add_client("V1", protocol="paxos-cp")

            def app():
                handle = yield from client.begin("g")
                value = yield from client.read(handle, "row0", "a")
                client.write(handle, "row0", "a", value + 1)
                return (yield from client.commit(handle))

            process = cluster.env.process(app())
            cluster.run()
            assert process.value.committed

        benchmark(run_commit)
