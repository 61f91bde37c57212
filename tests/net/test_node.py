"""Tests for request/response correlation and quorum gathering."""

import collections.abc

import pytest

from repro.errors import ProcessKilled
from repro.net.latency import ConstantLatency
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import Gather, Node
from repro.net.topology import cluster_preset
from repro.sim.env import Environment
from repro.sim.process import Process
from repro.sim.sync import Lock


def build(env, delay=1.0, loss=0.0):
    topology = cluster_preset("VVVOC")
    network = Network(env, topology, ConstantLatency(delay), loss_probability=loss)
    return network


class TestMessageEnvelope:
    def test_reply_swaps_endpoints_and_echoes_request_id(self):
        msg = Message(src="a", dst="b", type="read", payload=1, request_id=7)
        reply = msg.reply("value")
        assert reply.src == "b" and reply.dst == "a"
        assert reply.request_id == 7
        assert reply.is_response
        assert reply.type == "read.response"

    def test_reply_to_fire_and_forget_rejected(self):
        msg = Message(src="a", dst="b", type="apply")
        with pytest.raises(ValueError):
            msg.reply(None)

    def test_message_ids_unique(self):
        first = Message(src="a", dst="b", type="t")
        second = Message(src="a", dst="b", type="t")
        assert first.msg_id != second.msg_id


class TestRequestResponse:
    def test_sync_handler_reply(self, env):
        network = build(env)
        server = Node(env, network, "server", "V1")
        client = Node(env, network, "client", "V2")
        server.on("double", lambda msg: msg.payload * 2)

        def proc():
            reply = yield client.request("server", "double", 21)
            return reply.payload

        process = env.process(proc())
        env.run()
        assert process.value == 42

    def test_generator_handler_reply(self, env):
        network = build(env)
        server = Node(env, network, "server", "V1")
        client = Node(env, network, "client", "V2")

        def handler(msg):
            yield env.timeout(5.0)
            return msg.payload + 1

        server.on("inc", handler)

        def proc():
            reply = yield client.request("server", "inc", 1)
            return (reply.payload, env.now)

        process = env.process(proc())
        env.run()
        value, finished = process.value
        assert value == 2
        assert finished == 1.0 + 5.0 + 1.0  # out + service + back

    def test_handler_exception_escapes_loudly(self, env):
        network = build(env)
        server = Node(env, network, "server", "V1")
        client = Node(env, network, "client", "V2")

        def handler(msg):
            yield env.timeout(1.0)
            raise RuntimeError("handler blew up")

        server.on("bad", handler)

        def proc():
            yield client.request("server", "bad", None, timeout_ms=50)

        env.process(proc())
        with pytest.raises(RuntimeError, match="handler blew up"):
            env.run()

    def test_duplicate_handler_registration_rejected(self, env):
        network = build(env)
        node = Node(env, network, "n", "V1")
        node.on("x", lambda m: None)
        with pytest.raises(ValueError):
            node.on("x", lambda m: None)

    def test_down_node_does_not_reply(self, env):
        network = build(env)
        server = Node(env, network, "server", "V1")
        client = Node(env, network, "client", "V2")

        def handler(msg):
            yield env.timeout(1.0)
            server.down = True
            return "too late"

        server.on("q", handler)

        def proc():
            reply = yield client.request("server", "q", None, timeout_ms=100)
            return reply

        process = env.process(proc())
        env.run()
        assert process.value is None


class TestHandlerHandOff:
    """A handler's process is started and finished by hand-off: the request
    costs the kernel its two deliveries, the handler's own delays and the
    requester's deadline — no bootstrap, completion or reply relay."""

    def round_trip(self, env, handler):
        network = build(env)
        server = Node(env, network, "server", "V1")
        client = Node(env, network, "client", "V2")
        server.on("q", handler)
        reply = client.request("server", "q", 20, timeout_ms=100)
        env.run(until=50.0)
        return reply, env.sim.processed_events

    def test_request_is_two_deliveries_plus_the_handlers_delays(self, env):
        def handler(msg):
            yield env.timeout(5.0)
            return msg.payload + 1

        reply, events = self.round_trip(env, handler)
        assert reply.value.payload == 21
        assert reply.processed  # its waiters ran with the reply's delivery
        assert events == 3  # delivery, the handler's timeout, delivery
        env.run()
        assert env.sim.processed_events == 4  # + the (dead) deadline

    def test_handler_returning_without_yielding_still_replies(self, env):
        def handler(msg):
            return msg.payload * 2
            yield  # pragma: no cover - makes this a generator function

        reply, events = self.round_trip(env, handler)
        assert reply.value.payload == 40
        assert events == 2

    def test_reply_waits_for_what_the_last_step_queued(self, env):
        # The tie the guard exists for: a handler's last step releases a
        # lock, which queues the next holder at this instant; that holder's
        # send must leave before the finishing handler's reply, as it did
        # when the reply rode a queue entry of its own.
        network = build(env)
        server = Node(env, network, "server", "V1")
        client = Node(env, network, "client", "V2")
        lock = Lock(env)
        arrivals = []

        def holder(msg):
            yield lock.acquire()
            try:
                yield env.timeout(5.0)
            finally:
                lock.release()
            return "reply"

        def next_holder(msg):
            yield lock.acquire()
            lock.release()
            server.send("client", "note")

        server.on("hold", holder)
        server.on("queue-up", next_holder)
        client.on("note", lambda msg: arrivals.append("note"))

        def requester():
            reply = yield client.request("server", "hold")
            arrivals.append(reply.payload)

        env.process(requester())
        # Arrives while the first handler holds the lock.
        env.timeout(2.0).add_callback(lambda e: client.send("server", "queue-up"))
        env.run()
        assert arrivals == ["note", "reply"]

    def test_killed_handler_that_returns_stays_queue_driven(self, env):
        # kill() is called from the crash path, mid-loop: a handler that
        # catches the kill and returns must not reply from inside it.
        network = build(env)
        server = Node(env, network, "server", "V1")
        client = Node(env, network, "client", "V2")
        server.track_processes()

        def handler(msg):
            try:
                yield env.timeout(10.0)
            except ProcessKilled:
                return "last words"

        server.on("q", handler)
        reply = client.request("server", "q", timeout_ms=100)
        sent_inside_kill = []

        def crash(_event):
            before = network.stats.sent
            assert server.kill_tracked("crash") == 1
            sent_inside_kill.append(network.stats.sent - before)

        env.timeout(3.0).add_callback(crash)
        env.run()
        assert sent_inside_kill == [0]
        assert reply.value.payload == "last words"

    def test_generator_lookalike_is_a_plain_reply_value(self, env):
        # Only a real generator is a process; anything else a handler
        # returns — even an object speaking the generator protocol — is the
        # reply payload, exactly as ``Process`` would refuse to drive it.
        class Lookalike(collections.abc.Generator):
            def send(self, value):
                raise StopIteration

            def throw(self, *exc_info):
                raise StopIteration

        lookalike = Lookalike()
        with pytest.raises(TypeError):
            Process(env, lookalike)
        reply, _events = self.round_trip(env, lambda msg: lookalike)
        assert reply.value.payload is lookalike


class TestDeadlineFifo:
    """Loss-detection deadlines wait per node and timeout length in the
    order they were set; only the oldest one that was live when armed is a
    kernel event.  ``build`` delivers in exactly 1 ms, so every count and
    instant below is exact."""

    def pair(self, env, answer=True):
        network = build(env)
        server = Node(env, network, "server", "V1")
        client = Node(env, network, "client", "V2")
        if answer:
            server.on("q", lambda msg: "ok")
        return server, client

    def test_answered_requests_cost_no_deadline_event_each(self, env):
        _server, client = self.pair(env)
        n, timeout_ms, finished = 200, 75.0, []

        def requester():
            for _ in range(n):
                reply = yield client.request("server", "q", timeout_ms=timeout_ms)
                assert reply is not None
            finished.append(env.now)

        env.process(requester())
        env.run()
        assert finished == [2.0 * n]
        # Two deliveries per request, the requester's bootstrap and
        # completion, and one pop of the FIFO head per timeout's worth of
        # simulated time — where a deadline per request was ``n`` more.
        head_pops = env.sim.processed_events - (2 * n + 2)
        assert 1 <= head_pops <= finished[0] // timeout_ms + 1
        assert head_pops == 6
        assert not client._deadlines[timeout_ms]._waiting

    def test_unanswered_request_completes_empty_exactly_at_its_deadline(self, env):
        _server, client = self.pair(env, answer=False)

        def requester():
            yield env.timeout(7.5)
            reply = yield client.request("server", "q", timeout_ms=100.0)
            return reply, env.now

        process = env.process(requester())
        env.run()
        assert process.value == (None, 7.5 + 100.0)

    def test_same_instant_deadlines_keep_their_own_queue_positions(self, env):
        # A, a plain timeout, B: three entries due at one instant, keyed in
        # that order.  The head (A) must re-arm B under B's own key — behind
        # the timeout — not fire it in place.
        _server, client = self.pair(env, answer=False)
        a = client.request("server", "q", timeout_ms=50.0)
        between = env.timeout(50.0)
        b = client.request("server", "q", timeout_ms=50.0)
        trace = []
        between.add_callback(
            lambda e: trace.append(("timeout", a.triggered, b.triggered)))
        a.add_callback(lambda e: trace.append("A"))
        b.add_callback(lambda e: trace.append("B"))
        env.run()
        # Neither instant is clear, so both requests wake their waiters
        # through the queue, in the order their deadlines popped.
        assert trace == [("timeout", True, False), "A", "B"]
        assert env.now == 50.0
        assert a.value is None and b.value is None

    def test_two_timeout_lengths_each_keep_their_own_order(self, env):
        _server, client = self.pair(env, answer=False)
        fired = []

        def ask(tag, timeout_ms):
            reply = client.request("server", "q", timeout_ms=timeout_ms)
            reply.add_callback(lambda e: fired.append((tag, env.now)))

        def requester():
            ask("long-1", 100.0)
            ask("short-1", 30.0)
            yield env.timeout(10.0)
            ask("long-2", 100.0)
            ask("short-2", 30.0)

        env.process(requester())
        env.run()
        assert fired == [("short-1", 30.0), ("short-2", 40.0),
                         ("long-1", 100.0), ("long-2", 110.0)]
        assert sorted(client._deadlines) == [30.0, 100.0]

    def test_settled_head_re_arms_for_the_live_entry_behind_it(self, env):
        network = build(env)
        server = Node(env, network, "server", "V1")
        Node(env, network, "silent", "V3")
        client = Node(env, network, "client", "V2")
        server.on("q", lambda msg: "ok")

        def requester():
            first = yield client.request("server", "q", timeout_ms=40.0)
            yield env.timeout(3.0)  # t = 5
            settled = client.request("server", "q", timeout_ms=40.0)
            lost = client.request("silent", "q", timeout_ms=40.0)
            yield env.timeout(0.5)  # keeps the two replies off one instant
            also_settled = client.request("server", "q", timeout_ms=40.0)
            reply = yield lost
            assert settled.processed and also_settled.processed
            return first.payload, reply, env.now

        process = env.process(requester())
        env.run()
        assert process.value == ("ok", None, 45.0)
        # 7 deliveries (the silent node drops its one), two think times, the
        # requester's two — and two head pops: the dead first deadline,
        # which re-arms past a settled entry for the live one, and that one;
        # the settled entry behind it is dropped unpopped.
        assert network.stats.delivered == 7
        assert env.sim.processed_events == 7 + 2 + 2 + 2
        assert env.now == 45.0

    def test_down_requester_times_out_as_before(self, env):
        _server, client = self.pair(env)
        client.down = True  # the reply is dropped at delivery
        reply = client.request("server", "q", timeout_ms=60.0)
        env.run()
        assert reply.value is None and env.now == 60.0

    def test_killed_requester_is_not_resumed_by_its_deadline(self, env):
        _server, client = self.pair(env, answer=False)
        replies = []

        def requester():
            replies.append(client.request("server", "q", timeout_ms=60.0))
            yield replies[0]
            raise AssertionError("resumed after the kill")  # pragma: no cover

        process = env.process(requester())
        env.timeout(3.0).add_callback(lambda e: process.kill("crash"))
        env.run()
        assert isinstance(process.value, ProcessKilled)
        assert replies[0].value is None and env.now == 60.0
        assert not client._pending

    def test_finished_gather_leaves_the_correlation_table_at_once(self, env):
        _server, client = self.pair(env)
        reply = client.request("server", "q", timeout_ms=60.0)
        assert list(client._pending.values()) == [reply]
        env.run(until=2.0)
        assert reply.processed and not client._pending

    def test_reservation_from_outside_the_nodes_lane_is_refused(self):
        # A node's deadlines are ordered because its own lane stamps them
        # all; setup code asking on its behalf between runs is stamped by
        # lane 0 and could sort ahead of an entry already waiting.
        env = Environment(seed=42, lanes=3)
        network = build(env)
        Node(env, network, "server", "V1", lane=2)
        client = Node(env, network, "client", "V2", lane=2)

        def requester():
            yield env.timeout(5.0)
            client.request("server", "q", timeout_ms=40.0)

        env.process(requester(), lane=2)
        env.run(until=5.0)
        with pytest.raises(RuntimeError, match="out of order"):
            client.request("server", "q", timeout_ms=40.0)


class TestGather:
    def make_servers(self, env, network, delays):
        """Servers replying 'ok' after per-server service delays."""
        for index, (dc, service_delay) in enumerate(delays):
            node = Node(env, network, f"s{index}", dc)

            def handler(msg, d=service_delay):
                yield env.timeout(d)
                return "ok"

            node.on("vote", handler)
        return [f"s{i}" for i in range(len(delays))]

    def test_completes_when_all_respond(self, env):
        network = build(env)
        servers = self.make_servers(env, network, [("V1", 0), ("V2", 0), ("V3", 0)])
        client = Node(env, network, "client", "V1")

        def proc():
            responses = yield client.request_many(servers, "vote", timeout_ms=1000)
            return len(responses)

        process = env.process(proc())
        env.run()
        assert process.value == 3

    def test_quorum_plus_grace_cuts_off_stragglers(self, env):
        network = build(env)
        # Two fast servers, one very slow.
        servers = self.make_servers(env, network, [("V1", 0), ("V2", 0), ("V3", 500)])
        client = Node(env, network, "client", "V1")

        def proc():
            gather = client.request_many(
                servers, "vote",
                enough=lambda rs: len(rs) >= 2,
                timeout_ms=2000, grace_ms=3.0,
            )
            responses = yield gather
            return (len(responses), env.now)

        process = env.process(proc())
        env.run()
        count, finished = process.value
        assert count == 2
        assert finished < 10.0  # did not wait for the 500 ms straggler

    def test_grace_window_collects_near_ties(self, env):
        network = build(env)
        servers = self.make_servers(env, network, [("V1", 0), ("V2", 0.5), ("V3", 1.0)])
        client = Node(env, network, "client", "V1")

        def proc():
            gather = client.request_many(
                servers, "vote",
                enough=lambda rs: len(rs) >= 2,
                timeout_ms=2000, grace_ms=5.0,
            )
            responses = yield gather
            return len(responses)

        process = env.process(proc())
        env.run()
        assert process.value == 3

    def test_timeout_returns_partial_set(self, env):
        network = build(env)
        servers = self.make_servers(env, network, [("V1", 0), ("V2", 5000), ("V3", 5000)])
        client = Node(env, network, "client", "V1")

        def proc():
            gather = client.request_many(
                servers, "vote",
                enough=lambda rs: len(rs) >= 2,
                timeout_ms=100, grace_ms=0.0,
            )
            responses = yield gather
            return (len(responses), env.now)

        process = env.process(proc())
        env.run()
        count, finished = process.value
        assert count == 1
        assert finished >= 100

    def test_late_responses_after_completion_ignored(self, env):
        network = build(env)
        servers = self.make_servers(env, network, [("V1", 0), ("V2", 50)])
        client = Node(env, network, "client", "V1")

        def proc():
            gather = client.request_many(
                servers, "vote",
                enough=lambda rs: len(rs) >= 1,
                timeout_ms=2000, grace_ms=0.0,
            )
            responses = yield gather
            return list(responses)

        process = env.process(proc())
        env.run()  # the slow reply arrives after completion; must be dropped
        assert len(process.value) == 1

    def test_zero_expected_completes_via_timeout(self, env):
        gather = Gather(env, expected=3, enough=None, timeout_ms=10, grace_ms=0,
                        deadlines={})
        env.run()
        assert gather.triggered
        assert gather.value == []
