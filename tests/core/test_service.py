"""Tests for the Transaction Service: reads, application, catch-up, leaders."""

from repro.core.service import BeginRequest, ReadRequest
from repro.sim.shard import service_node_name
from tests.conftest import make_cluster, run_txn

GROUP = "g"


def preloaded(**kwargs):
    cluster = make_cluster(**kwargs)
    cluster.preload(GROUP, {"row0": {"a": "init"}})
    return cluster


def ask(cluster, dc, msg_type, payload, src_dc="V1"):
    """Send one request to a service from a bare client node and wait."""
    from repro.net.node import Node

    client = Node(cluster.env, cluster.network,
                  f"probe:{cluster.env.rng.stream('probe').random()}", src_dc)

    def proc():
        reply = yield client.request(service_node_name(dc), msg_type, payload,
                                     timeout_ms=10_000)
        return reply.payload if reply is not None else None

    process = cluster.env.process(proc())
    cluster.run()
    return process.value


class TestBeginHandler:
    def test_empty_log_reports_position_zero_and_home_leader(self):
        cluster = preloaded()
        reply = ask(cluster, "V2", "txn.begin", BeginRequest(GROUP))
        assert reply.read_position == 0
        assert reply.leader_dc == "V1"  # home DC

    def test_leader_follows_previous_winner(self):
        cluster = preloaded()
        client = cluster.add_client("V2")
        run_txn(cluster, client, GROUP, writes=[("row0", "a", "x")])
        reply = ask(cluster, "V1", "txn.begin", BeginRequest(GROUP))
        assert reply.read_position == 1
        assert reply.leader_dc == "V2"  # the winner's datacenter


class TestReadHandler:
    def test_read_applies_pending_log_entries(self):
        cluster = preloaded()
        client = cluster.add_client("V1")
        run_txn(cluster, client, GROUP, writes=[("row0", "a", "new")])
        reply = ask(cluster, "V3", "txn.read",
                    ReadRequest(GROUP, "row0", "a", position=1))
        assert reply.ok
        assert reply.value == "new"
        assert cluster.services["V3"].replica(GROUP).applied_through == 1

    def test_read_at_old_position_sees_old_value(self):
        cluster = preloaded()
        client = cluster.add_client("V1")
        run_txn(cluster, client, GROUP, writes=[("row0", "a", "new")])
        reply = ask(cluster, "V2", "txn.read",
                    ReadRequest(GROUP, "row0", "a", position=0))
        assert reply.ok
        assert reply.value == "init"

    def test_catch_up_fetches_missed_decision(self):
        """V3 misses the APPLY (outage); a later read forces catch-up."""
        cluster = preloaded()
        client = cluster.add_client("V1")
        cluster.network.take_down("V3")
        outcome = run_txn(cluster, client, GROUP, writes=[("row0", "a", "new")])
        assert outcome.committed  # V1+V2 form a quorum
        assert cluster.services["V3"].replica(GROUP).chosen_entry(1) is None
        cluster.network.bring_up("V3")
        reply = ask(cluster, "V3", "txn.read",
                    ReadRequest(GROUP, "row0", "a", position=1))
        assert reply.ok
        assert reply.value == "new"
        assert cluster.services["V3"].replica(GROUP).chosen_entry(1) is not None

    def test_unlearnable_position_reports_failure(self):
        """A read beyond any decided position cannot be served."""
        cluster = preloaded()
        reply = ask(cluster, "V2", "txn.read",
                    ReadRequest(GROUP, "row0", "a", position=7))
        assert not reply.ok

    def test_concurrent_reads_apply_once(self):
        cluster = preloaded()
        client = cluster.add_client("V1")
        run_txn(cluster, client, GROUP, writes=[("row0", "a", "new")])
        from repro.net.node import Node

        probe = Node(cluster.env, cluster.network, "probe-x", "V2")
        results = []

        def proc():
            requests = [
                probe.request(service_node_name("V2"), "txn.read",
                              ReadRequest(GROUP, "row0", "a", position=1),
                              timeout_ms=10_000)
                for _ in range(4)
            ]
            for request in requests:
                reply = yield request
                results.append(reply.payload.value)

        cluster.env.process(proc())
        cluster.run()
        assert results == ["new"] * 4
        # Exactly one version of the data row at timestamp 1.
        from repro.wal.log import data_row_key

        versions = cluster.stores["V2"].versions(data_row_key(GROUP, "row0"))
        assert [v.timestamp for v in versions] == [0, 1]


class TestLeaderDc:
    def test_position_one_led_by_home(self):
        cluster = preloaded()
        assert cluster.services["V2"].leader_dc(GROUP, 1) == "V1"

    def test_unknown_previous_position_falls_back_to_home(self):
        cluster = preloaded()
        assert cluster.services["V2"].leader_dc(GROUP, 9) == "V1"
