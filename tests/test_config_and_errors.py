"""Tests for configuration dataclasses and the exception hierarchy."""

import pytest

from repro.config import ClusterConfig, ProtocolConfig, StoreConfig, WorkloadConfig
from repro.errors import (
    CheckFailed,
    NotOneCopySerializable,
    QuorumTimeout,
    ReproError,
    RowVersionError,
    StateHistoryError,
    TransactionAborted,
)


class TestProtocolConfig:
    def test_paper_defaults(self):
        config = ProtocolConfig()
        assert config.timeout_ms == 2000.0     # "two second timeout" (§6)
        assert config.max_promotions is None   # unlimited, as in the paper
        assert config.enable_combination and config.enable_promotion
        assert config.leader_fastpath          # §4.1, used in their prototype

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ProtocolConfig().timeout_ms = 1.0


class TestClusterConfig:
    def test_datacenter_count(self):
        assert ClusterConfig(cluster_code="VVVOC").n_datacenters == 5

    def test_store_defaults_calibrated(self):
        store = StoreConfig()
        assert store.op_low_ms == 10.0
        assert store.op_high_ms == 24.0
        assert StoreConfig.instant().op_high_ms == 0.0

    def test_engine_is_validated_at_construction(self):
        assert ClusterConfig(engine="sharded").engine == "sharded"
        with pytest.raises(ValueError, match="engine must be one of"):
            ClusterConfig(engine="shraded")

    def test_removed_engine_names_what_replaces_it(self):
        with pytest.raises(ValueError) as raised:
            ClusterConfig(engine="sharded-mp")
        message = str(raised.value)
        assert "removed" in message
        assert "--jobs" in message and "run_cells(jobs=" in message


class TestWorkloadConfig:
    def test_paper_defaults(self):
        workload = WorkloadConfig()
        assert workload.n_transactions == 500
        assert workload.ops_per_transaction == 10
        assert workload.read_fraction == 0.5
        assert workload.n_attributes == 100
        assert workload.n_threads == 4
        assert workload.target_rate_per_thread == 1.0


class TestErrors:
    def test_all_derive_from_repro_error(self):
        for error in [
            RowVersionError("k", 1, 2),
            StateHistoryError("_paxos/g/1", 1, 2),
            CheckFailed("k", "a", 1, 2),
            TransactionAborted("t1", "lost_position"),
            QuorumTimeout("prepare", 1, 2),
            NotOneCopySerializable("cycle", ["t1", "t2"]),
        ]:
            assert isinstance(error, ReproError)

    def test_row_version_error_context(self):
        error = RowVersionError("key", 3, 7)
        assert error.key == "key"
        assert error.timestamp == 3
        assert error.existing == 7
        assert "key" in str(error)

    def test_transaction_aborted_context(self):
        error = TransactionAborted("t9", "timeout")
        assert error.tid == "t9"
        assert error.reason == "timeout"

    def test_quorum_timeout_context(self):
        error = QuorumTimeout("accept", got=1, needed=2)
        assert error.phase == "accept"
        assert "1/2" in str(error)

    def test_not_one_copy_serializable_carries_cycle(self):
        error = NotOneCopySerializable("boom", ["a", "b"])
        assert error.cycle == ["a", "b"]
        assert NotOneCopySerializable("no cycle").cycle == []
