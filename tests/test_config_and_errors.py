"""Tests for configuration dataclasses and the exception hierarchy."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from repro.config import (
    ClusterConfig,
    FaultScheduleConfig,
    PlacementConfig,
    ProtocolConfig,
    StoreConfig,
    WorkloadConfig,
)
from repro.harness.experiment import ExperimentSpec
from repro.errors import (
    InvalidExperimentSpec,
    ReproError,
    RowVersionError,
    StateHistoryError,
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


@pytest.mark.parametrize("build, name, error", [
    (lambda: WorkloadConfig(distribution="zipf"), "distribution", ValueError),
    (lambda: WorkloadConfig(group_distribution="pined"), "group_distribution",
     ValueError),
    (lambda: WorkloadConfig(arrival="diurnal"), "arrival", ValueError),
    (lambda: PlacementConfig(n_groups=2, assignment="rnage", key_universe=16),
     "assignment", ValueError),
    (lambda: ClusterConfig(isolation="SI"), "isolation", ValueError),
    (lambda: ExperimentSpec("typo", protocol="paxos-CP"), "protocol",
     InvalidExperimentSpec),
], ids=["distribution", "group_distribution", "arrival", "assignment",
        "isolation", "protocol"])
def test_mistyped_choice_fails_at_construction(build, name, error):
    """A ``Literal``-typed field refuses a value outside its type when the
    config is built, instead of silently running some default."""
    with pytest.raises(error, match=f"^{name} must be one of "):
        build()


REPO = Path(__file__).resolve().parent.parent
#: Where a setting can be set: the tests, benchmarks and examples, the CLI,
#: and the harness that builds specs.
SETTERS = ("tests", "benchmarks", "examples", "src/repro/cli.py", "src/repro/harness")


def names_ever_set() -> set[str]:
    """Every keyword-argument name and every string dict key in SETTERS: a
    field is set by keyword, by ``replace(..., field=...)``, or through a
    ``**`` dict of overrides."""
    names: set[str] = set()
    for setter in SETTERS:
        root = REPO / setter
        for path in [root] if root.is_file() else sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.keyword) and node.arg is not None:
                    names.add(node.arg)
                elif isinstance(node, ast.Dict):
                    names.update(
                        key.value for key in node.keys
                        if isinstance(key, ast.Constant) and isinstance(key.value, str)
                    )
    return names


@pytest.mark.parametrize("config", [
    ClusterConfig, ProtocolConfig, WorkloadConfig, PlacementConfig,
    FaultScheduleConfig, StoreConfig, ExperimentSpec,
], ids=lambda config: config.__name__)
def test_every_config_field_is_set_somewhere(config):
    """A setting nothing ever sets is a constant: it belongs, as one, at the
    place that reads it."""
    unset = sorted({field.name for field in fields(config)} - names_ever_set())
    assert not unset, f"{config.__name__} fields nothing sets: {unset}"


class TestErrors:
    def test_all_derive_from_repro_error(self):
        for error in [
            RowVersionError("k", 1, 2),
            StateHistoryError("_paxos/g/1", 1, 2),
        ]:
            assert isinstance(error, ReproError)

    def test_row_version_error_context(self):
        error = RowVersionError("key", 3, 7)
        assert error.key == "key"
        assert error.timestamp == 3
        assert error.existing == 7
        assert "key" in str(error)
