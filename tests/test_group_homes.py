"""Per-group home override: ``PlacementConfig.group_homes`` (leader placement)."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.config import ClusterConfig, PlacementConfig, StoreConfig
from repro.model import Placement


def config(n_groups: int = 4, **kwargs) -> PlacementConfig:
    return PlacementConfig(
        n_groups=n_groups, assignment="range", key_universe=n_groups, **kwargs
    )


class TestPlacementConfig:
    def test_default_has_no_overrides(self):
        placement = Placement(config())
        assert placement.home_of("group-0", "V1") == "V1"
        assert placement.home_of("group-3", "C1") == "C1"

    def test_override_applies_only_to_named_groups(self):
        placement = Placement(config(group_homes={"group-1": "O1"}))
        assert placement.home_of("group-1", "V1") == "O1"
        assert placement.home_of("group-0", "V1") == "V1"

    def test_unknown_group_names_are_rejected(self):
        with pytest.raises(ValueError, match="unknown groups"):
            config(group_homes={"group-9": "V1"})


class TestClusterWiring:
    def make(self, group_homes):
        return Cluster(ClusterConfig(
            cluster_code="VOV",  # V1, O1, V2 (Virginia, Oregon, Virginia)
            store=StoreConfig.instant(), jitter=0.0,
            placement=config(group_homes=group_homes),
        ))

    def test_unknown_datacenter_is_rejected(self):
        with pytest.raises(ValueError, match="not a datacenter"):
            self.make({"group-0": "Z9"})

    def test_position_one_leader_follows_the_override(self):
        cluster = self.make({"group-2": cluster_second_dc()})
        for dc, service in cluster.services.items():
            assert service.leader_dc("group-2", 1) == cluster_second_dc()
            assert service.leader_dc("group-0", 1) == cluster.home_dc

    def test_begin_reports_the_override_leader_on_an_empty_log(self):
        cluster = self.make({"group-2": cluster_second_dc()})
        cluster.preload_placed({f"row{i}": {"a0": "init"} for i in range(4)})
        client = cluster.add_client("V1")

        def app():
            overridden = yield from client.begin("group-2")
            default = yield from client.begin("group-0")
            return overridden, default

        process = cluster.env.process(app())
        cluster.run()
        overridden, default = process.value
        assert overridden.leader_dc == cluster_second_dc()
        assert default.leader_dc == cluster.home_dc

    def test_default_preserves_single_home_behaviour(self):
        cluster = self.make(None)
        for service in cluster.services.values():
            for group in cluster.placement.groups:
                assert service.leader_dc(group, 1) == cluster.home_dc

    def test_transactions_commit_under_an_override(self):
        cluster = self.make({"group-1": cluster_second_dc()})
        cluster.preload_placed({f"row{i}": {"a0": "init"} for i in range(4)})
        client = cluster.add_client("V2", protocol="paxos-cp")

        def app():
            handle = yield from client.begin(key="row1")
            yield from client.read(handle, "row1", "a0")
            client.write(handle, "row1", "a0", "updated")
            outcome = yield from client.commit(handle)
            return outcome

        process = cluster.env.process(app())
        cluster.run()
        assert process.value.committed
        cluster.check_invariants_all([process.value], cluster.settle())


def cluster_second_dc() -> str:
    """The second datacenter of the VOV preset (the Oregon zone)."""
    return "O"
