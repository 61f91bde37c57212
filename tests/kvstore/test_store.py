"""Tests for the multi-version store's three atomic operations (§2.2)."""

import pytest

from repro.errors import RowVersionError
from repro.kvstore.store import MultiVersionStore


@pytest.fixture
def store():
    return MultiVersionStore("test")


class TestRead:
    def test_missing_row_returns_none(self, store):
        assert store.read("nope") is None

    def test_latest_version_by_default(self, store):
        store.write("k", {"a": 1}, timestamp=1)
        store.write("k", {"a": 2}, timestamp=5)
        assert store.read("k").get("a") == 2

    def test_read_at_timestamp_returns_most_recent_at_or_before(self, store):
        store.write("k", {"a": 1}, timestamp=1)
        store.write("k", {"a": 2}, timestamp=5)
        assert store.read("k", timestamp=1).get("a") == 1
        assert store.read("k", timestamp=3).get("a") == 1
        assert store.read("k", timestamp=5).get("a") == 2
        assert store.read("k", timestamp=99).get("a") == 2

    def test_read_before_first_version_returns_none(self, store):
        store.write("k", {"a": 1}, timestamp=10)
        assert store.read("k", timestamp=5) is None

    def test_read_attribute_defaults(self, store):
        assert store.read_attribute("k", "a", default="d") == "d"
        store.write("k", {"a": 1}, timestamp=1)
        assert store.read_attribute("k", "b", default="d") == "d"
        assert store.read_attribute("k", "a") == 1


class TestWrite:
    def test_auto_timestamp_starts_at_one(self, store):
        assert store.write("k", {"a": 1}) == 1

    def test_auto_timestamp_exceeds_existing(self, store):
        store.write("k", {"a": 1}, timestamp=10)
        assert store.write("k", {"a": 2}) == 11

    def test_write_below_latest_rejected(self, store):
        store.write("k", {"a": 1}, timestamp=5)
        with pytest.raises(RowVersionError) as info:
            store.write("k", {"a": 2}, timestamp=3)
        assert info.value.existing == 5

    def test_write_at_existing_timestamp_rejected(self, store):
        store.write("k", {"a": 1}, timestamp=5)
        with pytest.raises(RowVersionError):
            store.write("k", {"a": 2}, timestamp=5)

    def test_versions_merge_previous_image(self, store):
        store.write("k", {"a": 1, "b": 1}, timestamp=1)
        store.write("k", {"b": 2}, timestamp=2)
        version = store.read("k")
        assert version.get("a") == 1  # untouched attribute carried forward
        assert version.get("b") == 2

    def test_old_versions_immutable_after_merge(self, store):
        store.write("k", {"a": 1}, timestamp=1)
        store.write("k", {"a": 2}, timestamp=2)
        assert store.read("k", timestamp=1).get("a") == 1

    def test_versions_listing_sorted(self, store):
        store.write("k", {"a": 1}, timestamp=2)
        store.write("k", {"a": 2}, timestamp=7)
        assert [v.timestamp for v in store.versions("k")] == [2, 7]

    def test_latest_timestamp(self, store):
        assert store.latest_timestamp("k") is None
        store.write("k", {"a": 1}, timestamp=4)
        assert store.latest_timestamp("k") == 4


class TestCheckAndWrite:
    def test_success_when_attribute_matches(self, store):
        store.write("k", {"flag": "old", "x": 1}, timestamp=1)
        ok = store.check_and_write("k", "flag", "old", {"flag": "new"})
        assert ok
        assert store.read("k").get("flag") == "new"

    def test_failure_when_attribute_differs(self, store):
        store.write("k", {"flag": "old"}, timestamp=1)
        ok = store.check_and_write("k", "flag", "other", {"flag": "new"})
        assert not ok
        assert store.read("k").get("flag") == "old"

    def test_missing_row_compares_as_none(self, store):
        assert store.check_and_write("k", "flag", None, {"flag": "created"})
        assert store.read("k").get("flag") == "created"

    def test_missing_attribute_compares_as_none(self, store):
        store.write("k", {"other": 1}, timestamp=1)
        assert store.check_and_write("k", "flag", None, {"flag": "set"})

    def test_checks_latest_version_only(self, store):
        store.write("k", {"flag": "v1"}, timestamp=1)
        store.write("k", {"flag": "v2"}, timestamp=2)
        assert not store.check_and_write("k", "flag", "v1", {"flag": "v3"})
        assert store.check_and_write("k", "flag", "v2", {"flag": "v3"})

    def test_failed_check_writes_nothing(self, store):
        store.write("k", {"flag": 1}, timestamp=1)
        store.check_and_write("k", "flag", 2, {"flag": 3, "extra": True})
        assert len(store.versions("k")) == 1


class TestIntrospection:
    def test_contains(self, store):
        assert "k" not in store
        store.write("k", {"a": 1})
        assert "k" in store

    def test_keys_sorted(self, store):
        store.write("b", {"x": 1})
        store.write("a", {"x": 1})
        assert store.keys() == ["a", "b"]

    def test_keys_filters_by_prefix_before_sorting(self, store):
        for key in ("_paxos/g/2", "data/g/r", "_paxos/g/1", "_paxos/h/1"):
            store.write(key, {"x": 1})
        assert store.keys("_paxos/g/") == ["_paxos/g/1", "_paxos/g/2"]
        assert store.keys("_meta/") == []

    def test_op_counts(self, store):
        store.write("k", {"a": 1})
        store.read("k")
        store.check_and_write("k", "a", 1, {"a": 2})
        assert store.op_counts["write"] == 2  # direct + via check_and_write
        assert store.op_counts["read"] == 1
        assert store.op_counts["check_and_write"] == 1
