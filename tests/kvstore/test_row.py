"""Tests for immutable row versions."""

import pickle

import pytest

from repro.kvstore.row import WIDE_ROW, RowVersion


class TestRowVersion:
    def test_attributes_frozen(self):
        version = RowVersion(timestamp=1, attributes={"a": 1})
        with pytest.raises(TypeError):
            version.attributes["a"] = 2

    def test_source_dict_mutations_do_not_leak(self):
        source = {"a": 1}
        version = RowVersion(timestamp=1, attributes=source)
        source["a"] = 99
        assert version.get("a") == 1

    def test_get_with_default(self):
        version = RowVersion(timestamp=1, attributes={"a": 1})
        assert version.get("a") == 1
        assert version.get("b") is None
        assert version.get("b", "fallback") == "fallback"

    def test_merged_with_overrides_and_carries(self):
        version = RowVersion(timestamp=1, attributes={"a": 1, "b": 2})
        merged = version.merged_with({"b": 20, "c": 30}, timestamp=2)
        assert merged.timestamp == 2
        assert dict(merged.attributes) == {"a": 1, "b": 20, "c": 30}
        # original untouched
        assert dict(version.attributes) == {"a": 1, "b": 2}

    def test_equality_by_content(self):
        assert RowVersion(1, {"a": 1}) == RowVersion(1, {"a": 1})
        assert RowVersion(1, {"a": 1}) != RowVersion(2, {"a": 1})


def wide_image() -> dict:
    return {f"a{index}": index for index in range(WIDE_ROW + 8)}


class TestWideRowVersion:
    """A wide row's version holds its changes over a shared image (a full
    image holds none); to a reader it is the same immutable,
    content-compared value."""

    def changed(self) -> RowVersion:
        return RowVersion(1, wide_image()).merged_with({"a0": -1, "new": 7}, timestamp=2)

    def test_reads_changes_over_the_image(self):
        version = self.changed()
        assert version._changes == {"a0": -1, "new": 7}
        assert version.get("a0") == -1
        assert version.get("new") == 7
        assert version.get("a1") == 1
        assert version.get("absent", "fallback") == "fallback"
        assert dict(version.attributes) == {**wide_image(), "a0": -1, "new": 7}

    def test_width_decides_the_format(self):
        assert type(RowVersion(1, {"a": 1})) is RowVersion
        wide = RowVersion(1, wide_image())
        assert wide._changes == {}
        assert wide.merged_with({"a0": -1}, timestamp=2)._image is wide._image
        narrow = {f"a{index}": index for index in range(WIDE_ROW - 1)}
        grown = RowVersion(1, narrow).merged_with({"new": 0}, timestamp=2)
        assert grown._changes == {} and dict(grown.attributes) == {**narrow, "new": 0}

    def test_attributes_read_only(self):
        version = self.changed()
        with pytest.raises(TypeError):
            version.attributes["a1"] = 2
        with pytest.raises(AttributeError):
            version.timestamp = 3
        assert version.get("a1") == 1

    def test_equality_whichever_form(self):
        changed = self.changed()
        full = RowVersion(2, {**wide_image(), "a0": -1, "new": 7})
        assert changed._changes and not full._changes
        assert changed == full and full == changed
        assert changed != RowVersion(3, dict(full.attributes))
        assert changed != RowVersion(2, wide_image())

    def test_merging_leaves_earlier_versions_untouched(self):
        first = self.changed()
        second = first.merged_with({"a0": -2, "a1": -2}, timestamp=3)
        assert (first.get("a0"), first.get("a1")) == (-1, 1)
        assert (second.get("a0"), second.get("a1"), second.get("new")) == (-2, -2, 7)

    def test_reimages_past_the_fraction(self):
        version = RowVersion(1, wide_image())
        many = {f"a{index}": -index for index in range(len(wide_image()) // 2)}
        merged = version.merged_with(many, timestamp=2)
        assert merged._changes == {} and merged._image is not version._image
        assert dict(merged.attributes) == {**wide_image(), **many}
        assert dict(version.attributes) == wide_image()

    @pytest.mark.parametrize("wide", [False, True])
    def test_pickle_round_trip(self, wide):
        version = self.changed() if wide else RowVersion(1, {"a": 1})
        copy = pickle.loads(pickle.dumps(version))
        assert copy == version
        assert copy.timestamp == version.timestamp
        assert dict(copy.attributes) == dict(version.attributes)
