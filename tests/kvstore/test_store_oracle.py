"""Differential: the multi-version store against its pre-rewrite reference.

The store's hot paths were rewritten for speed — a version appended rather
than ``insort``-ed, reads bisecting with ``attrgetter`` rather than a
lambda, ``keys`` served from a lazily sorted key list — and a wide row's
version holds only its changes over a shared image, where the reference
copies the full image per version.  Random operation sequences run against
both stores here: every result, every raised
:class:`~repro.errors.RowVersionError` and the final ``op_counts`` must be
equal.  The general sequences draw three attribute names, so their rows
stay narrow; the wide-row sequences write a few of 48 attributes at a time
and read them back at past timestamps.

A state row (:data:`STATE_PREFIXES`) keeps only its current version, where
the reference keeps them all.  So on a state key the store holds the
reference's last version, answers a read at or after it exactly as the
reference does, and raises :class:`~repro.errors.StateHistoryError` on a
read at a timestamp below it.  A crash keeps a non-durable row's
versions at or below timestamp 0, which the store no longer has once a
later write replaced them; the reference's state rows are cut to their
current version before each crash, so both stores lose the same versions.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import RowVersionError, StateHistoryError
from repro.kvstore.row import WIDE_ROW
from repro.kvstore.store import MultiVersionStore
from tests.kvstore.reference_store import ReferenceStore

KEYS = (
    "_paxos/g1/0000000001", "_paxos/g1/0000000002", "_paxos/g10/0000000001",
    "_paxos/g2/0000000001", "_meta/lease/V1", "_txnstatus/t1",
    "_queue/recv/g1/g2",
    "data/g1/row0", "data/g1/row1", "data/g10/row0", "data/g2/row0", "d",
    "data/g1/rowé", "dé",
)
PREFIXES = (
    "", "_", "_paxos/", "_paxos/g1/", "_paxos/g1", "_paxos/g1/0000000001",
    "_meta/", "_queue/", "data/g1/", "data/g1", "data/g1/row", "data/g10/row0x", "d",
    "zz", "~",
)
ATTRIBUTES = ("a", "b", "seq")
#: Every ``_`` table the protocol writes; spelled out here rather than read
#: off the store, so a prefix dropped from the store fails this test.
STATE_PREFIXES = ("_paxos/", "_queue/", "_meta/", "_txnstatus/")
OPERATIONS = 400


def shape(value):
    """Results of either store in one comparable form."""
    if isinstance(value, list):
        return [shape(item) for item in value]
    if hasattr(value, "timestamp") and hasattr(value, "attributes"):
        return ("version", value.timestamp, sorted(value.attributes.items()))
    return value


def timestamp(rng: random.Random):
    return rng.choice((None, None, rng.randint(-2, 30), rng.randint(0, 30) + 0.5))


def step(rng: random.Random):
    """One random operation: ``(method name, args)``."""
    key = rng.choice(KEYS)
    kind = rng.choice((
        "write", "write", "check_and_write", "check_and_write", "read", "read",
        "read_attribute", "versions", "keys", "keys", "latest_timestamp",
        "contains", "erase_volatile",
    ))
    attributes = {rng.choice(ATTRIBUTES): rng.randint(0, 3)
                  for _ in range(rng.randint(1, 2))}
    if kind == "write":
        return kind, (key, attributes, timestamp(rng))
    if kind == "check_and_write":
        test_value = rng.choice((None, 0, 1, 2, 3))
        return kind, (key, rng.choice(ATTRIBUTES), test_value, attributes,
                      timestamp(rng))
    if kind == "read":
        return kind, (key, timestamp(rng))
    if kind == "read_attribute":
        return kind, (key, rng.choice(ATTRIBUTES), timestamp(rng), "default")
    if kind == "keys":
        return kind, (rng.choice(PREFIXES),)
    if kind == "erase_volatile":
        # Rare, or every sequence degenerates into an empty store.
        if rng.random() < 0.8:
            return "keys", ("",)
        return kind, rng.choice(((), (("data/",),), ((),)))
    return kind, (key,)


def call(store, kind: str, args: tuple):
    try:
        if kind == "contains":
            return args[0] in store
        return shape(getattr(store, kind)(*args))
    except RowVersionError as error:
        return ("RowVersionError", error.args, str(error))
    except StateHistoryError as error:
        return ("StateHistoryError", error.key, error.timestamp, error.retained)


def is_state(key: str) -> bool:
    return key.startswith(STATE_PREFIXES)


def expected(reference, kind: str, args: tuple):
    """What the store must answer, from the reference's answer.

    The reference is called every time, so ``op_counts`` stay comparable.
    """
    answer = call(reference, kind, args)
    if kind not in ("versions", "read", "read_attribute") or not is_state(args[0]):
        return answer
    if kind == "versions":
        return answer[-1:]
    key, at = args[0], args[1] if kind == "read" else args[2]
    retained = reference.latest_timestamp(key)
    if at is not None and retained is not None and at < retained:
        return ("StateHistoryError", key, at, retained)
    return answer


def forget_superseded_state(reference) -> None:
    """Cut every state row of *reference* to its current version."""
    for key in reference.keys():
        if is_state(key):
            reference._rows[key] = reference._rows[key][-1:]


@pytest.mark.parametrize("seed", range(40))
def test_random_sequences_agree_with_the_reference(seed):
    rng = random.Random(seed)
    store, reference = MultiVersionStore("s"), ReferenceStore("s")
    refused = 0
    for index in range(OPERATIONS):
        kind, args = step(rng)
        if kind == "erase_volatile":
            forget_superseded_state(reference)
        answer = expected(reference, kind, args)
        assert call(store, kind, args) == answer, (index, kind, args)
        refused += isinstance(answer, tuple) and answer[0] == "StateHistoryError"
    assert refused  # every sequence reads some state row below its version
    assert store.op_counts == reference.op_counts
    for key in KEYS:
        if is_state(key):
            assert shape(store.versions(key)) == shape(reference.versions(key)[-1:])
        else:
            assert shape(store.versions(key)) == shape(reference.versions(key))
    for prefix in PREFIXES:
        assert store.keys(prefix) == reference.keys(prefix)


WIDE_KEYS = ("data/g1/wide0", "data/g2/wide1")
WIDE_ATTRIBUTES = tuple(f"f{index:02d}" for index in range(48))


def preload_wide(store) -> None:
    """Two wide rows: a full image at −1 and a small change over it at 0,
    both of which ``erase_volatile`` keeps."""
    for key in WIDE_KEYS:
        store.write(key, {name: 0 for name in WIDE_ATTRIBUTES}, timestamp=-1)
        store.write(key, {WIDE_ATTRIBUTES[0]: 1, WIDE_ATTRIBUTES[1]: 1}, timestamp=0)


def wide_timestamp(rng: random.Random):
    """Mostly a past position; the rows reach ts ≈ 80 in a sequence."""
    return rng.choice((None, rng.randint(-2, 90), rng.randint(-2, 90) + 0.5))


def wide_step(rng: random.Random):
    """One random operation on a wide row: ``(method name, args)``."""
    key = rng.choice(WIDE_KEYS)
    kind = rng.choice((
        "write", "write", "write", "check_and_write", "check_and_write",
        "read", "read", "read_attribute", "read_attribute", "versions",
        "erase_volatile",
    ))
    attributes = {rng.choice(WIDE_ATTRIBUTES): rng.randint(0, 3)
                  for _ in range(rng.randint(1, 3))}
    if kind == "write":
        # Mostly auto-timestamped, so the rows grow; sometimes a stale one.
        return kind, (key, attributes, rng.choice((None, None, None, wide_timestamp(rng))))
    if kind == "check_and_write":
        test_value = rng.choice((None, 0, 1, 2, 3))
        return kind, (key, rng.choice(WIDE_ATTRIBUTES), test_value, attributes, None)
    if kind == "read":
        return kind, (key, wide_timestamp(rng))
    if kind == "read_attribute":
        attribute = rng.choice(WIDE_ATTRIBUTES + ("absent",))
        return kind, (key, attribute, wide_timestamp(rng), "default")
    if kind == "erase_volatile" and rng.random() < 0.1:
        return kind, ()
    return "versions", (key,)


@pytest.mark.parametrize("seed", range(40))
def test_wide_row_sequences_agree_with_the_reference(seed):
    assert len(WIDE_ATTRIBUTES) >= WIDE_ROW  # the rows really are wide
    rng = random.Random(seed)
    store, reference = MultiVersionStore("s"), ReferenceStore("s")
    preload_wide(store)
    preload_wide(reference)
    for index in range(OPERATIONS):
        kind, args = wide_step(rng)
        assert call(store, kind, args) == call(reference, kind, args), (index, kind, args)
    assert store.op_counts == reference.op_counts
    for key in WIDE_KEYS:
        assert shape(store.versions(key)) == shape(reference.versions(key))
        for version in store.versions(key):
            at = version.timestamp
            for name in WIDE_ATTRIBUTES:
                assert (store.read_attribute(key, name, at)
                        == reference.read_attribute(key, name, at)), (key, at, name)


def test_keys_serve_rows_created_and_erased_between_calls():
    store, reference = MultiVersionStore("s"), ReferenceStore("s")
    for target in (store, reference):
        target.write("data/g1/row0", {"a": 1}, timestamp=0)
        target.write("data/g1/row1", {"a": 1}, timestamp=3)
    assert store.keys("data/") == reference.keys("data/")
    for target in (store, reference):
        target.write("_paxos/g1/0000000001", {"seq": 1})
        target.erase_volatile()
    for prefix in PREFIXES:
        assert store.keys(prefix) == reference.keys(prefix)
    assert store.keys() == ["_paxos/g1/0000000001", "data/g1/row0"]
