"""Tests for the combination search (§5)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.combine import best_combination, combine, greedy_combination
from repro.model import is_serializable_sequence
from tests.helpers import txn


class TestBestCombination:
    def test_alone_when_no_candidates(self):
        own = txn("me", writes={"a": 1})
        assert best_combination(own, []) == [own]

    def test_combines_disjoint_transactions(self):
        own = txn("me", reads={"a": 0}, writes={"b": 1})
        other = txn("o1", reads={"c": 0}, writes={"d": 1})
        result = best_combination(own, [other])
        assert len(result) == 2
        assert own in result and other in result

    def test_orders_around_conflicts(self):
        # other reads what own writes: other must precede own.
        own = txn("me", writes={"a": 1})
        other = txn("o1", reads={"a": 0}, writes={"b": 1})
        result = best_combination(own, [other])
        assert result == [other, own]

    def test_excludes_hopeless_conflicts(self):
        # Mutual read-write conflict: no order works.
        own = txn("me", reads={"a": 0}, writes={"b": 1})
        other = txn("o1", reads={"b": 0}, writes={"a": 1})
        result = best_combination(own, [other])
        assert result == [own]

    def test_own_always_included(self):
        own = txn("me", reads={"a": 0}, writes={"a": 1})
        others = [txn(f"o{i}", writes={"a": i}) for i in range(3)]
        result = best_combination(own, others)
        assert any(member.tid == "me" for member in result)

    def test_maximizes_length(self):
        own = txn("me", writes={"x": 1})
        compatible = [txn(f"o{i}", writes={f"w{i}": 1}) for i in range(3)]
        # One conflicting candidate that would block a shorter greedy pick.
        conflicting = txn("bad", reads={"x": 0}, writes={"w0": 9})
        result = best_combination(own, compatible + [conflicting])
        assert len(result) == 4 or len(result) == 5
        assert is_serializable_sequence(result)

    def test_duplicates_removed(self):
        own = txn("me", writes={"a": 1})
        other = txn("o1", writes={"b": 1})
        result = best_combination(own, [other, other, other])
        assert len(result) == 2


class TestGreedy:
    def test_one_pass_keeps_validity(self):
        own = txn("me", writes={"a": 1})
        candidates = [
            txn("o1", reads={"a": 0}),       # conflicts with own if after
            txn("o2", writes={"b": 1}),       # fine
            txn("o3", reads={"b": 0}),        # conflicts with o2 if after
        ]
        result = greedy_combination(own, candidates)
        assert result[0] == own
        assert is_serializable_sequence(result)

    def test_greedy_never_empty(self):
        own = txn("me", writes={"a": 1})
        assert greedy_combination(own, []) == [own]


class TestDispatch:
    def test_small_sets_use_exhaustive(self):
        own = txn("me", writes={"a": 1})
        other = txn("o1", reads={"a": 0})
        # Exhaustive finds the [other, own] ordering; greedy (own first)
        # would drop other.
        assert combine(own, [other]) == [other, own]

    def test_large_sets_use_greedy(self):
        own = txn("me", writes={"a": 1})
        others = [txn(f"o{i}", reads={"a": 0}) for i in range(6)]
        result = combine(own, others)
        # Greedy starts from [own]; every candidate reads own's write, so
        # none can follow it.
        assert result == [own]


transactions = st.builds(
    lambda tid, reads, writes: txn(
        tid,
        reads={a: 0 for a in reads},
        writes={a: 1 for a in writes},
    ),
    tid=st.uuids().map(str),
    reads=st.sets(st.sampled_from("abcdef"), max_size=3),
    writes=st.sets(st.sampled_from("abcdef"), max_size=3),
)


@given(own=transactions, candidates=st.lists(transactions, max_size=4))
@settings(max_examples=200, deadline=None)
def test_any_combination_is_serializable_and_contains_own(own, candidates):
    for strategy in (best_combination, greedy_combination):
        result = strategy(own, candidates)
        assert is_serializable_sequence(result)
        assert sum(1 for member in result if member.tid == own.tid) == 1
        # No duplicates.
        tids = [member.tid for member in result]
        assert len(tids) == len(set(tids))


@given(own=transactions, candidates=st.lists(transactions, max_size=4))
@settings(max_examples=200, deadline=None)
def test_exhaustive_at_least_as_long_as_greedy(own, candidates):
    exhaustive = best_combination(own, candidates)
    greedy = greedy_combination(own, candidates)
    assert len(exhaustive) >= len(greedy)
