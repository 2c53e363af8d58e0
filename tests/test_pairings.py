"""Combinatorics layer: interval map, refinement, bracket counts, Aug/Def."""
from __future__ import annotations

import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigpole import pairings
from sigpole.errors import DimensionError, InvalidPairError, ParseError, SizeError
from sigpole.pairings import (
    Interval,
    PairPartition,
    PositionSet,
    Word,
    all_pair_partitions,
    augmentation,
    bracket_count,
    bracket_count_via_aug_def,
    deficiency,
    double_factorial,
    enumerate_refining,
    format_pairs,
    format_position_set,
    format_word,
    interval_of_pair,
    parse_pairs,
    parse_position_set,
    parse_word,
    refines,
)
from sigpole.verify import DIAGRAM_PARTITION, TEN_LETTER_WORD


def test_interval_of_pair_examples():
    assert interval_of_pair(10, 6) == Interval(7, 10)
    assert interval_of_pair(7, 3) == Interval(4, 7)
    assert interval_of_pair(1, 2) == Interval(2, 2)
    # adjacent pair is always the right-endpoint singleton
    for j in range(1, 9):
        assert interval_of_pair(j, j + 1) == Interval(j + 1, j + 1)


def test_interval_of_pair_errors():
    with pytest.raises(InvalidPairError):
        interval_of_pair(3, 3)
    with pytest.raises(InvalidPairError):
        interval_of_pair(0, 2)
    with pytest.raises(InvalidPairError):
        interval_of_pair(1, 11, size=10)
    # a position is an integer, never truncated: 1.5 is not 1
    for a, b in ((1.5, 3), (1, 2.0), (True, 3)):
        with pytest.raises(InvalidPairError, match="positions must be integers"):
            interval_of_pair(a, b)


def test_interval_set_worked_examples():
    p1 = PairPartition([(4, 6), (5, 2), (1, 3)])
    assert set(p1.interval_image) == {Interval(5, 6), Interval(3, 5), Interval(2, 3)}
    p2 = PairPartition([(1, 6), (2, 5), (3, 4)])
    assert set(p2.interval_image) == {Interval(2, 6), Interval(3, 5), Interval(4, 4)}
    p3 = PairPartition([(1, 4), (2, 5), (3, 6)])
    assert set(p3.interval_image) == {Interval(2, 4), Interval(3, 5), Interval(4, 6)}
    for p in (p1, p2, p3):
        assert len(p.interval_image) == p.k
    # positions are integers, not bools or floats equal to one
    for pairs in ([(1.0, 2.0)], [(True, 2)], [(1, 2), (3, 4.5)]):
        with pytest.raises(InvalidPairError, match="positions must be integers"):
            PairPartition(pairs)


def test_refines_constant_word_and_dimension_error():
    w = Word([7] * 6)
    for p in all_pair_partitions(6):
        assert refines(p, w)
    with pytest.raises(DimensionError):
        refines(PairPartition([(1, 2)]), w)


def test_enumerate_refining_small_cases():
    assert enumerate_refining(Word([1, 1])) == [PairPartition([(1, 2)])]
    assert len(enumerate_refining(Word([1, 1, 1, 1]))) == 3
    assert enumerate_refining(Word([1, 2, 1, 2])) == [PairPartition([(1, 3), (2, 4)])]
    assert enumerate_refining(Word([1, 2, 2, 3])) == []


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_enumerate_refining_constant_word_count(k):
    got = enumerate_refining(Word([1] * (2 * k)))
    assert len(got) == double_factorial(2 * k - 1)
    assert len(set(got)) == len(got)
    assert got == sorted(got)
    assert got == all_pair_partitions(2 * k)


def test_refines_matches_level_set_membership():
    # refinement is exactly monochromaticity of every pair
    for w in (TEN_LETTER_WORD, Word([1, 2, 2, 1, 3, 3])):
        for p in all_pair_partitions(len(w)):
            mono = all(
                any(a in b and bb in b for b in w.level_sets)
                for (a, bb) in p.pairs
            )
            assert refines(p, w) == mono


def test_bracket_count_edge_cases():
    p = DIAGRAM_PARTITION
    assert bracket_count(PositionSet([]), p) == 0
    assert bracket_count(PositionSet(range(1, 19)), p) == p.k
    assert bracket_count_via_aug_def(PositionSet([]), p) == 0


def test_augmentation_examples():
    p = DIAGRAM_PARTITION
    # 1 is paired with 7, which lies inside [2,8]
    assert augmentation(Interval(2, 8), p) == PositionSet(range(1, 9))
    # 3 is paired with 5, which lies inside [4,6]
    assert augmentation(Interval(4, 6), p) == PositionSet(range(3, 7))
    # no left-adjacent element exists
    assert augmentation(Interval(1, 5), p) == PositionSet(range(1, 6))
    # left neighbour paired outside: [3,4], neighbour 2 pairs with 8
    assert augmentation(Interval(3, 4), p) == PositionSet([3, 4])


def test_deficiency_examples():
    p = DIAGRAM_PARTITION
    # full interval: everything is paired inside
    assert deficiency(Interval(1, 18), p) == PositionSet([])
    # second diagram: 8 deficient points across the four components
    s = parse_position_set("3-4,6-11,13-14,17-18")
    total = sum(len(deficiency(iv, p)) for iv in s.maximal_intervals)
    assert total == 8
    # singleton not paired to its left neighbour
    assert deficiency(Interval(12, 12), p) == PositionSet([12])
    # singleton paired to its left neighbour is augmented, not deficient
    assert deficiency(Interval(14, 14), p) == PositionSet([])


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_identity_randomized_larger(data):
    k = data.draw(st.integers(min_value=2, max_value=9))
    size = 2 * k
    perm = data.draw(st.permutations(list(range(1, size + 1))))
    p = PairPartition((perm[2 * i], perm[2 * i + 1]) for i in range(k))
    members = data.draw(st.sets(st.integers(min_value=1, max_value=size)))
    s = PositionSet(members)
    assert bracket_count(s, p) == bracket_count_via_aug_def(s, p)
    # the ratio bound behind the 1/2 cap on candidate offsets
    if bracket_count(s, p) > 0:
        assert len(s) >= bracket_count(s, p)


@given(st.integers(min_value=1, max_value=5))
@settings(deadline=None)
def test_interval_image_shape(k):
    for p in all_pair_partitions(2 * k)[:20]:
        image = p.interval_image
        assert len(image) == k
        assert all(2 <= iv.lo <= iv.hi <= 2 * k for iv in image)


def test_position_set_decomposition():
    s = parse_position_set("2-8,10-11,13-17")
    assert [str(iv) for iv in s.maximal_intervals] == ["2-8", "10-11", "13-17"]
    assert len(s) == 14
    # components are gapped by at least one missing position
    for a, b in itertools.pairwise(s.maximal_intervals):
        assert b.lo - a.hi >= 2
    # merging of touching tokens
    assert parse_position_set("1-2,3-4") == PositionSet([1, 2, 3, 4])
    assert len(parse_position_set("1-2,3-4").maximal_intervals) == 1


def test_round_trip_formats():
    assert format_word(TEN_LETTER_WORD) == "6,3,1,3,6,6,1,5,6,5"
    assert format_pairs(DIAGRAM_PARTITION) == "1-7,2-8,3-5,4-6,9-11,10-18,12-17,13-14,15-16"
    s = parse_position_set("2-8,12,15-16")
    assert parse_position_set(format_position_set(s)) == s


def test_parse_errors():
    for bad in ("", "1,2,x", "0,1"):
        with pytest.raises(ParseError):
            parse_word(bad)
    for bad in ("", "1-1", "1-2,2-3", "1-2,4-5", "a-b"):
        with pytest.raises(ParseError):
            parse_pairs(bad)
    for bad in ("x", "5-3"):
        with pytest.raises(ParseError):
            parse_position_set(bad)
    # an empty item is a typo, never dropped: "1,,2" is not the word 1,2
    for parse, bad in (
        (parse_word, "1,,1"), (parse_word, "1,1,"), (parse_word, ",1,1"),
        (parse_word, "1, ,1"), (parse_pairs, "1-2,,3-4"), (parse_pairs, "1-2,"),
        (parse_pairs, ","), (parse_position_set, "1,,2"), (parse_position_set, "1,"),
        (parse_position_set, ","),
    ):
        with pytest.raises(ParseError, match="empty item") as info:
            parse(bad)
        assert repr(bad) in str(info.value)
    # whitespace around an item stays allowed, and a blank set is empty
    assert parse_word(" 1 , 2,1 ,2 ") == Word([1, 2, 1, 2])
    assert parse_pairs(" 1-3 ,2-4 ") == PairPartition([(1, 3), (2, 4)])
    assert parse_position_set(" 1-2 , 4 ") == PositionSet([1, 2, 4])
    assert parse_position_set("") == parse_position_set(" ") == PositionSet([])
    # a number is ASCII digits only: no sign, underscore or other script's
    # digits, which int() would read as another spelling of a number
    for parse, bad in (
        (parse_word, "1_0,1_0"), (parse_word, "\uff11,\uff11"), (parse_word, "+1,+1"),
        (parse_word, "1,\u0661"), (parse_word, "1 1,2"),
        (parse_pairs, "1-1_0,2-3,4-5,6-7,8-9"), (parse_pairs, "+1-2"),
        (parse_pairs, "1-\uff12"), (parse_pairs, "1 -2"),
        (parse_position_set, "1_2"), (parse_position_set, "+1"),
        (parse_position_set, "1-\uff12"), (parse_position_set, "-1"),
    ):
        with pytest.raises(ParseError) as info:
            parse(bad)
        assert repr(bad) in str(info.value)
    # leading zeros stay allowed
    assert parse_word("01,1") == Word([1, 1])
    assert parse_pairs("01-002") == PairPartition([(1, 2)])
    assert parse_position_set("03-4") == PositionSet([3, 4])


def test_all_pair_partitions_refuses_past_the_limit(monkeypatch):
    # the limit is enumerate_refining's 13!! = 135,135, so [1,16] is refused,
    # before any matching is built
    def unbuilt(block):
        raise AssertionError("a matching was built")

    with monkeypatch.context() as patch:
        patch.setattr(pairings, "_pairings_of", unbuilt)
        for size in (16, 30, 10**9):
            with pytest.raises(SizeError):
                all_pair_partitions(size)
    # at a limit of 5!! = 15 the 15 matchings of [1,6] pass and [1,8] does not
    monkeypatch.setattr(pairings, "_MAX_REFINING", 15)
    assert len(all_pair_partitions(6)) == 15
    with pytest.raises(SizeError):
        all_pair_partitions(8)


def test_word_level_sets_and_relabel():
    w = parse_word("6,3,1,3,6,6,1,5,6,5")
    assert w.level_sets == (
        frozenset({1, 5, 6, 9}),
        frozenset({2, 4}),
        frozenset({3, 7}),
        frozenset({8, 10}),
    )
    assert w.canonical_relabel() == parse_word("1,2,3,2,1,1,3,4,1,4")
    # a letter is a positive integer: 1.5 is not truncated to 1, True is not 1
    for letters in ([1.5, 1.5], [True, True], [1, 1, 2, 2.0], ["1", "1"]):
        with pytest.raises(ParseError, match="letters must be positive integers"):
            Word(letters)


def test_partition_reflection():
    p = PairPartition([(1, 6), (2, 4), (3, 7), (5, 9), (8, 10)])
    q = p.reversed()
    assert q == PairPartition([(5, 10), (7, 9), (4, 8), (2, 6), (1, 3)])
    assert q.reversed() == p


def test_position_set_mask_format():
    for m in range(1 << 12):
        s = PositionSet.from_mask(m)
        positions = list(s)
        assert positions == sorted(positions)
        assert s == PositionSet(positions) and hash(s) == hash(PositionSet(positions))
        assert s.mask == m and len(s) == m.bit_count()
        assert all(p in s for p in positions) and 0 not in s and -1 not in s
        assert parse_position_set(format_position_set(s)) == s
        runs = s.maximal_intervals
        assert [p for iv in runs for p in iv.members()] == positions
        # maximal: consecutive runs are gapped by at least one missing position
        for a, b in itertools.pairwise(runs):
            assert b.lo - a.hi >= 2


def test_position_bound():
    top = 1 << 16
    assert Interval(top, top).mask == 1 << (top - 1)
    assert PositionSet([top]) == PositionSet.from_mask(1 << (top - 1))
    with pytest.raises(InvalidPairError):
        Interval(1, top + 1)
    with pytest.raises(InvalidPairError):
        PositionSet([top + 1])
    for bad in (-1, 1 << top):
        with pytest.raises(InvalidPairError):
            PositionSet.from_mask(bad)
    with pytest.raises(InvalidPairError, match="must be >= 1"):
        PositionSet([0])
    for make in (lambda: PositionSet([1.7]), lambda: PositionSet([True]),
                 lambda: Interval(1.5, 2), lambda: Interval(1, True)):
        with pytest.raises(InvalidPairError, match="positions must be integers"):
            make()
    for spec in (str(top + 1), f"1-{top + 1}", "1-4000000000"):
        with pytest.raises(ParseError, match="exceeds"):
            parse_position_set(spec)


@pytest.mark.parametrize("size", [2, 4, 6, 8])
def test_bracket_count_matches_interval_containment(size):
    for p in all_pair_partitions(size):
        image = [set(iv.members()) for iv in p.interval_image]
        for bits in range(1 << size):
            members = {q for q in range(1, size + 1) if bits >> (q - 1) & 1}
            expected = sum(1 for iv in image if iv <= members)
            assert bracket_count(PositionSet(members), p) == expected, (p, members)


@pytest.mark.parametrize("value", [
    PositionSet([2, 3, 5, 70]),
    Word([3, 1, 3, 1]),
    PairPartition([(1, 3), (2, 4)]),
])
def test_copy_and_pickle_round_trip(value):
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert twin == value and type(twin) is type(value)
