"""Candidate pole sets: exact progressions, merging, hyperplane families."""
from __future__ import annotations

import copy
import hashlib
import itertools
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigpole import poles, signature
from sigpole.errors import DimensionError, DomainError
from sigpole.pairings import (
    Interval,
    PairPartition,
    PositionSet,
    Word,
    all_pair_partitions,
    bracket_count,
    enumerate_refining,
    format_pairs,
    format_position_set,
    parse_position_set,
)
from sigpole.poles import (
    PoleSet,
    RationalProgression,
    candidate_poles,
    candidate_poles_for_word,
    hyperplane_candidates,
    is_candidate,
    progression_of_set,
)
from sigpole.signature import candidate_pole_report
from sigpole.verify import DIAGRAM_PARTITION, DIAGRAM_ROWS

# (set spec, offset, step) for the five worked diagrams
DIAGRAM_PROGRESSIONS = [(spec, offset, step) for spec, _dbl, offset, step in DIAGRAM_ROWS]


def adjacent_partition(k: int) -> PairPartition:
    return PairPartition([(2 * l - 1, 2 * l) for l in range(1, k + 1)])


def test_progression_membership():
    pr = RationalProgression(1, 2)
    assert F(1, 2) in pr and F(0) in pr and F(-3) in pr
    assert F(1, 4) not in pr and F(3, 4) not in pr
    assert pr.index_of(F(-1)) == 3
    with pytest.raises(DomainError):
        RationalProgression(0, 0)


@pytest.mark.parametrize(
    "size,denom", [(-1, 2), (1.5, 2), (1, 2.0), (True, 2), (1, True), (1, 0), (F(1), 2)]
)
def test_progression_refuses_sizes_no_set_has(size, denom):
    # RationalProgression(-1, 2) would be {3/2 - l/2} and hold 0
    with pytest.raises(DomainError):
        RationalProgression(size, denom)


def test_empty_set_size_is_a_progression():
    assert RationalProgression(0, 2).offset == 1 and 1 in RationalProgression(0, 2)


@pytest.mark.parametrize("x", [float("nan"), float("inf"), None, "abc", 1j, [0]])
def test_membership_queries_refuse_non_rationals(x):
    p = adjacent_partition(2)
    ps = candidate_poles(p)
    for query in (
        lambda: is_candidate(p, x),
        lambda: x in ps,
        lambda: ps.locate(x),
        lambda: RationalProgression(1, 2).index_of(x),
        lambda: x in RationalProgression(1, 2),
    ):
        with pytest.raises(DomainError, match="not a rational"):
            query()


def test_membership_queries_take_strings_floats_and_fractions():
    p = adjacent_partition(1)
    ps = candidate_poles(p)
    for x in ("1/2", 0.5, F(1, 2), "0", 0, -1):
        assert x in ps and is_candidate(p, x)[0]
    for x in ("1/4", 0.25, F(1, 4)):
        assert x not in ps and not is_candidate(p, x)[0]
    assert RationalProgression(1, 2).index_of("-1") == 3


def test_progression_subset_relation():
    fine = RationalProgression(14, 16)
    coarse = RationalProgression(12, 4)
    assert coarse.is_subset_of(fine)
    assert not fine.is_subset_of(coarse)
    incomm = RationalProgression(13, 14)
    assert not incomm.is_subset_of(fine)
    assert not fine.is_subset_of(incomm)


def test_integer_subset_test_matches_membership():
    progressions = [
        RationalProgression(s, c) for c in range(1, 9) for s in range(17)
    ]
    for a in progressions:
        members = [a.offset - a.step * l for l in range(a.denom + 1)]
        for b in progressions:
            assert a.is_subset_of(b) == all(x in b for x in members), (a, b)


def test_progression_of_set_zero_bracket():
    assert progression_of_set(DIAGRAM_PARTITION, PositionSet([1])) is None


def test_progression_of_set_rejects_positions_past_size():
    with pytest.raises(DimensionError):
        progression_of_set(adjacent_partition(2), parse_position_set("3-9"))


def test_k1_candidate_poles():
    ps = candidate_poles(adjacent_partition(1))
    # contributions: S={2} and S={1,2}
    contributed = {pr for pr, _ in ps.contributions}
    assert contributed == {
        RationalProgression(1, 2),
        RationalProgression(2, 2),
    }
    # {0 - l/2} is absorbed into {1/2 - l/2} in the merged view
    assert ps.progressions == (RationalProgression(1, 2),)
    # the union is {1/2, 0, -1/2, -1, ...}
    for x in (F(1, 2), F(0), F(-1, 2), F(-1), F(-7, 2)):
        assert x in ps
    for x in (F(3, 4), F(1, 4), F(-1, 4)):
        assert x not in ps


def test_witnesses_recorded():
    ps = candidate_poles(adjacent_partition(1))
    w = ps.witnesses[RationalProgression(1, 2)]
    assert w == PositionSet([2])


def test_is_candidate_k1():
    p = adjacent_partition(1)
    ok, witness = is_candidate(p, F(1, 2))
    assert ok
    assert witness["l"] == 0
    assert witness["set"] == PositionSet([2])
    assert witness["bracket_count"] == 1
    ok, witness = is_candidate(p, F(3, 4))
    assert not ok and witness is None


def test_singleton_interval_attains_half():
    # every adjacent pair contributes the right-endpoint singleton at 1/2
    for k in (1, 2, 3):
        ps = candidate_poles(adjacent_partition(k))
        assert ps.max_offset == F(1, 2)
        ok, witness = is_candidate(adjacent_partition(k), F(1, 2))
        assert ok and witness["l"] == 0


def test_diagram_poleset_contains_all_contributions():
    ps = candidate_poles(DIAGRAM_PARTITION)
    for spec, offset, step in DIAGRAM_PROGRESSIONS:
        assert (offset, step) in {(q.offset, q.step) for q, _ in ps.contributions}
        # spot-check membership of a few members of each progression
        for l in (0, 1, 5):
            assert offset - step * l in ps
    assert ps.progressions == tuple(sorted(
        ps.progressions, key=lambda pr: (-pr.offset, pr.step)
    ))
    # canonical view keeps no nested progression
    for a in ps.progressions:
        for b in ps.progressions:
            assert a is b or not a.is_subset_of(b)


def subset_scan(partition: PairPartition) -> dict[tuple[int, int], int]:
    """(|S|, 2[S|P]) -> least bitmask, by brute force over all 2^(2k) sets."""
    ivmasks = [
        sum(1 << (p - 1) for p in iv.members()) for iv in partition.interval_image
    ]
    least: dict[tuple[int, int], int] = {}
    for mask in range(1, 1 << partition.size):
        c = sum(1 for m in ivmasks if mask & m == m)
        if c:
            least.setdefault((mask.bit_count(), 2 * c), mask)
    return least


def suffix_reach(partition: PairPartition) -> dict[tuple[int, int], int]:
    """(|S|, 2[S|P]) -> least bitmask, by a suffix-order DP that compares masks.

    reach[p] maps the key size * (n+1) + weight to the least mask over
    families of pairwise nonadjacent intervals inside [p, n], the empty
    family included.  A family either skips p or starts with an interval
    [p, b] followed by a family inside [b+2, n]; the interval's bits lie
    below the tail's, so the least mask of such a family is the interval's
    mask plus the least tail mask.  O(n^2) dict merges, each compare-and-keep.
    """
    n = partition.size
    # weight[a][b] = 2[[a, b]|P] = 2 * #{pair intervals inside [a, b]}
    weight = [[0] * (n + 1) for _ in range(n + 1)]
    for iv in partition.interval_image:
        weight[iv.lo][iv.hi] += 2
    for a in range(n - 1, 0, -1):
        row, inner = weight[a], weight[a + 1]
        for b in range(a + 1, n + 1):
            row[b] += row[b - 1] + inner[b] - inner[b - 1]
    base = n + 1
    above = 1 << n  # exceeds every mask
    reach = [{0: 0}] * (n + 3)
    for p in range(n, 0, -1):
        here = dict(reach[p + 1])
        get, row = here.get, weight[p]
        for b in range(p, n + 1):
            size = b - p + 1
            head = size * base + row[b]
            ivmask = ((1 << size) - 1) << (p - 1)
            for key, mask in reach[b + 2].items():
                key += head
                mask |= ivmask
                if mask < get(key, above):
                    here[key] = mask
        reach[p] = here
    realized = {}
    for key, mask in reach[1].items():
        size, w = divmod(key, base)
        if w:
            realized[size, w] = mask
    return realized


def test_enumerator_matches_suffix_reference_past_the_subset_scan():
    # least-mask witnesses past 2k = 16, where the subset scan cannot go:
    # seeded random matchings up to the 128-position bound, and the three
    # extreme shapes at 128
    rng = random.Random(28)
    partitions = []
    for size, count in ((24, 4), (32, 3), (48, 2), (64, 2), (128, 1)):
        for _ in range(count):
            perm = list(range(1, size + 1))
            rng.shuffle(perm)
            partitions.append(PairPartition(zip(perm[::2], perm[1::2])))
    partitions += [
        adjacent_partition(64),
        PairPartition([(i, 129 - i) for i in range(1, 65)]),  # fully nested
        PairPartition([(i, i + 64) for i in range(1, 65)]),  # fully crossing
    ]
    for p in partitions:
        # key for key and mask for mask
        assert poles._realized(p) == suffix_reach(p), format_pairs(p)


matchings = st.integers(min_value=1, max_value=8).flatmap(
    lambda k: st.permutations(range(1, 2 * k + 1))
).map(lambda perm: PairPartition(zip(perm[::2], perm[1::2])))


@given(matchings)
@settings(max_examples=60, deadline=None)
def test_enumerator_matches_subset_scan(partition):
    least = subset_scan(partition)
    ps = candidate_poles(partition)
    found = {}
    for pr, witness in ps.contributions:
        size, c2 = len(witness), 2 * bracket_count(witness, partition)
        assert (pr.offset, pr.step) == (F(c2 - size, c2), F(1, c2))
        found[(size, c2)] = sum(1 << (p - 1) for p in witness)
    # same realized keys, and every witness is the least set for its key
    assert found == least


def test_large_partition_witnesses():
    ps = candidate_poles(DIAGRAM_PARTITION)
    assert len(ps.contributions) > 5
    for pr, witness in ps.contributions:
        assert progression_of_set(DIAGRAM_PARTITION, witness) == pr


def count_calls(monkeypatch, name: str) -> list:
    """Patch ``poles.<name>`` to record the first argument of each call."""
    calls, real = [], getattr(poles, name)

    def counted(arg):
        calls.append(arg)
        return real(arg)

    monkeypatch.setattr(poles, name, counted)
    return calls


def test_report_computes_each_matching_once(monkeypatch):
    word = Word([1, 1, 1, 1, 2, 2])
    refining = enumerate_refining(word)
    assert len(refining) == 3
    expected = [candidate_poles(p) for p in refining]
    union = candidate_poles_for_word(word)
    enumerated = count_calls(monkeypatch, "_realized")
    report = candidate_pole_report(word)
    assert enumerated == list(refining)
    assert [row["pole_set"] for row in report["per_partition"]] == expected
    assert report["union"] == union
    assert report["union"].contributions == union.contributions
    enumerated.clear()
    candidate_poles_for_word(word)
    assert enumerated == list(refining)


def test_word_union_is_the_fold_of_its_matchings(monkeypatch):
    # every word class of length <= 8: the union equals the earliest-wins
    # fold of the refining matchings' pole sets, witnesses included, and
    # is built as one PoleSet
    built = count_calls(monkeypatch, "_pole_set")
    for length in (2, 4, 6, 8):
        for letters in restricted_growth_words(length):
            word = Word(letters)
            folded = PoleSet({})
            for p in enumerate_refining(word):
                folded = folded.union(candidate_poles(p))
            built.clear()
            union = candidate_poles_for_word(word)
            assert len(built) == 1, letters
            assert union == folded and union.contributions == folded.contributions, letters


def test_candidate_poles_for_word():
    # unique refining partition
    w = Word([1, 2, 1, 2])
    assert candidate_poles_for_word(w) == candidate_poles(
        PairPartition([(1, 3), (2, 4)])
    )
    # no refining partitions at all
    assert len(candidate_poles_for_word(Word([1, 2, 2, 3])).contributions) == 0
    # k=1 repeated letter
    ps = candidate_poles_for_word(Word([1, 1]))
    assert F(1, 2) in ps and F(0) in ps and F(-5, 2) in ps


def test_hyperplane_family_single_support():
    fam = hyperplane_candidates(2, [frozenset({2})])
    # S={2} triggers 1 + (2H-2) nonpositive; S={1,2} triggers 2 + (2H-2)
    assert fam.condition(frozenset({2})) == (1, 1)
    assert fam.condition(frozenset({1, 2})) == (2, 1)
    assert fam.condition(frozenset({1})) is None
    ps = fam.specialize_diagonal()
    for x in (F(1, 2), F(0), F(-1, 2)):
        assert x in ps
    assert F(1, 4) not in ps


def test_general_family_specialization_may_exceed_half():
    # near the origin the integrand is r^(3(2H-2)) * r, divergent for H <= 2/3;
    # the bound 1/2 holds only for the pair-interval families of matchings
    fam = hyperplane_candidates(2, [frozenset({1}), frozenset({2}), frozenset({1, 2})])
    assert fam.specialize_diagonal().max_offset == F(2, 3)


def test_hyperplane_empty_support():
    fam = hyperplane_candidates(3, [])
    assert len(fam) == 0
    assert fam.specialize_diagonal() == PoleSet({})


def test_poleset_merge_determinism_and_union():
    a = candidate_poles(adjacent_partition(2))
    b = candidate_poles(PairPartition([(1, 3), (2, 4)]))
    c = candidate_poles(PairPartition([(1, 4), (2, 3)]))
    u = a.union(b)
    assert u == b.union(a)
    for pr in list(a.progressions) + list(b.progressions):
        assert any(pr.offset - pr.step * l in u for l in (0,)), pr
    # one merge of many equals successive merges, earliest witness first
    many, folded = a.union(b, c), a.union(b).union(c)
    assert many == folded
    assert many.contributions == folded.contributions
    for pr, witness in many.contributions:
        first = next(ps for ps in (a, b, c) if pr in ps.witnesses)
        assert witness == first.witnesses[pr]


def test_no_floats_in_records():
    ps = candidate_poles(adjacent_partition(2))
    for rec in ps.as_records() + ps.contribution_records():
        assert isinstance(rec["offset"], str) and isinstance(rec["step"], str)


def restricted_growth_words(length: int) -> list[tuple[int, ...]]:
    """One word per relabelling class: letters in order of first occurrence."""
    words = [()]
    for _ in range(length):
        words = [w + (a,) for w in words for a in range(1, max(w, default=0) + 2)]
    return words


def test_large_matching_poles_pinned():
    # the enumerator's integer keys matter most past 2k = 10: sha256 over the
    # records of seeded random matchings at 2k = 18, 20, 22
    rng = random.Random(2018)
    h = hashlib.sha256()
    for size in (18, 20, 22):
        for _ in range(4):
            perm = list(range(1, size + 1))
            rng.shuffle(perm)
            ps = candidate_poles(PairPartition(zip(perm[::2], perm[1::2])))
            h.update(repr((ps.as_records(), ps.contribution_records())).encode())
    assert h.hexdigest() == (
        "92e0290895e3bdd2edfd1ce7087c3c4cdf5aeaa45fcea9e63f1e56d457e7f8ae"
    )


def test_exact_layer_pinned():
    # sha256 over every exact-layer output below, in the order printed: the
    # census of 2k <= 10 (pole records, witnesses, max offsets); every
    # length-8 word class, the 379 with a refining matching and the rest
    # (union, contributions with source pairs, each per-partition pole set);
    # and the diagonal specialization of each hyperplane family at 2k <= 6
    h = hashlib.sha256()
    for size in (2, 4, 6, 8, 10):
        for p in all_pair_partitions(size):
            ps = candidate_poles(p)
            h.update(repr((ps.as_records(), ps.contribution_records(), ps.max_offset)).encode())
    words = [Word(w) for w in restricted_growth_words(8)]
    assert sum(1 for w in words if enumerate_refining(w)) == 379
    for word in words:
        report = candidate_pole_report(word)
        per_partition = [row["pole_set"].contribution_records()
                         for row in report["per_partition"]]
        h.update(repr(
            (report["union"].as_records(), report["contributions"], per_partition)
        ).encode())
    for size in (2, 4, 6):
        for p in all_pair_partitions(size):
            support = [frozenset(iv.members()) for iv in p.interval_image]
            fam = hyperplane_candidates(size, support)
            h.update(repr(fam.specialize_diagonal().contribution_records()).encode())
    assert h.hexdigest() == (
        "dee40d18262213a1e603ac6eb3d19647f4c7c01888cfbea7a0a43e5c16a9729d"
    )


def test_as_record_is_the_fraction_strings():
    for denom in range(1, 65):
        for size in range(129):
            pr = RationalProgression(size, denom)
            assert pr.as_record() == {"offset": str(pr.offset), "step": str(pr.step)}


def test_format_position_set_is_the_interval_join():
    def runs_of(s):
        # consecutive members share p - index
        groups = itertools.groupby(enumerate(s), key=lambda ip: ip[1] - ip[0])
        return [[p for _, p in g] for _, g in groups]

    masks = list(range(1 << 12)) + [
        1 << 65535, (1 << 65536) - 1, (0b1011 << 65530) | 0b110101, int("10" * 32768, 2)
    ]
    for mask in masks:
        s = PositionSet.from_mask(mask)
        text = ",".join(str(Interval(run[0], run[-1])) for run in runs_of(s))
        assert format_position_set(s) == text, mask
        assert parse_position_set(text) == s


def test_report_pairs_are_the_first_contributing_matching():
    for letters in restricted_growth_words(8):
        word = Word(letters)
        report = candidate_pole_report(word)
        refining = enumerate_refining(word)
        sets = [candidate_poles(p) for p in refining]
        union = report["union"]
        assert len(report["contributions"]) == len(union.contributions)
        for row, (pr, w) in zip(report["contributions"], union.contributions):
            first = next(i for i, ps in enumerate(sets) if pr in ps.witnesses)
            assert row["pairs"] == format_pairs(refining[first])
            assert w == sets[first].witnesses[pr]


def test_candidate_poles_wraps_witness_masks(monkeypatch):
    # witnesses come straight from the enumerator's masks: no set is rebuilt
    # position by position
    calls = []
    init = PositionSet.__init__

    def counting_init(self, members):
        calls.append(1)
        init(self, members)

    monkeypatch.setattr(PositionSet, "__init__", counting_init)
    witnesses = 0
    for size in (2, 4, 6, 8, 10):
        for p in all_pair_partitions(size):
            witnesses += len(candidate_poles(p).contributions)
    assert witnesses > 0 and not calls


def test_pole_set_copy_and_pickle_round_trip():
    ps = candidate_poles(PairPartition([(1, 4), (2, 6), (3, 5)]))
    for twin in (copy.copy(ps), copy.deepcopy(ps), pickle.loads(pickle.dumps(ps))):
        assert twin == ps
        assert twin.contributions == ps.contributions
        assert twin.witnesses == ps.witnesses
        assert all(type(pr) is RationalProgression for pr in twin.witnesses)
    pr = RationalProgression(3, 8)
    for twin in (copy.copy(pr), copy.deepcopy(pr), pickle.loads(pickle.dumps(pr))):
        assert type(twin) is RationalProgression
        assert twin == pr and hash(twin) == hash(pr) and twin.as_record() == pr.as_record()


def test_enumerator_wraps_the_public_values():
    # the unchecked wrapping of the enumerator's ints gives the objects the
    # checked constructors give, for every key of the 2k <= 10 census
    for size in (2, 4, 6, 8, 10):
        for p in all_pair_partitions(size):
            realized = poles._realized(p)
            contributions = candidate_poles(p).contributions
            assert len(contributions) == len(realized)
            for pr, w in contributions:
                key = pr.size, pr.denom
                twin, set_twin = RationalProgression(*key), PositionSet.from_mask(realized[key])
                assert type(pr) is RationalProgression and type(w) is PositionSet
                assert pr == twin and hash(pr) == hash(twin)
                assert w == set_twin and hash(w) == hash(set_twin)


def test_merged_view_keeps_the_maximal_progressions():
    # the merged view holds the progressions that lie in no other one, in
    # descending offset then ascending step, for any mapping
    rng = random.Random(23)
    for _ in range(300):
        prs = {RationalProgression(rng.randrange(40), rng.randrange(1, 25))
               for _ in range(rng.randrange(1, 30))}
        ps = PoleSet({pr: PositionSet.from_mask(i) for i, pr in enumerate(prs)})
        order = sorted(prs, key=lambda pr: (-pr.offset, pr.step))
        assert [pr for pr, _ in ps.contributions] == order
        assert ps.progressions == tuple(
            pr for pr in order if not any(pr != q and pr.is_subset_of(q) for q in prs)
        )


def test_progression_is_its_int_pair():
    pr = RationalProgression(3, 8)
    # a tuple subclass: equal to, and hashed as, the plain pair
    assert pr == (3, 8) and hash(pr) == hash((3, 8)) and {pr: 1}[(3, 8)] == 1
    assert pr != (3, 4) and pr != RationalProgression(3, 4)
    assert (pr.size, pr.denom) == (3, 8)
    assert (pr.offset, pr.step) == (F(5, 8), F(1, 8))
    assert str(pr) == "{5/8 - 1/8*l}"
    assert repr(pr) == "RationalProgression(size=3, denom=8)"
    assert eval(repr(pr)) == pr
    for name in ("size", "denom", "other"):
        with pytest.raises(AttributeError):
            setattr(pr, name, 1)
    assert (pr.size, pr.denom) == (3, 8)
    assert RationalProgression(size=3, denom=8) == pr
