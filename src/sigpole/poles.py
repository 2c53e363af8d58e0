"""Exact candidate-singularity sets for pair-partition simplex integrals.

Everything here is arbitrary-precision rational arithmetic; no floating point
enters this module.  A candidate pole of the continuation attached to a pair
partition P is a rational of the form 1 - (|S| + l) / (2 [S|P]) with l >= 0,
for a position set S with positive bracket count, so one progression of
candidates is the integer pair (|S|, 2[S|P]); its offset and step are exact
Fractions.  No claim is made that the candidates are actual poles.

One enumerator finds the realized pairs (|S|, 2[S|P]) at every size: a
dynamic program over families of pairwise nonadjacent intervals.  Such
families are in bijection with position sets through the maximal interval
decomposition, and [S|P] adds over it, so the work stays polynomial in 2k.
Each realized pair is witnessed by its least position set in the bitmask
order (position p is bit p-1), so witnesses do not depend on how the sets
were enumerated.  The program runs in prefix order: for q = 1..2k it holds
the pairs realized inside [1, q] as the set bits of one int, and grows it by
one shift per last interval [a, q].  Two dominance facts of the bitmask
order (a family that avoids q lies below every family that uses q, and of
two families ending at q the one whose last interval starts later is
smaller) make the first witness found for a pair its least, so no mask is
ever compared.  Witnesses are masks, the storage format of PositionSet, so
each is wrapped in O(1) with no conversion.

The layer works on plain ints until output time.  A progression is the int
pair itself, a tuple subclass, so it is built, hashed and compared in C.  The
enumerator keys each pair by one int; candidate_poles sorts its output once
as int tuples, by integer ranks over a common denominator, tests absorption
on the denominators, and wraps each progression and witness once, in final
order.  Records reduce offsets with math.gcd.  Fractions appear only where a
caller reads ``offset`` or ``step`` or asks a membership query.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .errors import DimensionError, DomainError, SizeError
from .pairings import (
    Interval,
    PairPartition,
    PositionSet,
    Word,
    bracket_count,
    enumerate_refining,
    format_position_set,
)

__all__ = [
    "RationalProgression",
    "PoleSet",
    "union_with_sources",
    "HyperplaneFamily",
    "progression_of_set",
    "candidate_poles",
    "candidate_poles_for_word",
    "is_candidate",
    "hyperplane_candidates",
]


class RationalProgression(tuple):
    """The decreasing progression {1 - (size + l)/denom : l = 0, 1, 2, ...}.

    A set S gives size |S| and denom 2[S|P]; offset and step read as Fractions.
    The value is the int pair itself: a tuple subclass over (size, denom), so
    construction, hashing and equality run in C, and a progression compares
    equal to, orders like and hashes like the plain pair (size, denom).  The
    order is the pair's, not the offset's.
    """

    __slots__ = ()

    def __new__(cls, size: int, denom: int) -> RationalProgression:
        if type(size) is not int or type(denom) is not int:
            raise DomainError(
                f"progression size {size!r} and denominator {denom!r} must be ints"
            )
        if size < 0:
            raise DomainError(f"progression size {size} is negative")
        if denom < 1:
            raise DomainError(f"progression denominator {denom} is not positive")
        return tuple.__new__(cls, (size, denom))

    size = property(itemgetter(0), doc="|S|")
    denom = property(itemgetter(1), doc="2[S|P]")

    def __reduce__(self):
        return RationalProgression, tuple(self)

    def __repr__(self) -> str:
        return f"RationalProgression(size={self[0]}, denom={self[1]})"

    @property
    def offset(self) -> Fraction:
        return Fraction(self[1] - self[0], self[1])

    @property
    def step(self) -> Fraction:
        return Fraction(1, self[1])

    def __contains__(self, x) -> bool:
        return self.index_of(x) is not None

    def index_of(self, x) -> int | None:
        """The l with 1 - (size + l)/denom == x, or None."""
        size, denom = self
        l = denom * (1 - _rational(x)) - size
        if l >= 0 and l.denominator == 1:
            return int(l)
        return None

    def is_subset_of(self, other: RationalProgression) -> bool:
        """denom divides other.denom, and the offset is a member of other."""
        (size, denom), (other_size, other_denom) = self, other
        return other_denom % denom == 0 and size * (other_denom // denom) >= other_size

    def as_record(self) -> dict[str, str]:
        """The strings of ``offset`` and ``step``, reduced on ints."""
        size, denom = self
        g = math.gcd(denom - size, denom)
        return {"offset": _ratio((denom - size) // g, denom // g), "step": _ratio(1, denom)}

    def __str__(self) -> str:
        return f"{{{self.offset} - {self.step}*l}}"


def _rational(x) -> Fraction:
    """x as an exact Fraction; DomainError when x names no rational number."""
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{x!r} is not a rational number") from None


def _ratio(num: int, den: int) -> str:
    """str(Fraction(num, den)) for a reduced num/den with den > 0."""
    return str(num) if den == 1 else f"{num}/{den}"


class PoleSet:
    """A finite union of rational progressions, each with a witness set.

    Two views are kept.  ``contributions`` lists every progression with the
    witness position set whose bracket count produced it.  ``progressions``
    is the canonical merged form: a progression contained in a kept one is
    absorbed, so no stored progression is a subset of another.  Both are
    sorted by descending offset, then ascending step.  Equality compares the
    merged form (the two views describe the same set of numbers).

    Both views come from one sort on integer tuples: over one common
    denominator L, offsets compare as the ranks size * (L // denom), and
    (rank, -denom) is distinct for distinct progressions.  ``candidate_poles``
    sorts the enumerator's ints so and wraps each progression and witness
    once, in final order; this constructor sorts any mapping the same way.
    """

    __slots__ = ("progressions", "contributions", "witnesses")

    def __init__(self, witnesses: Mapping[RationalProgression, PositionSet]):
        lcm = math.lcm(*(pr[1] for pr in witnesses))
        order = sorted(
            (pr[0] * (lcm // pr[1]), -pr[1], pr, w) for pr, w in witnesses.items()
        )
        contributions = tuple((pr, w) for _, _, pr, w in order)
        self._fill(contributions, [-neg for _, neg, _, _ in order])

    def _fill(
        self,
        contributions: tuple[tuple[RationalProgression, PositionSet], ...],
        denoms: Sequence[int],
    ) -> None:
        """Store the three views, from the contributions in final order and
        the denom of each.

        Every absorber of a progression comes before it in that order: its
        offset is higher, or equal with a finer step.  So a progression is
        absorbed exactly when its denom divides the denom of an earlier kept
        one.  A later progression of a denom is absorbed by the first one or
        by what absorbs the first, so only the first of each denom is tested,
        against the divisors of the kept denoms.
        """
        distinct = dict.fromkeys(denoms)
        covered: set[int] = set()
        progressions = []
        for d in distinct:
            if d not in covered:
                covered.update(e for e in distinct if d % e == 0)
                progressions.append(contributions[denoms.index(d)][0])
        object.__setattr__(self, "progressions", tuple(progressions))
        object.__setattr__(self, "contributions", contributions)
        object.__setattr__(self, "witnesses", dict(contributions))

    def __setattr__(self, *a):
        raise AttributeError("PoleSet is immutable")

    def __reduce__(self):
        return PoleSet, (self.witnesses,)

    def __len__(self) -> int:
        return len(self.progressions)

    def __iter__(self):
        return iter(self.progressions)

    def __eq__(self, other) -> bool:
        return isinstance(other, PoleSet) and self.progressions == other.progressions

    def __contains__(self, x) -> bool:
        x = _rational(x)
        return any(x in pr for pr in self.progressions)

    def locate(self, x) -> tuple[RationalProgression, int] | None:
        """The first contributed progression containing x, with its index l."""
        x = _rational(x)
        for pr, _ in self.contributions:
            l = pr.index_of(x)
            if l is not None:
                return pr, l
        return None

    @property
    def max_offset(self) -> Fraction | None:
        return self.progressions[0].offset if self.progressions else None

    def union(self, *others: PoleSet) -> PoleSet:
        """One merge of this set with the others; the earliest witness wins."""
        pole_sets = (self, *others)
        return union_with_sources(pole_sets, range(len(pole_sets)))[0]

    def as_records(self) -> list[dict[str, str]]:
        return [pr.as_record() for pr in self.progressions]

    def contribution_records(self) -> list[dict]:
        return [
            {**pr.as_record(), "set": format_position_set(w), "set_size": len(w)}
            for pr, w in self.contributions
        ]

    def __repr__(self) -> str:
        return f"PoleSet({len(self.progressions)} progressions, max={self.max_offset})"


def union_with_sources(
    pole_sets: Sequence[PoleSet], sources: Sequence
) -> tuple[PoleSet, dict[RationalProgression, object]]:
    """The union of the pole sets, and the source of each progression.

    One earliest-wins pass: each progression keeps the witness, and the
    entry of ``sources``, of the first pole set that holds it.  The pass
    runs backwards so that earlier sets overwrite later ones; dict updates
    from dicts reuse the stored key hashes.
    """
    witnesses: dict[RationalProgression, PositionSet] = {}
    source: dict[RationalProgression, object] = {}
    for ps, src in zip(reversed(pole_sets), reversed(sources)):
        witnesses.update(ps.witnesses)
        source.update(dict.fromkeys(ps.witnesses, src))
    return PoleSet(witnesses), source


def progression_of_set(
    partition: PairPartition, s: PositionSet
) -> RationalProgression | None:
    """The progression contributed by one position set; None if [S|P] = 0.

    Raises DimensionError when the set reaches past the partition's size.
    """
    if s.mask.bit_length() > partition.size:
        raise DimensionError(
            f"set {format_position_set(s)} leaves the positions 1..{partition.size}"
        )
    c = bracket_count(s, partition)
    return RationalProgression(len(s), 2 * c) if c else None


def _realized(partition: PairPartition) -> dict[tuple[int, int], int]:
    """(|S|, 2[S|P]) -> least witness bitmask, over sets with [S|P] > 0.

    A family of pairwise nonadjacent intervals has the key size * (n+1) +
    weight, with weight = 2 * #{pair intervals inside one of its intervals}
    <= n, so the keys of an interval and the family before it add with no
    carry.  bits[q] is the set of keys realized by families inside [1, q],
    the empty family included, as one int (bit `key` set); best maps each
    key to its least mask.  A family inside [1, q] either avoids q or ends
    with an interval [a, q] after a family inside [1, a-2], so
    bits[q] = bits[q-1] | OR over a of bits[a-2] << head(a, q).

    Two dominance facts make each witness the least with no comparison:

    1. A family that avoids q has a mask below 2^(q-1), and one that uses q
       does not, so a key realized inside [1, q-1] keeps its witness.
    2. Of two families ending with [a, q] and [a', q], a < a', the masks
       agree above bit a'-2, which only the first sets (position a'-1 lies
       in [a, q] and is the gap before [a', q]), so the second is smaller.

    So a descends from q, and a key is new at (q, a) when it is in
    bits[a-2] << head(a, q) and in no earlier key set; its witness is the
    interval's mask joined to the least mask of the rest, set once.
    """
    n = partition.size
    base = n + 1
    # end[a]: the right end of the pair interval starting at a, or n + 1
    end = [base] * (n + 1)
    for iv in partition.interval_image:
        end[iv.lo] = iv.hi
    best = {0: 0}
    # bits[0] and bits[-1] (the unwritten bits[n+1]) hold the empty family only
    bits = [1] * (n + 2)
    for q in range(1, n + 1):
        cur = bits[q - 1]
        weight = 0
        for a in range(q, 0, -1):
            if end[a] <= q:  # the pair interval starting at a lies in [a, q]
                weight += 2
            head = (q - a + 1) * base + weight
            new = (bits[a - 2] << head) & ~cur
            if new:
                cur |= new
                ivmask = ((1 << (q - a + 1)) - 1) << (a - 1)
                while new:
                    low = new & -new
                    key = low.bit_length() - 1
                    best[key] = ivmask | best[key - head]
                    new ^= low
        bits[q] = cur
    realized = {}
    for key, mask in best.items():
        size, w = divmod(key, base)
        if w:
            realized[size, w] = mask
    return realized


# PositionSet construction from a mask already in range, with no check
_new_position_set = PositionSet.__new__
_set_mask = PositionSet.mask.__set__

# the enumeration makes (2k)(2k+1)/2 shifts of ints of up to (2k)^2 bits and
# one dict insert per realized pair: at 2k = 128, 25-40 ms per matching
# (random, all-adjacent, fully nested and fully crossing; 2-vCPU host)
_MAX_POLE_POSITIONS = 128


def candidate_poles(partition: PairPartition) -> PoleSet:
    """Union of progressions 1 - (|S|+l)/(2[S|P]) over sets with [S|P] > 0.

    Each progression is witnessed by the least position set producing it in
    the bitmask order (position p is bit p-1); distinct progressions come
    from distinct pairs (|S|, 2[S|P]).  SizeError refuses more than 128
    positions.
    """
    if partition.size > _MAX_POLE_POSITIONS:
        raise SizeError(
            f"candidate poles of {partition.size} positions refused: "
            f"more than {_MAX_POLE_POSITIONS}"
        )
    realized = _realized(partition)
    lcm = math.lcm(*(denom for _size, denom in realized))
    # PoleSet's order on plain ints, distinct on (rank, -denom): no size or
    # mask is compared
    order = sorted(
        (size * (lcm // denom), -denom, size, mask)
        for (size, denom), mask in realized.items()
    )
    _ranks, neg_denoms, sizes, masks = zip(*order)
    denoms = [-neg for neg in neg_denoms]
    # [S|P] <= |S| for pair partitions: each pair interval inside S has its
    # right end in S, so no offset 1 - |S|/(2[S|P]) exceeds 1/2
    if 2 * sizes[0] < denoms[0]:
        raise DomainError(
            f"candidate offset {Fraction(denoms[0] - sizes[0], denoms[0])} exceeds 1/2"
        )
    # each progression and witness is wrapped once, in final order, with no
    # re-check: the enumerator's masks lie below 2^n with n <= 128, and its
    # pairs have size >= 1 and denom >= 2
    witnesses = list(map(_new_position_set, repeat(PositionSet, len(masks))))
    for _ in map(_set_mask, witnesses, masks):  # stores each witness's mask
        pass
    progressions = map(tuple.__new__, repeat(RationalProgression), zip(sizes, denoms))
    ps = PoleSet.__new__(PoleSet)
    ps._fill(tuple(zip(progressions, witnesses)), denoms)
    return ps


def candidate_poles_for_word(word: Word) -> PoleSet:
    """Union of candidate_poles over all pair partitions refining the word."""
    return PoleSet({}).union(*(candidate_poles(p) for p in enumerate_refining(word)))


def is_candidate(
    partition: PairPartition, h0, pole_set: PoleSet | None = None
) -> tuple[bool, dict | None]:
    """Exact membership query, with a witness (S, l) when the answer is yes."""
    h0 = _rational(h0)
    ps = pole_set if pole_set is not None else candidate_poles(partition)
    hit = ps.locate(h0)
    if hit is None:
        return False, None
    pr, l = hit
    witness_set = ps.witnesses[pr]
    return True, {
        "progression": pr,
        "l": l,
        "set": witness_set,
        "bracket_count": bracket_count(witness_set, partition),
    }


class HyperplaneFamily:
    """Candidate pole hyperplanes of the general simplex integral.

    For each nonempty index set S of [1, n], exponents supported on subsets
    of S trigger the affine condition |S| + sum of those exponents in the
    nonpositive integers.  Sets with no supported subset are vacuous for
    nonempty S and are dropped.
    """

    __slots__ = ("n", "support", "entries")

    def __init__(self, n: int, support: Sequence[frozenset[int]]):
        entries: dict[frozenset[int], tuple[frozenset[int], ...]] = {}
        for mask in range(1, 1 << n):
            s = frozenset(PositionSet.from_mask(mask))
            triggers = tuple(t for t in support if t <= s)
            if triggers:
                entries[s] = triggers
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "support", tuple(support))
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("HyperplaneFamily is immutable")

    def __reduce__(self):
        return HyperplaneFamily, (self.n, self.support)

    def __len__(self) -> int:
        return len(self.entries)

    def condition(self, s: frozenset[int]) -> tuple[int, int] | None:
        """(|S|, number of supported subsets of S), or None when vacuous."""
        triggers = self.entries.get(s)
        if triggers is None:
            return None
        return len(s), len(triggers)

    def specialize_diagonal(self) -> PoleSet:
        """Set every supported exponent to 2H - 2 and solve for H.

        |S| + c*(2H - 2) in the nonpositive integers gives the progression
        (|S|, 2c), that is 1 - (|S| + l)/(2c).
        """
        # later sets overwrite, so each witness is the first set in sorted order
        entries = sorted(self.entries.items(), key=lambda kv: sorted(kv[0]))
        return PoleSet({
            RationalProgression(len(s), 2 * len(t)): PositionSet(s)
            for s, t in reversed(entries)
        })


def hyperplane_candidates(
    n: int, support: Iterable[frozenset[int] | Interval]
) -> HyperplaneFamily:
    """Build the hyperplane family for exponents supported on given subsets."""
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    if n > 20:
        raise SizeError(f"hyperplane enumeration over 2^{n} subsets refused")
    norm: list[frozenset[int]] = []
    for t in support:
        members = frozenset(t.members()) if isinstance(t, Interval) else frozenset(t)
        if not members:
            raise DomainError("support subsets must be nonempty")
        if not all(1 <= p <= n for p in members):
            raise DomainError(f"support subset {sorted(members)} not within [1,{n}]")
        norm.append(members)
    return HyperplaneFamily(n, norm)
