"""Words, pair partitions, position sets and the interval bookkeeping on [1, 2k].

Positions are 1-based throughout; the 0-based convention appears only in array
code at serialization or numeric boundaries.  A position set is one int
bitmask, bit p-1 for position p; positions are bounded by 2^16 so no mask
exceeds 8 KB.  PositionSet and Interval define that format.  The pole
enumerator and the blowup chart build and compare masks as integers, but
turn a mask back into positions only through PositionSet.  All objects are
immutable after construction and safe to share between threads.

Text formats (shared with the CLI):

- word:          "6,3,1,3,6,6,1,5,6,5"
- pair partition: "1-7,2-8,3-5,4-6,9-11,10-18,12-17,13-14,15-16"
- position set:  "2-8,10-11,13-17"   (singletons written bare: "12")
"""
from __future__ import annotations

import itertools
import numbers
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    DimensionError,
    InternalConsistencyError,
    InvalidPairError,
    ParseError,
    SizeError,
)

__all__ = [
    "Interval",
    "Word",
    "first_occurrence_relabel",
    "PairPartition",
    "PositionSet",
    "interval_of_pair",
    "refines",
    "check_refining_count",
    "enumerate_refining",
    "all_pair_partitions",
    "bracket_count",
    "augmentation",
    "deficiency",
    "bracket_count_via_aug_def",
    "double_factorial",
    "parse_decimal",
    "parse_word",
    "parse_pairs",
    "parse_position_set",
    "format_word",
    "format_pairs",
    "format_position_set",
]


# the largest position; a mask of positions up to it is at most 8 KB
_MAX_POSITION = 1 << 16


def _positions(*values) -> tuple[int, ...]:
    """The values as ints; InvalidPairError unless each is an integer, not a bool."""
    for p in values:
        if type(p) is not int:  # an int, the common case, takes one test
            if type(p) is bool or not isinstance(p, numbers.Integral):
                raise InvalidPairError(f"positions must be integers, got {p!r}")
            return tuple(map(int, values))
    return values


@dataclass(frozen=True, order=True)
class Interval:
    """Integer interval [lo, hi]; the singleton [n] is Interval(n, n)."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        _positions(self.lo, self.hi)
        if not (1 <= self.lo <= self.hi):
            raise InvalidPairError(f"bad interval bounds [{self.lo}, {self.hi}]")
        if self.hi > _MAX_POSITION:
            raise InvalidPairError(f"position {self.hi} exceeds {_MAX_POSITION}")

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def __contains__(self, p: int) -> bool:
        return self.lo <= p <= self.hi

    def members(self) -> range:
        return range(self.lo, self.hi + 1)

    @property
    def mask(self) -> int:
        return ((1 << len(self)) - 1) << (self.lo - 1)

    def __str__(self) -> str:
        return _format_run(self.lo, self.hi)


def first_occurrence_relabel(letters: Sequence[int]) -> tuple[int, ...]:
    """Letters renumbered 1, 2, ... in order of first occurrence:
    (7, 3, 7, 3) -> (1, 2, 1, 2).  The one copy of the rule, for
    ``Word.canonical_relabel`` and for callers that classify many letter
    tuples without building a ``Word`` for each."""
    tr: dict[int, int] = {}
    out = []
    for a in letters:
        if a not in tr:
            tr[a] = len(tr) + 1
        out.append(tr[a])
    return tuple(out)


def _format_run(lo: int, hi: int) -> str:
    return str(lo) if lo == hi else f"{lo}-{hi}"


def _mask_runs(mask: int) -> list[tuple[int, int]]:
    """The maximal runs (lo, hi) of positions in a mask, in increasing order."""
    # character i of the reversed binary string is bit i, position i + 1; the
    # search is linear in the mask's length however many runs it has
    bits = f"{mask:b}"[::-1]
    runs = []
    hi = 0
    while (lo := bits.find("1", hi)) >= 0:
        hi = bits.find("0", lo)
        if hi < 0:
            hi = len(bits)
        runs.append((lo + 1, hi))
    return runs


class Word:
    """A finite sequence of positive letters of even length 2k.

    >>> Word((1, 2, 1, 2)).level_sets
    (frozenset({1, 3}), frozenset({2, 4}))
    """

    __slots__ = ("letters", "level_sets")

    def __init__(self, letters: Sequence[int]):
        letters = tuple(letters)
        if len(letters) < 2 or len(letters) % 2:
            raise DimensionError(f"word length must be even and >= 2, got {len(letters)}")
        if any(type(a) is not int and (type(a) is bool or not isinstance(a, numbers.Integral))
               or a < 1 for a in letters):
            raise ParseError("letters must be positive integers")
        object.__setattr__(self, "letters", tuple(map(int, letters)))
        blocks: dict[int, list[int]] = {}
        for pos, a in enumerate(letters, start=1):
            blocks.setdefault(a, []).append(pos)
        # ordered by first occurrence, the canonical block order
        object.__setattr__(
            self, "level_sets", tuple(frozenset(b) for b in blocks.values())
        )

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        return Word, (self.letters,)

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def k(self) -> int:
        return len(self.letters) // 2

    def canonical_relabel(self) -> Word:
        """Relabel letters by first occurrence: (7,3,7,3) -> (1,2,1,2)."""
        return Word(first_occurrence_relabel(self.letters))

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Word({self.letters})"


class PairPartition:
    """A perfect matching of [1, 2k] into k unordered pairs.

    Canonical form: within each pair the smaller element first, pairs sorted
    by first element.  Equality, hashing and ordering use the canonical form.
    """

    __slots__ = ("pairs", "_partner", "_intervals")

    def __init__(self, pairs: Iterable[tuple[int, int] | frozenset[int]]):
        canon = []
        for p in pairs:
            a, b = sorted(_positions(*p))
            if a == b:
                raise InvalidPairError(f"pair {{{a},{b}}} has equal elements")
            canon.append((a, b))
        canon.sort()
        seen = [x for p in canon for x in p]
        n = len(seen)
        if n == 0:
            raise DimensionError("pair partition must be nonempty")
        if sorted(seen) != list(range(1, n + 1)):
            raise InvalidPairError(
                f"pairs must partition [1,{n}] exactly, got positions {sorted(seen)}"
            )
        object.__setattr__(self, "pairs", tuple(canon))
        partner = {}
        for a, b in canon:
            partner[a] = b
            partner[b] = a
        object.__setattr__(self, "_partner", partner)
        object.__setattr__(self, "_intervals", None)

    def __setattr__(self, *a):
        raise AttributeError("PairPartition is immutable")

    def __reduce__(self):
        return PairPartition, (self.pairs,)

    @property
    def k(self) -> int:
        return len(self.pairs)

    @property
    def size(self) -> int:
        """Number of positions, 2k."""
        return 2 * len(self.pairs)

    def partner(self, p: int) -> int:
        return self._partner[p]

    @property
    def interval_image(self) -> tuple[Interval, ...]:
        """The image of the interval map over the pairs (multiset, sorted)."""
        cached = self._intervals
        if cached is None:
            cached = tuple(sorted(Interval(a + 1, b) for a, b in self.pairs))
            object.__setattr__(self, "_intervals", cached)
        return cached

    def reversed(self) -> PairPartition:
        """The reflection induced by position reversal p -> 2k+1-p."""
        n = self.size
        return PairPartition((n + 1 - a, n + 1 - b) for a, b in self.pairs)

    def __eq__(self, other) -> bool:
        return isinstance(other, PairPartition) and self.pairs == other.pairs

    def __lt__(self, other: PairPartition) -> bool:
        return self.pairs < other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        return f"PairPartition({format_pairs(self)!r})"


class PositionSet:
    """A subset of [1, 2k], stored as one int mask: bit p-1 for position p.

    Its maximal interval decomposition separates consecutive intervals by a
    gap of at least one missing position, so any interval contained in the
    set is contained in a single component.
    """

    __slots__ = ("mask",)

    def __init__(self, members: Iterable[int]):
        mask = 0
        for p in members:
            (p,) = _positions(p)
            if p < 1:
                raise InvalidPairError("positions must be >= 1")
            if p > _MAX_POSITION:
                raise InvalidPairError(f"position {p} exceeds {_MAX_POSITION}")
            mask |= 1 << (p - 1)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_mask(cls, mask: int) -> PositionSet:
        if mask < 0 or mask.bit_length() > _MAX_POSITION:
            raise InvalidPairError(f"mask is not a set of positions 1..{_MAX_POSITION}")
        s = cls.__new__(cls)
        object.__setattr__(s, "mask", mask)
        return s

    def __setattr__(self, *a):
        raise AttributeError("PositionSet is immutable")

    def __reduce__(self):
        return PositionSet.from_mask, (self.mask,)

    @property
    def maximal_intervals(self) -> tuple[Interval, ...]:
        return tuple(Interval(lo, hi) for lo, hi in _mask_runs(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, p: int) -> bool:
        return p >= 1 and bool(self.mask >> (p - 1) & 1)

    def __iter__(self) -> Iterator[int]:
        # character i of the reversed binary string is bit i, position i + 1
        bits = f"{self.mask:b}"[::-1]
        return (p for p, bit in enumerate(bits, start=1) if bit == "1")

    def __eq__(self, other) -> bool:
        return isinstance(other, PositionSet) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __repr__(self) -> str:
        return f"PositionSet({format_position_set(self)!r})"


def interval_of_pair(a: int, b: int, size: int | None = None) -> Interval:
    """Map an unordered pair {a, b} of positions to the interval [min+1, max].

    >>> interval_of_pair(10, 6)
    Interval(lo=7, hi=10)
    >>> interval_of_pair(1, 2)
    Interval(lo=2, hi=2)
    """
    a, b = _positions(a, b)
    if a == b:
        raise InvalidPairError(f"pair {{{a},{b}}} has equal elements")
    if a < 1 or b < 1 or (size is not None and max(a, b) > size):
        raise InvalidPairError(f"pair {{{a},{b}}} out of range")
    return Interval(min(a, b) + 1, max(a, b))


def refines(partition: PairPartition, word: Word) -> bool:
    """True iff every pair of the partition joins equal letters of the word."""
    if partition.size != len(word):
        raise DimensionError(
            f"partition on [1,{partition.size}] vs word of length {len(word)}"
        )
    letters = word.letters
    return all(letters[a - 1] == letters[b - 1] for a, b in partition.pairs)


# 13!!: every matching of [1, 14]
_MAX_REFINING = 135_135


def _pairings_of(block: Sequence[int]) -> Iterator[list[tuple[int, int]]]:
    """All perfect matchings of an even-sized block, smallest element leading."""
    if not block:
        yield []
        return
    rest = list(block)
    first = rest.pop(0)
    for i, other in enumerate(rest):
        for tail in _pairings_of(rest[:i] + rest[i + 1 :]):
            yield [(first, other)] + tail


def check_refining_count(block_sizes: Iterable[int]) -> None:
    """SizeError when more than 13!! = 135,135 pair partitions refine a word
    whose letters occur the given even numbers of times: the one rule on
    matching counts.  The count is the product of the (b - 1)!!; the running
    product stops at the limit, so a count of thousands of digits is never
    formed, and no word need be built."""
    factors = (f for b in block_sizes for f in range(b - 1, 1, -2))
    if any(c > _MAX_REFINING for c in itertools.accumulate(factors, operator.mul)):
        raise SizeError(f"word has more than {_MAX_REFINING} refining pair partitions")


def enumerate_refining(word: Word) -> list[PairPartition]:
    """All pair partitions refining the word, in canonical lexicographic order.

    Empty (not an error) when some letter occurs an odd number of times;
    ``check_refining_count`` runs before any is built.
    """
    blocks = [sorted(b) for b in word.level_sets]
    if any(len(b) % 2 for b in blocks):
        return []
    check_refining_count(map(len, blocks))
    out = [
        PairPartition(itertools.chain.from_iterable(choice))
        for choice in itertools.product(*(_pairings_of(b) for b in blocks))
    ]
    out.sort()
    return out


def all_pair_partitions(size: int) -> list[PairPartition]:
    """All (size-1)!! pair partitions of [1, size], canonical order.

    They are the matchings refining the constant word of length size, so
    ``check_refining_count`` refuses a count above 13!! = 135,135, that is a
    size above 14, before any is built.
    """
    if size < 2 or size % 2:
        raise DimensionError(f"size must be even and >= 2, got {size}")
    check_refining_count([size])
    return [PairPartition(m) for m in _pairings_of(list(range(1, size + 1)))]


def double_factorial(n: int) -> int:
    """n!! for odd n >= -1 (used for matching counts)."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def bracket_count(s: PositionSet, partition: PairPartition) -> int:
    """Number of intervals of the partition's interval image contained in s.

    Counted with multiplicity over the multiset image.
    """
    mask = s.mask
    return sum(1 for iv in partition.interval_image if mask & iv.mask == iv.mask)


def augmentation(iv: Interval, partition: PairPartition) -> PositionSet:
    """The interval, plus its left neighbour when that neighbour is paired in.

    The element immediately left adjacent to [lo, hi] joins the set exactly
    when lo >= 2 and its partner lies inside the interval.
    """
    if iv.lo >= 2 and iv.lo - 1 <= partition.size:
        left = iv.lo - 1
        if left in partition._partner and partition.partner(left) in iv:
            return PositionSet.from_mask(Interval(left, iv.hi).mask)
    return PositionSet.from_mask(iv.mask)


def deficiency(iv: Interval, partition: PairPartition) -> PositionSet:
    """Elements of the interval not paired with an element of its augmentation."""
    aug = augmentation(iv, partition)
    return PositionSet(
        p for p in iv.members() if partition.partner(p) not in aug
    )


def bracket_count_via_aug_def(s: PositionSet, partition: PairPartition) -> int:
    """Bracket count via 2[I|P] = |Aug(I)| - |Def(I)| over maximal intervals."""
    total = 0
    for iv in s.maximal_intervals:
        total += len(augmentation(iv, partition)) - len(deficiency(iv, partition))
    if total % 2:
        raise InternalConsistencyError(
            f"augmentation/deficiency total {total} is odd for {s!r}"
        )
    return total // 2


# ---------------------------------------------------------------------------
# Text formats

def _items(text: str, what: str) -> list[str]:
    """The comma-separated items of a spec, stripped of whitespace.

    ParseError names the spec when it is blank or has an empty item, as in
    "1,,2" or a trailing comma.
    """
    if not text.strip():
        raise ParseError(f"empty {what} {text!r}")
    items = [tok.strip() for tok in text.split(",")]
    if "" in items:
        raise ParseError(f"empty item in {what} {text!r}")
    return items


def parse_decimal(tok: str) -> int:
    """A number spelled in ASCII digits only; ``int`` alone also takes a
    sign, underscores and other scripts' digits, so "1_0" would read as 10.
    Any other spelling raises ValueError."""
    if not (tok.isascii() and tok.isdigit()):
        raise ValueError(f"not a decimal number: {tok!r}")
    return int(tok)


def parse_word(text: str) -> Word:
    """Parse "6,3,1,3,6,6,1,5,6,5" into a Word."""
    items = _items(text, "word spec")
    try:
        letters = [parse_decimal(tok) for tok in items]
    except ValueError as exc:
        raise ParseError(f"bad word spec {text!r}") from exc
    try:
        return Word(letters)
    except (DimensionError, ParseError) as exc:
        raise ParseError(f"bad word spec {text!r}: {exc}") from exc


def parse_pairs(text: str) -> PairPartition:
    """Parse "1-7,2-8,..." into a PairPartition."""
    pairs = []
    for tok in _items(text, "pair spec"):
        parts = tok.split("-")
        if len(parts) != 2:
            raise ParseError(f"bad pair token {tok!r} in {text!r}")
        try:
            pairs.append((parse_decimal(parts[0]), parse_decimal(parts[1])))
        except ValueError as exc:
            raise ParseError(f"bad pair token {tok!r} in {text!r}") from exc
    try:
        return PairPartition(pairs)
    except (InvalidPairError, DimensionError) as exc:
        raise ParseError(f"bad pair spec {text!r}: {exc}") from exc


def parse_position_set(text: str) -> PositionSet:
    """Parse "2-8,10-11,13-17" (singletons bare, e.g. "12") into a PositionSet.

    A blank spec is the empty set.
    """
    if not text.strip():
        return PositionSet.from_mask(0)
    mask = 0
    for tok in _items(text, "position set"):
        parts = tok.split("-")
        try:
            if len(parts) == 1:
                lo = hi = parse_decimal(parts[0])
            elif len(parts) == 2:
                lo, hi = parse_decimal(parts[0]), parse_decimal(parts[1])
            else:
                raise ParseError(f"bad interval token {tok!r} in {text!r}")
            mask |= Interval(lo, hi).mask
        except InvalidPairError as exc:
            raise ParseError(f"bad position set {text!r}: {exc}") from exc
        except ValueError as exc:
            raise ParseError(f"bad interval token {tok!r} in {text!r}") from exc
    return PositionSet.from_mask(mask)


def format_word(word: Word) -> str:
    return ",".join(str(a) for a in word.letters)


def format_pairs(partition: PairPartition) -> str:
    return ",".join(f"{a}-{b}" for a, b in partition.pairs)


def format_position_set(s: PositionSet) -> str:
    return ",".join(_format_run(lo, hi) for lo, hi in _mask_runs(s.mask))
