"""The exact Gamma-term algebra of the pair-partition integrals L(P; H).

Every exponent and every Gamma argument of L(P; H) is affine in
alpha = 2H - 2 with integer coefficients, and is kept as the integer pair
(c, p) for c + p alpha; a free gap has exponent (0, 0).  This module is the
one place that builds or reads such a pair.  Everything here is pure
``math`` on ints, so the callers that need no array start without numpy.

- ``factorize`` splits P into crossing-connected components nested in the
  gaps of one another.  Each gap integrates by the nested Dirichlet rule, so
  a non-crossing P is one Gamma product, and each crossing component is
  left as its reduced integral J_C with integer (a, b, exponent) factors.
- ``crossing_terms`` writes such a J_C as a signed sum of Gamma products.
  A term whose intervals still cross keeps a leftover grid, which the
  quadrature evaluates.
- ``gamma_product`` turns a Gamma ratio into a float at H, with a bound on
  its rounding.  ``grid_exponents`` gives the float exponents of a
  leftover grid at H.
- ``gamma_ratio_poles`` finds the poles of a Gamma ratio, as a function of
  H, with their orders, in exact integer arithmetic.
"""
from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .errors import NumericError

if TYPE_CHECKING:
    from .pairings import PairPartition

__all__ = [
    "factorize",
    "crossing_terms",
    "gamma_product",
    "grid_exponents",
    "gamma_ratio_poles",
]

_FREE = (0, 0)


def _dirichlet(
    parts: Sequence[tuple[int, int]], e: tuple[int, int], numer: list, denom: list
) -> tuple[int, int]:
    """The nested Dirichlet step, the one rule for every nesting.

    An interval J of exponent e, split into its parts (its maximal
    sub-intervals and the free gaps between them, in order) of exponents
    gamma_i, integrates over the parts to prod Gamma(gamma_i + 1) /
    Gamma(sum(gamma_i + 1)) times its span to the power
    gamma_J = e + sum(gamma_i + 1) - 1, which is returned.  The gamma
    arguments go to ``numer`` and ``denom``, leaving out those of value 1:
    a free gap's, and both of a J of one part.
    """
    total = (sum(c + 1 for c, _ in parts), sum(p for _, p in parts))
    if len(parts) > 1:
        numer.extend((c + 1, p) for c, p in parts if (c, p) != _FREE)
        denom.append(total)
    return (e[0] + total[0] - 1, e[1] + total[1])


def _components(partition: PairPartition) -> dict[int, tuple[tuple[int, int], ...]]:
    """Each position's crossing-connected component, as its sorted pairs.

    One sweep over the positions.  The components begun and not ended nest,
    each inside a gap of the one below it on the stack, so every open pair
    of a lower one spans all open pairs above it, and their open right ends
    decrease up the stack.  A pair opening at a with right end b crosses
    exactly the open pairs that end before b: those of the entries on top
    whose least open end is below b, which merge with it.  A position that
    closes a pair closes the least open end, the top entry's; the entry's
    component ends with its last open pair.  Each entry keeps its members
    and its open ends, negated, in ascending order.
    """
    right = dict(partition.pairs)
    stack: list[tuple[list, list[int]]] = []
    at = {}
    for x in range(1, partition.size + 1):
        if x in right:
            b = right[x]
            members, ends = [(x, b)], []
            while stack and -stack[-1][1][-1] < b:
                below, below_ends = stack.pop()
                members += below
                below_ends += ends
                ends = below_ends
            bisect.insort(ends, -b)
            stack.append((members, ends))
        else:
            members, ends = stack[-1]
            ends.pop()
            if not ends:
                stack.pop()
                comp = tuple(sorted(members))
                at.update(dict.fromkeys((y for pair in comp for y in pair), comp))
    return at


def factorize(partition: PairPartition):
    """Split P into crossing-connected components, each nested in a gap
    between consecutive positions of another or in the root gap [0, 1].

    A gap is an interval of exponent 0 whose parts are its child
    components, of span exponents beta_i, and the free gaps between them;
    ``_dirichlet`` integrates it to prod Gamma(beta_i + 1) / Gamma(e + 1),
    e = sum(beta_i + 2).  A component with q positions, p pairs and gap
    exponents e_j has span exponent q - 2 + p alpha + sum e_j, all stored as
    (c, p) for c + p alpha with alpha = 2H - 2.  Returns the factor tree,
    the gamma arguments of the numerator and denominator, and per component
    of two or more pairs its label, pair count and the (a, b, exponent)
    factors of J_C on its local positions 1..q, a filled gap j adding the
    factor (j, j + 1, e_j).

    Gaps and components nest as deep as P has pairs, so the walk runs on an
    explicit stack: ``gap`` and ``component`` are generators that yield the
    calls they need and receive their results, in the order of a recursive
    walk, so the time and the output do not depend on the depth.
    """
    at = _components(partition)
    numer, denom, crossing = [], [], []

    def gap(lo: int, hi: int):
        """The nodes strictly between positions lo and hi, and the gap exponent."""
        nodes, x = [], lo + 1
        while x < hi:
            nodes.append((yield component(at[x])))
            x = max(b for _, b in at[x]) + 1
        parts = [_FREE]
        for node in nodes:
            parts += [tuple(node["exponent"]), _FREE]
        return nodes, _dirichlet(parts, _FREE, numer, denom)

    def component(ps: tuple[tuple[int, int], ...]):
        pos = sorted(x for pair in ps for x in pair)
        gaps = []
        for a, b in zip(pos, pos[1:]):
            gaps.append((yield gap(a, b)))
        label = ",".join(f"{a}-{b}" for a, b in ps)
        if len(ps) > 1:
            local = {x: i for i, x in enumerate(pos, start=1)}
            factors = [(local[a], local[b], (0, 1)) for a, b in ps]
            factors += [(j, j + 1, e) for j, (kids, e) in enumerate(gaps, 1) if kids]
            crossing.append((label, len(ps), factors))
        c = len(pos) - 2 + sum(e[0] for _, e in gaps)
        p = len(ps) + sum(e[1] for _, e in gaps)
        return {"pairs": label, "exponent": [c, p], "gaps": [kids for kids, _ in gaps]}

    calls, result = [gap(0, partition.size + 1)], None
    while calls:
        try:
            calls.append(calls[-1].send(result))
            result = None
        except StopIteration as done:
            calls.pop()
            result = done.value
    tree, _ = result
    return tree, numer, denom, crossing


def _nested(fac: dict, a: int, b: int, numer: list, denom: list) -> tuple[int, int]:
    """Integrate the intervals of a laminar term inside [a, b] by
    ``_dirichlet``, innermost first; returns the exponent of [a, b]."""
    parts, x = [], a
    while x < b:
        y = max((d for c, d in fac if c == x and d <= b and (c, d) != (a, b)), default=0)
        parts.append(_nested(fac, x, y, numer, denom) if y else _FREE)
        x = y or x + 1
    return _dirichlet(parts, fac.get((a, b), _FREE), numer, denom)


def crossing_terms(factors: Sequence[tuple[int, int, tuple[int, int]]], q: int) -> list:
    """J_C of a crossing component as a signed sum of terms.

    ``factors`` are the (a, b, exponent) factors of ``factorize`` on the
    positions 1..q, s_1 = 0 and s_q = 1 pinned.  An inner position i in
    exactly one factor (s_i - s_c)^e, c < i, integrates out between its
    neighbouring positions lo < i < hi to
    [(s_hi - s_c)^(e+1) - (s_lo - s_c)^(e+1)] / (e+1), the second term
    absent when c = lo, and the mirror image for c > i.  Positions whose
    partner is a neighbour go first, as they give one term.  Exponents on
    the same two positions add, a factor on the two pinned positions is 1,
    and the divisor e + 1 enters as Gamma(e + 1) / Gamma(e + 2).  A term
    left with nesting intervals only is then exact by ``_dirichlet``.

    Returns (sign, numer, denom, grid) per term: the term is sign times the
    gamma product, times, where ``grid = (factors, n)`` is not None, the
    integral of those crossing factors on positions 1..n that the
    quadrature evaluates.  Everything is exact integer pairs.
    """
    # every pair of a crossing component has a position of it inside, so
    # no two of the factors share both positions
    todo = [(1, [], [], tuple(range(1, q + 1)), {(a, b): e for a, b, e in factors})]
    terms = []
    while todo:
        sign, numer, denom, pos, fac = todo.pop()
        count: dict = {}
        for x in itertools.chain.from_iterable(fac):
            count[x] = count.get(x, 0) + 1
        steps = []
        for k in range(1, len(pos) - 1):
            if count.get(pos[k]) == 1:
                ab = next(ab for ab in fac if pos[k] in ab)
                steps.append((sum(ab) - pos[k] not in (pos[k - 1], pos[k + 1]), k, ab))
        if not steps:
            local = {x: j for j, x in enumerate(pos, start=1)}
            fac = {(local[a], local[b]): e for (a, b), e in fac.items()}
            grid = None
            if any(a < c < b < d for (a, b), (c, d) in itertools.permutations(fac, 2)):
                grid = (sorted((a, b, e) for (a, b), e in fac.items()), len(pos))
            else:
                _nested(fac, 1, len(pos), numer, denom)
            terms.append((sign, numer, denom, grid))
            continue
        _, k, ab = min(steps)
        lo, i, hi = pos[k - 1 : k + 2]
        rest = {key: e for key, e in fac.items() if key != ab}
        c, (e0, e1) = sum(ab) - i, fac[ab]
        div = (e0 + 1, e1)
        ends = ((hi, 1), (lo, -1)) if c < i else ((lo, 1), (hi, -1))
        for end, s in ends:
            if end == c:
                continue
            new = dict(rest)
            key = (min(c, end), max(c, end))
            if key != (pos[0], pos[-1]):
                old = new.get(key, _FREE)
                new[key] = (old[0] + div[0], old[1] + div[1])
            todo.append((sign * s, numer + [div], denom + [(div[0] + 1, div[1])],
                         pos[:k] + pos[k + 1:], new))
    return terms


def gamma_product(numer: list, denom: list, h: float) -> tuple[float, float]:
    """prod Gamma(numer) / prod Gamma(denom) at H, and its rounding bound.

    Each argument c + p alpha is computed as (c - p) + p (2H - 1), a sum of
    nonnegative terms, to a few ulps; the bound carries that through lgamma
    and adds lgamma's and exp's own rounding.
    """
    g = 2 * h - 1
    args = [(s, (c - p) + p * g) for s, a in ((1, numer), (-1, denom)) for c, p in a]
    try:
        logs = [(s, x, math.lgamma(x)) for s, x in args]
        value = math.exp(sum(s * lg for s, _, lg in logs))
    except OverflowError:
        raise NumericError(f"gamma product out of float range at H={h}") from None
    slack = sum(2 + abs(lg) + x * abs(math.log(x)) for _, x, lg in logs)
    return value, 8 * math.ulp(1.0) * slack * value


def grid_exponents(factors: Sequence[tuple[int, int, tuple[int, int]]], h: float) -> list:
    """The (a, b, exponent) factors of a leftover grid with each exponent at H."""
    return [(a, b, c + p * (2 * h - 2)) for a, b, (c, p) in factors]


def gamma_ratio_poles(numer: list, denom: list, lowest: int) -> dict[Fraction, int]:
    """The poles H0 >= lowest / 2 of prod Gamma(numer) / prod Gamma(denom)
    as a function of H, mapped to their orders.

    An argument c + p alpha is a non-positive integer -n at
    H0 = (2p - c - n) / (2p); the order there counts the numerator
    arguments at non-positive integers minus the denominator ones.  With
    H0 = t / d for a common denominator d, the argument is
    (c d + p (2t - 2d)) / d, so integer arithmetic decides it.
    """
    d = 2 * math.lcm(*(p for _, p in numer))
    points = {
        (2 * p - c - n) * (d // (2 * p))
        for c, p in numer
        for n in range(2 * p - c - p * lowest + 1)
    }
    poles = {}
    for t in points:
        order = 0
        for sign, args in ((1, numer), (-1, denom)):
            for c, p in args:
                x = c * d + p * (2 * t - 2 * d)
                order += sign * (x <= 0 and x % d == 0)
        if order > 0:
            poles[Fraction(t, d)] = order
    return poles
