"""Reference values and correctness checks computed by the benchmark itself.

Nothing here trusts the numbers under test: closed forms come from
``math.lgamma``, pole sets are checked witness by witness plus a digest of
their (offset, step) keys, preimages by their exact residual, and stochastic
estimates by a z-bound fixed before any seed was run.
"""
from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

# |estimate - reference| <= Z_BOUND * stderr for every stochastic item.
Z_BOUND = 5.0


def pair_k1(h: float) -> float:
    """L(1-2; H) = 1 / (2H (2H - 1))."""
    return 1.0 / (2 * h * (2 * h - 1))


def adjacent(k: int, h: float) -> float:
    """L of the all-adjacent matching 1-2,3-4,...: Gamma(2H-1)^k / Gamma(2kH+1)."""
    return math.exp(k * math.lgamma(2 * h - 1) - math.lgamma(2 * k * h + 1))


def k2_forms(h: float) -> dict[str, float]:
    """The three k=2 matchings through L = J / ((4H-1) 4H), alpha = 2H - 2."""
    a = 2 * h - 2
    beta = math.exp(math.lgamma(a + 2) + math.lgamma(a + 1) - math.lgamma(2 * a + 3))
    j = {
        "1-2,3-4": math.exp(2 * math.lgamma(a + 1) - math.lgamma(2 * a + 3)),
        "1-4,2-3": 1.0 / ((a + 1) * (a + 2)),
        "1-3,2-4": (1.0 / (a + 1)) * (1.0 / (a + 1) - beta),
    }
    return {pairs: v / ((4 * h - 1) * 4 * h) for pairs, v in j.items()}


def pair_reference(pairs: str, h: float) -> float:
    if pairs == "1-2":
        return pair_k1(h)
    return k2_forms(h)[pairs]


def mean_signature_k2(letters: tuple[int, ...], h: float) -> float:
    """Mean iterated integral of a length-4 word, eq405-consistent mode.

    Zero when a letter occurs an odd number of times; otherwise
    (H(2H-1))^2 times the sum of L over the refining matchings.  For 1,1,1,1
    this is the Gaussian moment 3/4! = 1/8.
    """
    counts: dict[int, int] = {}
    for a in letters:
        counts[a] = counts.get(a, 0) + 1
    if any(c % 2 for c in counts.values()):
        return 0.0
    forms = k2_forms(h)
    refining = [
        p for p, (i, j, k, l) in (
            ("1-2,3-4", (0, 1, 2, 3)), ("1-3,2-4", (0, 2, 1, 3)), ("1-4,2-3", (0, 3, 1, 2))
        )
        if letters[i] == letters[j] and letters[k] == letters[l]
    ]
    return (h * (2 * h - 1)) ** 2 * sum(forms[p] for p in refining)


def moment_identity(k: int) -> float:
    """Mean signature of the word 1^(2k): E[X^2k] / (2k)! = 1 / (2^k k!)."""
    return 1.0 / (2**k * math.factorial(k))


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def refining_count(letters: tuple[int, ...]) -> int:
    """Number of matchings refining a word: prod of (|block| - 1)!!, or 0."""
    counts: dict[int, int] = {}
    for a in letters:
        counts[a] = counts.get(a, 0) + 1
    if any(c % 2 for c in counts.values()):
        return 0
    return math.prod(double_factorial(c - 1) for c in counts.values())


def canonical_words(length: int) -> list[tuple[int, ...]]:
    """One word per relabelling class: restricted growth strings."""
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int], top: int) -> None:
        if len(prefix) == length:
            out.append(tuple(prefix))
            return
        for c in range(1, top + 2):
            extend(prefix + [c], max(top, c))

    extend([], 0)
    return out


# -- checks; each returns a list of failure messages (empty means pass) ------

def z_failures(label: str, value: float, stderr: float, ref: float) -> list[str]:
    if not (stderr > 0 and math.isfinite(value)):
        return [f"{label}: bad estimate {value} +- {stderr}"]
    z = abs(value - ref) / stderr
    return [] if z <= Z_BOUND else [f"{label}: z={z:.2f} > {Z_BOUND}"]


def abs_failures(label: str, value: float, ref: float, bound: float) -> list[str]:
    err = abs(value - ref)
    return [] if err <= bound else [f"{label}: |{value} - {ref}| = {err:.3e} > {bound:.3e}"]


def range_failures(label: str, lo, hi, n: int) -> list[str]:
    """Flag ranges: n finite ranks with 0 < lo < hi."""
    lo, hi = list(lo), list(hi)
    ok = (len(lo) == len(hi) == n and all(math.isfinite(a) and math.isfinite(b)
                                          and 0 < a < b for a, b in zip(lo, hi)))
    return [] if ok else [f"{label}: bad ranges lo={lo} hi={hi}"]


def pole_keys(pole_set) -> list[str]:
    """Witness-independent (offset, step) keys of every contribution."""
    return sorted(f"{pr.offset}:{pr.step}" for pr, _ in pole_set.contributions)


def witness_failures(label: str, partition, pole_set, progression_of_set) -> list[str]:
    """Each witness must reproduce its own progression, whichever is chosen."""
    bad = []
    for pr, witness in pole_set.contributions:
        if witness is None:
            bad.append(f"{label}: progression {pr} has no witness")
        elif progression_of_set(partition, witness) != pr:
            bad.append(f"{label}: witness {witness} does not give {pr}")
    return bad


class Digest:
    """Order-sensitive sha256 over labelled key lists."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, label: str, keys: list[str]) -> None:
        self._h.update(f"{label}|{','.join(keys)}\n".encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())


def exact_residual(x, y, f_eval) -> Fraction:
    """max_i |F(y)_i - x_i| in exact rational arithmetic."""
    return max(abs(Fraction(float(v)) - fv) for v, fv in zip(x, f_eval(list(y))))
