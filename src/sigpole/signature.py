"""Mean iterated integrals and coefficient tables for words over a finite
alphabet.

A word's mean iterated integral is a prefactor times the sum of the
pair-partition simplex integrals over the partitions refining the word.
Two normalization modes are carried side by side:

- ``eq405-consistent`` (default): prefactor H^k (2H-1)^k.  Selected because
  the deterministic Gaussian-moment oracle reproduces it (a fixed matching
  arises from 2^k k! permutations, which cancels the k! of the symmetrized
  form).
- ``paper-406``: prefactor H^k (2H-1)^k / k!, the printed single-sum form.

The two differ by exactly k!; outputs record the mode and flag the
discrepancy rather than silently picking one.  Candidate pole locations are
unaffected since the prefactors are entire.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .pairings import Word, enumerate_refining, format_pairs, format_word
from .poles import PoleSet, candidate_poles
from .quadrature import EvalResult, evaluator_by_name

__all__ = [
    "NORMALIZATION_MODES",
    "DEFAULT_MODE",
    "prefactor",
    "mean_iterated_integral",
    "GammaTable",
    "gamma_table",
    "candidate_pole_report",
]

NORMALIZATION_MODES = ("eq405-consistent", "paper-406")
DEFAULT_MODE = "eq405-consistent"

MODE_NOTE = (
    "normalization modes differ by k!: eq405-consistent uses H^k(2H-1)^k, "
    "paper-406 divides by k!; the Gaussian-moment oracle selects "
    "eq405-consistent"
)


def prefactor(mode: str, k: int, h: float) -> float:
    """The scalar multiplying the sum over refining pair partitions."""
    if mode not in NORMALIZATION_MODES:
        raise DomainError(f"unknown normalization mode {mode!r}")
    base = (h * (2 * h - 1)) ** k
    if mode == "paper-406":
        return base / math.factorial(k)
    return base


def _resolve_evaluator(evaluator) -> Callable[..., EvalResult]:
    if callable(evaluator):
        return evaluator
    return evaluator_by_name(evaluator)


def _matching_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(1)[0])


def mean_iterated_integral(
    word: Word,
    h: float,
    mode: str = DEFAULT_MODE,
    evaluator="adaptive",
    **evaluator_kwargs,
) -> EvalResult:
    """prefactor(mode) times the sum of L over partitions refining the word.

    A word with no refining pair partition gives exactly zero.  Stochastic
    evaluator errors combine in quadrature; deterministic tolerances add.
    Given a ``seed``, the i-th matching in ``enumerate_refining`` order runs
    on its own seed, drawn from ``SeedSequence(seed, spawn_key=(i,))``, so
    that the estimates are independent; the result reports the given seed.
    """
    if mode not in NORMALIZATION_MODES:
        raise DomainError(f"unknown normalization mode {mode!r}")
    refining = enumerate_refining(word)
    k = word.k
    pref = prefactor(mode, k, h)
    base_extra = {"mode": mode, "prefactor": pref, "refining_partitions": len(refining)}
    if k >= 2:
        base_extra["normalization_note"] = MODE_NOTE
    if not refining:
        return EvalResult(
            value=0.0,
            method="closed-form",
            tol=0.0,
            cells=0,
            h=h,
            extra={**base_extra, "exact_zero": True},
        )
    fn = _resolve_evaluator(evaluator)
    seed = evaluator_kwargs.get("seed")
    if seed is None:
        parts = [fn(p, h, **evaluator_kwargs) for p in refining]
        seed = parts[0].seed
    else:
        parts = [
            fn(p, h, **{**evaluator_kwargs, "seed": _matching_seed(seed, i)})
            for i, p in enumerate(refining)
        ]
    value = pref * sum(r.value for r in parts)
    method = parts[0].method
    stderr = tol = None
    samples = cells = None
    if parts[0].stderr is not None:
        stderr = abs(pref) * math.sqrt(sum(r.stderr**2 for r in parts))
        samples = sum(r.samples for r in parts)
    else:
        tol = abs(pref) * sum(r.tol for r in parts)
        cells = sum(r.cells for r in parts)
    return EvalResult(
        value=value,
        method=method,
        stderr=stderr,
        tol=tol,
        samples=samples,
        cells=cells,
        seed=seed,
        h=h,
        extra={**base_extra, "partition_sum": sum(r.value for r in parts)},
    )


@dataclass(frozen=True)
class GammaTable:
    """Coefficient table over all words of length 2k on d letters."""

    k: int
    d: int
    h: float
    mode: str
    entries: dict[tuple[int, ...], EvalResult] = field(repr=False)

    def value(self, letters: tuple[int, ...]) -> float:
        return self.entries[tuple(letters)].value

    def nonzero_words(self) -> list[tuple[int, ...]]:
        return [w for w, r in sorted(self.entries.items()) if r.value != 0]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["word", "coefficient", "method", "stderr"])
        for letters, r in sorted(self.entries.items()):
            writer.writerow(
                [
                    ",".join(map(str, letters)),
                    repr(r.value),
                    r.method,
                    "" if r.stderr is None else repr(r.stderr),
                ]
            )
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "d": self.d,
            "H": self.h,
            "mode": self.mode,
            "normalization_note": MODE_NOTE,
            "entries": [
                {"word": ",".join(map(str, w)), **r.to_json_dict()}
                for w, r in sorted(self.entries.items())
            ],
        }


def gamma_table(
    k: int,
    d: int,
    h: float,
    mode: str = DEFAULT_MODE,
    evaluator="adaptive",
    **evaluator_kwargs,
) -> GammaTable:
    """Coefficients for every word of length 2k over the alphabet [1, d].

    Words sharing a level-set partition share a value, so the integral is
    computed once per canonical relabeling class.
    """
    if k < 1 or d < 1:
        raise DomainError(f"need k >= 1 and d >= 1, got k={k}, d={d}")
    by_class: dict[tuple[int, ...], EvalResult] = {}
    entries: dict[tuple[int, ...], EvalResult] = {}
    for letters in _all_words(k, d):
        word = Word(letters)
        canon = word.canonical_relabel().letters
        if canon not in by_class:
            by_class[canon] = mean_iterated_integral(
                word, h, mode, evaluator, **evaluator_kwargs
            )
        entries[letters] = by_class[canon]
    return GammaTable(k=k, d=d, h=h, mode=mode, entries=entries)


def _all_words(k: int, d: int):
    size = 2 * k
    letters = [1] * size
    while True:
        yield tuple(letters)
        pos = size - 1
        while pos >= 0 and letters[pos] == d:
            letters[pos] = 1
            pos -= 1
        if pos < 0:
            return
        letters[pos] += 1


def candidate_pole_report(word: Word) -> dict:
    """Candidate pole locations for a word with per-partition breakdowns.

    Each refining partition's pole set is computed once; the union merges
    them in one pass, the earliest partition's witness winning.
    ``contributions`` lists the union's contributions, each with the
    ``pairs`` of the partition its witness set was computed on.
    """
    refining = enumerate_refining(word)
    pole_sets = [candidate_poles(p) for p in refining]
    per_partition = [
        {
            "partition": p,
            "pole_set": ps,
            "contributions": ps.contribution_records(),
        }
        for p, ps in zip(refining, pole_sets)
    ]
    union = PoleSet([]).union(*pole_sets)
    first: dict = {}
    for row in per_partition:
        pairs = format_pairs(row["partition"])
        for (pr, _w), rec in zip(row["pole_set"].contributions, row["contributions"]):
            if pr not in first:
                first[pr] = {**rec, "pairs": pairs}
    return {
        "word": format_word(word),
        "refining_count": len(refining),
        "union": union,
        "contributions": [first[pr] for pr, _w in union.contributions],
        "per_partition": per_partition,
        "note": None if refining else "no refining pair partitions",
    }
