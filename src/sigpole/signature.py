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
import itertools
import math
from dataclasses import dataclass, field

from .errors import DomainError, SizeError
from .pairings import (PairPartition, Word, check_refining_count, enumerate_refining,
                       first_occurrence_relabel)
from .poles import candidate_pole_report  # noqa: F401  (re-exported, built in poles)
from .quadrature import ROUTES, EvalResult, FbmCovariance, check_matchings, check_route_args

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


def _matching_seed(seed: int, partition: PairPartition) -> int:
    """``SeedSequence(seed, spawn_key=(r,))``, r the matching's index in
    ``all_pair_partitions`` order: the mixed-radix number whose digits place
    each pair's partner among the positions still open."""
    import numpy as np

    open_positions, r = list(range(1, partition.size + 1)), 0
    for a, b in partition.pairs:  # a is the smallest open position
        open_positions.remove(a)
        r = r * len(open_positions) + open_positions.index(b)
        open_positions.remove(b)
    return int(np.random.SeedSequence(seed, spawn_key=(r,)).generate_state(1)[0])


def mean_iterated_integral(
    word: Word,
    h: float,
    mode: str = DEFAULT_MODE,
    evaluator="adaptive",
    **evaluator_kwargs,
) -> EvalResult:
    """prefactor(mode) times the sum of L over partitions refining the word.

    ``evaluator`` is a callable used as given, or a name in
    ``quadrature.ROUTES``, whose keyword-only parameters are the only
    options it takes (another is a DomainError naming the route).  Before
    any matching is evaluated, ``check_route_args`` runs on H and the rule
    keywords given, H > 1 is refused, and ``check_matchings`` refuses a
    matching too large for ``adaptive``; the CLI exits 3 on each.  A word
    with no refining pair partition then gives exactly zero.  Stochastic
    evaluator errors combine in quadrature when the matchings' results
    report pairwise distinct seeds, and add otherwise; deterministic
    tolerances add.  Given a ``seed``, or else the named route's default
    one, each matching runs on its own seed (``_matching_seed``), keyed by
    the matching alone, so that the estimates are independent and a
    matching gets the same estimate in every word it refines; the result
    reports the given seed.  A callable given no seed gets the keyword
    arguments unchanged.  When every matching's result reports
    ``extra["finite_variance"]``, the word's result reports whether all of
    them are finite.
    """
    return _word_results([word], h, mode, evaluator, evaluator_kwargs)[0]


def _word_results(words: list[Word], h: float, mode: str, evaluator,
                  evaluator_kwargs: dict) -> list[EvalResult]:
    """``mean_iterated_integral`` for each of the words, all of length 2k:
    the checks run once, and each refining matching is evaluated once."""
    if callable(evaluator):
        fn, options = evaluator, {}
    elif evaluator in ROUTES:
        fn = ROUTES[evaluator]
        options = fn.__kwdefaults__ or {}
        unknown = sorted(evaluator_kwargs.keys() - options.keys())
        if unknown:
            raise DomainError(f"route {evaluator!r} takes no option {', '.join(unknown)}; "
                              f"its options are: {', '.join(sorted(options)) or 'none'}")
    else:
        raise DomainError(f"unknown evaluator {evaluator!r}; pick from {sorted(ROUTES)}")
    # the route rules, which the exact zero below would skip
    check_route_args(h, **{key: value for key, value in evaluator_kwargs.items()
                           if key in check_route_args.__kwdefaults__ and value is not None})
    FbmCovariance(h)  # refuses H > 1, where fBm ends
    seed = evaluator_kwargs.get("seed")
    if seed is None:
        seed = options.get("seed")
    refining = [enumerate_refining(word) for word in words]
    check_matchings(evaluator, [p for partitions in refining for p in partitions])
    k = words[0].k
    pref = prefactor(mode, k, h)
    evaluated: dict[PairPartition, EvalResult] = {}  # kept for this call only
    out = []
    for partitions in refining:
        base_extra = {"mode": mode, "prefactor": pref, "refining_partitions": len(partitions)}
        if k >= 2:
            base_extra["normalization_note"] = MODE_NOTE
        if not partitions:
            out.append(EvalResult(value=0.0, method="closed-form", tol=0.0, cells=0, h=h,
                                  extra={**base_extra, "exact_zero": True}))
            continue
        for p in partitions:
            if p not in evaluated:
                evaluated[p] = fn(p, h, **(evaluator_kwargs if seed is None else
                                           {**evaluator_kwargs, "seed": _matching_seed(seed, p)}))
        parts = [evaluated[p] for p in partitions]
        stderr = tol = samples = cells = None
        if parts[0].stderr is not None:
            if len({r.seed for r in parts}) == len(parts):
                stderr = abs(pref) * math.sqrt(sum(r.stderr**2 for r in parts))
            else:
                # shared seeds correlate the estimates; by Minkowski's inequality
                # the summed stderrs bound the sum's standard deviation
                stderr = abs(pref) * sum(r.stderr for r in parts)
            samples = sum(r.samples for r in parts)
        else:
            tol = abs(pref) * sum(r.tol for r in parts)
            cells = sum(r.cells for r in parts)
        extra = {**base_extra, "partition_sum": sum(r.value for r in parts)}
        flags = [r.extra.get("finite_variance") for r in parts]
        if None not in flags:
            # the sum has finite variance only if every term has
            extra["finite_variance"] = all(flags)
        out.append(EvalResult(value=pref * sum(r.value for r in parts), method=parts[0].method,
                              stderr=stderr, tol=tol, samples=samples, cells=cells,
                              seed=parts[0].seed if seed is None else seed, h=h, extra=extra))
    return out


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


# a table keeps and prints one entry for each of its d^(2k) words
_MAX_TABLE_WORDS = 2**20


def gamma_table(
    k: int,
    d: int,
    h: float,
    mode: str = DEFAULT_MODE,
    evaluator="adaptive",
    **evaluator_kwargs,
) -> GammaTable:
    """Coefficients for every word of length 2k over the alphabet [1, d].

    Words sharing a level-set partition share a value, computed once per
    canonical relabeling class from one evaluation of each matching of 2k
    points, on the seed ``mean_iterated_integral`` gives it: each entry is
    that function's result on its class.  Refused before any matching is
    evaluated, in this order: more than 2^20 words; more matchings than
    ``check_refining_count`` allows; with ``adaptive``, the chain
    1-3,2-5,...,(2k-2)-2k, one crossing component; then each refusal of
    ``mean_iterated_integral``.
    """
    if k < 1 or d < 1:
        raise DomainError(f"need k >= 1 and d >= 1, got k={k}, d={d}")
    # with d >= 2, every k > 10 is past the limit; skip the huge power
    if d > 1 and (k > 10 or d ** (2 * k) > _MAX_TABLE_WORDS):
        raise SizeError(
            f"gamma table over {d}^{2 * k} words refused: "
            f"more than the {_MAX_TABLE_WORDS} tabulated"
        )
    check_refining_count([2 * k])  # the matchings of 2k points, with no word built
    chain = ((max(1, 2 * j - 2), min(2 * j + 1, 2 * k)) for j in range(1, k + 1))
    check_matchings(evaluator, [PairPartition(chain)])
    canon = {letters: first_occurrence_relabel(letters)
             for letters in itertools.product(range(1, d + 1), repeat=2 * k)}
    classes = list(dict.fromkeys(canon.values()))
    results = _word_results([Word(c) for c in classes], h, mode, evaluator, evaluator_kwargs)
    by_class = dict(zip(classes, results))
    entries = {letters: by_class[c] for letters, c in canon.items()}
    return GammaTable(k=k, d=d, h=h, mode=mode, entries=entries)
