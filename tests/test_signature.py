"""Mean iterated integrals, normalization modes, coefficient tables."""
from __future__ import annotations

import csv
import io
import json

import pytest

from sigpole.errors import DomainError
from sigpole.pairings import Word, parse_word
from sigpole.quadrature import l_direct_mc, wick_grid_oracle
from sigpole.signature import (
    DEFAULT_MODE,
    NORMALIZATION_MODES,
    candidate_pole_report,
    gamma_table,
    mean_iterated_integral,
    prefactor,
)


def test_modes_and_prefactor():
    assert DEFAULT_MODE == "eq405-consistent"
    assert set(NORMALIZATION_MODES) == {"eq405-consistent", "paper-406"}
    assert prefactor("eq405-consistent", 2, 1.0) == pytest.approx(1.0)
    assert prefactor("paper-406", 2, 1.0) == pytest.approx(0.5)
    assert prefactor("eq405-consistent", 1, 0.75) == pytest.approx(0.75 * 0.5)
    with pytest.raises(DomainError):
        prefactor("other", 1, 0.8)


@pytest.mark.parametrize("h", [0.6, 0.75, 0.9, 1.0])
def test_repeated_pair_word_is_half(h):
    r = mean_iterated_integral(Word([2, 2]), h)
    assert r.value == pytest.approx(0.5, abs=1e-9)


def test_fourth_moment_word_modes():
    w = Word([1, 1, 1, 1])
    r405 = mean_iterated_integral(w, 1.0, mode="eq405-consistent")
    r406 = mean_iterated_integral(w, 1.0, mode="paper-406")
    assert r405.extra["partition_sum"] == pytest.approx(3 / 24, abs=1e-9)
    assert r405.value == pytest.approx(1 / 8, abs=1e-8)
    assert r406.value == pytest.approx(1 / 16, abs=1e-8)
    assert "normalization_note" in r405.extra
    oracle = wick_grid_oracle(w, 1.0, m=64)
    assert abs(oracle.value - r405.value) <= 1e-3
    assert abs(oracle.value - r406.value) > 5e-2


def test_fourth_moment_constant_across_h():
    # the repeated-letter mean integral equals a pure Gaussian moment, so it
    # cannot depend on the Hurst parameter
    for h in (0.7, 0.85):
        r = mean_iterated_integral(Word([1, 1, 1, 1]), h, tol=1e-8)
        assert r.value == pytest.approx(1 / 8, rel=1e-7)
    # 2k = 6: the sixth moment over 6!, summed over all 15 matchings
    r = mean_iterated_integral(Word([1] * 6), 0.9, tol=1e-6)
    assert r.extra["refining_partitions"] == 15
    assert r.value == pytest.approx(1 / 48, rel=1e-6)


def test_vanishing_word():
    r = mean_iterated_integral(Word([1, 2, 2, 3]), 0.8)
    assert r.value == 0.0
    assert r.extra["exact_zero"] is True
    assert r.tol == 0.0


def test_error_combination_stochastic():
    r = mean_iterated_integral(
        Word([1, 1, 1, 1]), 0.9, evaluator="direct-mc", samples=20_000, seed=5
    )
    assert r.method == "direct-mc"
    assert r.stderr is not None and r.samples == 60_000
    assert r.seed == 5


def test_per_matching_seeds():
    def seeds_handed_out(**kwargs):
        seeds = []

        def evaluator(p, h, **kw):
            seeds.append(kw.get("seed"))
            return l_direct_mc(p, h, samples=1_000, seed=kw.get("seed", 1))

        r = mean_iterated_integral(Word([1] * 6), 0.8, evaluator=evaluator, **kwargs)
        return r, seeds

    r, first = seeds_handed_out(seed=11)
    assert r.seed == 11
    assert len(first) == 15 and len(set(first)) == 15
    assert seeds_handed_out(seed=11)[1] == first
    # without a seed the evaluator kwargs pass through unchanged
    assert seeds_handed_out()[1] == [None] * 15


def test_prefactor_scaling_near_half():
    # the prefactor vanishes like (2H-1)^k while the partition sum blows up
    # at the same rate, leaving the k=1 value pinned at 1/2
    for eps in (1e-2, 1e-3):
        h = 0.5 + eps
        assert prefactor(DEFAULT_MODE, 1, h) == pytest.approx(h * 2 * eps)
        r = mean_iterated_integral(Word([1, 1]), h, tol=1e-7)
        assert r.value == pytest.approx(0.5, rel=1e-6)


def test_gamma_table_k1():
    for d in (1, 2, 3):
        t = gamma_table(1, d, 0.75)
        nonzero = t.nonzero_words()
        assert len(nonzero) == d
        assert all(a == b for (a, b) in nonzero)
        for w in nonzero:
            assert t.value(w) == pytest.approx(0.5, abs=1e-9)
    t = gamma_table(1, 2, 0.75)
    assert t.value((1, 2)) == 0.0 and t.value((2, 1)) == 0.0


def test_gamma_table_k2_d1():
    t = gamma_table(2, 1, 1.0)
    assert t.value((1, 1, 1, 1)) == pytest.approx(1 / 8, abs=1e-8)
    t406 = gamma_table(2, 1, 1.0, mode="paper-406")
    assert t406.value((1, 1, 1, 1)) == pytest.approx(1 / 16, abs=1e-8)


def test_gamma_table_relabeling_symmetry():
    t = gamma_table(1, 3, 0.8)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            assert t.value((a, b)) == t.value((b, a))
            assert t.value((a, b)) == t.value((1, 2) if a != b else (1, 1))


def test_gamma_table_serialization():
    t = gamma_table(1, 2, 0.75)
    rows = list(csv.reader(io.StringIO(t.to_csv())))
    assert rows[0] == ["word", "coefficient", "method", "stderr"]
    assert len(rows) == 1 + 4
    payload = t.to_json_dict()
    json.dumps(payload)  # must be serializable
    assert payload["mode"] == DEFAULT_MODE
    assert "normalization_note" in payload
    assert len(payload["entries"]) == 4


def test_gamma_table_guards():
    with pytest.raises(DomainError):
        gamma_table(0, 2, 0.8)
    with pytest.raises(DomainError):
        gamma_table(1, 0, 0.8)


def test_level_set_equivalence_exhaustive_small():
    # the value depends on the word only through its level-set partition
    h = 0.8
    cache: dict[tuple[int, ...], float] = {}
    for d in (1, 2, 3):
        for w0 in range(1, d + 1):
            for w1 in range(1, d + 1):
                word = Word([w0, w1])
                canon = word.canonical_relabel().letters
                val = mean_iterated_integral(word, h).value
                if canon in cache:
                    assert val == cache[canon]
                cache[canon] = val


def test_candidate_pole_report_structure():
    rep = candidate_pole_report(parse_word("1,1"))
    assert rep["refining_count"] == 1
    assert rep["union"].max_offset is not None
    assert rep["per_partition"][0]["contributions"]
    rep0 = candidate_pole_report(parse_word("1,2,2,3"))
    assert rep0["refining_count"] == 0
    assert rep0["note"] == "no refining pair partitions"
    rep4 = candidate_pole_report(parse_word("1,1,1,1"))
    assert rep4["refining_count"] == 3
    # the union's witnesses, each named with the matching it came from
    named = [dict(c) for c in rep4["contributions"]]
    assert {c.pop("pairs") for c in named} <= {"1-2,3-4", "1-3,2-4", "1-4,2-3"}
    assert named == rep4["union"].contribution_records()


def test_oracle_agreement_all_small_words():
    # deterministic grid oracle vs the assembled integrals: every word with
    # 2k <= 4 and at most two letters, one evaluation per relabeling class
    import itertools

    seen: set[tuple[int, ...]] = set()
    for size in (2, 4):
        for letters in itertools.product((1, 2), repeat=size):
            canon = Word(letters).canonical_relabel().letters
            if canon in seen:
                continue
            seen.add(canon)
            for h in (0.75, 1.0):
                w = Word(canon)
                assembled = mean_iterated_integral(w, h, tol=1e-6)
                oracle = wick_grid_oracle(w, h, m=64)
                if assembled.extra.get("exact_zero"):
                    assert oracle.value == 0.0
                    continue
                budget = 2e-3 + 2 * abs(oracle.tol)
                assert abs(assembled.value - oracle.value) <= budget, (canon, h)
