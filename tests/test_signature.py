"""Mean iterated integrals, normalization modes, coefficient tables."""
from __future__ import annotations

import csv
import io
import itertools
import json
import re

import pytest

from sigpole import quadrature, signature
from sigpole.errors import DomainError, SizeError
from sigpole.gammaterms import factorize
from sigpole.pairings import (Word, all_pair_partitions, double_factorial, enumerate_refining,
                              parse_pairs, parse_word)
from sigpole.quadrature import (DEFAULT_SEED, EvalResult, l_direct_mc, l_pullback_mc,
                                wick_grid_oracle)
from sigpole.signature import (
    DEFAULT_MODE,
    NORMALIZATION_MODES,
    candidate_pole_report,
    gamma_table,
    mean_iterated_integral,
    prefactor,
)
from sigpole.verify import Exact


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
    assert r.value == pytest.approx(Exact.moment(1), abs=1e-9)


def test_fourth_moment_constant_across_h():
    # the repeated-letter mean integral equals a pure Gaussian moment, so it
    # cannot depend on the Hurst parameter
    for h in (0.7, 0.85):
        r = mean_iterated_integral(Word([1, 1, 1, 1]), h, tol=1e-8)
        assert r.value == pytest.approx(Exact.moment(2), rel=1e-7)
    # 2k = 6: the sixth moment over 6!, summed over all 15 matchings
    r = mean_iterated_integral(Word([1] * 6), 0.9, tol=1e-6)
    assert r.extra["refining_partitions"] == 15
    assert r.value == pytest.approx(Exact.moment(3), rel=1e-6)


def test_vanishing_word():
    r = mean_iterated_integral(Word([1, 2, 2, 3]), 0.8)
    assert r.value == 0.0
    assert r.extra["exact_zero"] is True
    assert r.tol == 0.0


@pytest.mark.parametrize("evaluator, kwargs, error", [
    ("adaptive", {"tol": -1.0}, DomainError),
    ("adaptive", {"tol": float("nan")}, DomainError),
    ("direct-mc", {"samples": 0}, SizeError),
    ("pullback-mc", {"workers": 0}, SizeError),
    ("direct-mc", {"samples": 3, "workers": 4}, SizeError),
    ("adaptive", {"h": 0.3}, DomainError),
    ("closed-form", {"h": 0.3}, DomainError),
    ("direct-mc", {"h": 0.3}, DomainError),
    ("pullback-mc", {"h": 0.3}, DomainError),
    ("adaptive", {"h": float("nan")}, DomainError),
    ("closed-form", {"h": float("nan")}, DomainError),
    ("direct-mc", {"h": float("nan")}, DomainError),
    ("pullback-mc", {"h": float("nan")}, DomainError),
    ("adaptive", {"h": float("inf")}, DomainError),
    ("closed-form", {"h": float("inf")}, DomainError),
    ("direct-mc", {"h": float("inf")}, DomainError),
    ("pullback-mc", {"h": float("inf")}, DomainError),
    ("adaptive", {"tol": float("inf")}, DomainError),
    ("direct-mc", {"samples": 1}, SizeError),
    ("pullback-mc", {"samples": 1}, SizeError),
    ("direct-mc", {"seed": -1}, DomainError),
    ("pullback-mc", {"seed": -1}, DomainError),
    ("direct-mc", {"samples": 1e5}, DomainError),
    ("pullback-mc", {"samples": 1e5}, DomainError),
    ("direct-mc", {"seed": 1.5}, DomainError),
    ("pullback-mc", {"seed": 1.5}, DomainError),
    ("direct-mc", {"workers": 2.0}, DomainError),
    ("pullback-mc", {"workers": 2.0}, DomainError),
    ("direct-mc", {"seed": True}, DomainError),
    ("pullback-mc", {"seed": True}, DomainError),
    ("closed-form", {"h": True}, DomainError),
    ("adaptive", {"h": True}, DomainError),
    ("direct-mc", {"h": True}, DomainError),
    ("closed-form", {"h": "0.8"}, DomainError),
    ("adaptive", {"h": "0.8"}, DomainError),
    ("pullback-mc", {"h": "0.8"}, DomainError),
    ("adaptive", {"tol": True}, DomainError),
    ("adaptive", {"tol": "1e-6"}, DomainError),
])
def test_vanishing_word_runs_the_route_guards(evaluator, kwargs, error):
    # one bad argument ("h" is H; H and tol must be real numbers, samples,
    # seed and workers integers, none a bool) is refused with the same
    # error by the route on 1-2, by the word layer on a word with a refining
    # matching (1,1) and on one without (1,2), and by a table of both
    kwargs = dict(kwargs)
    h = kwargs.pop("h", 0.8)
    with pytest.raises(error) as want:
        quadrature.ROUTES[evaluator](parse_pairs("1-2"), h, **kwargs)
    for call in (lambda: mean_iterated_integral(Word([1, 1]), h, evaluator=evaluator, **kwargs),
                 lambda: mean_iterated_integral(Word([1, 2]), h, evaluator=evaluator, **kwargs),
                 lambda: gamma_table(1, 2, h, evaluator=evaluator, **kwargs)):
        with pytest.raises(error) as got:
            call()
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("word", [Word([1, 2]), Word([1, 1])])
def test_negative_seed_refused(word, monkeypatch):
    # for a named route and for a callable, before any matching seed is
    # derived, whether or not the word has a refining matching
    def never(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(signature, "_matching_seed", never)
    for evaluator in ("direct-mc", "pullback-mc", never):
        with pytest.raises(DomainError, match="seed must be nonnegative"):
            mean_iterated_integral(word, 0.8, evaluator=evaluator, samples=100, seed=-1)


def test_vanishing_word_guards_use_the_route_defaults():
    # 2 workers are fine against the default 1e6 samples
    r = mean_iterated_integral(Word([1, 2]), 0.8, evaluator="direct-mc", workers=2)
    assert r.value == 0.0 and r.extra["exact_zero"] is True


def test_vanishing_word_with_a_callable_is_exact_zero():
    def never(*args, **kwargs):
        raise AssertionError("called")

    r = mean_iterated_integral(Word([1, 2]), 0.8, evaluator=never, tol=1e-3)
    assert r.value == 0.0 and r.extra["exact_zero"] is True
    # the rule keywords given to a callable are checked like a route's
    with pytest.raises(DomainError, match="tolerance must be a nonnegative number"):
        mean_iterated_integral(Word([1, 2]), 0.8, evaluator=never, tol=-1.0)


@pytest.mark.parametrize("h", [1.5, 2.0, 1e308])
def test_word_layer_refuses_h_above_one(h, monkeypatch):
    # fBm ends at H = 1: refused for every evaluator, with and without a
    # refining matching, before any matching is enumerated; L(P; H) itself
    # is defined there, so the route answers
    def never(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(signature, "enumerate_refining", never)
    for evaluator in [*quadrature.ROUTES, never]:
        for call in (lambda: mean_iterated_integral(Word([1, 1]), h, evaluator=evaluator),
                     lambda: mean_iterated_integral(Word([1, 2]), h, evaluator=evaluator),
                     lambda: gamma_table(1, 2, h, evaluator=evaluator)):
            with pytest.raises(DomainError, match=re.escape(f"must lie in (0, 1], got {h}")):
                call()
    # 1 / (2H (2H - 1)) at H = 2
    assert quadrature.l_closed_form(parse_pairs("1-2"), 2.0).value == pytest.approx(
        Exact.adjacent(1, 2.0))


def test_large_crossing_component_refused_before_any_matching(monkeypatch):
    # the first refining matching of this word has a 5-pair crossing
    # component, its second (1-3,2-5,...) a 6-pair one: the word is refused
    # before the route evaluates any matching
    def never(*args, **kwargs):
        raise AssertionError("the route was called")

    monkeypatch.setitem(quadrature.ROUTES, "adaptive", never)
    word = parse_word("1,1,1,2,1,3,2,4,3,5,4,5")
    first, second = enumerate_refining(word)[:2]
    assert [count for _, count, _ in factorize(first)[3]] == [5]
    assert [count for _, count, _ in factorize(second)[3]] == [6]
    with pytest.raises(SizeError, match="at most 5 pairs; crossing pairs 1-3,2-5,"):
        mean_iterated_integral(word, 0.8)
    # a table is refused on the chain 1-3,2-5,4-7,... of its first class
    # 1^2k before any matching is enumerated: 2^14 words, whose first class
    # holds all 13!! = 135,135 matchings of 14 points, included
    monkeypatch.setattr(signature, "enumerate_refining", never)
    with pytest.raises(SizeError, match="at most 5 pairs; crossing pairs 1-3,2-5,4-7,6-9,"
                                        "8-11,10-12$"):
        gamma_table(6, 1, 0.8)
    with pytest.raises(SizeError, match="at most 5 pairs; crossing pairs 1-3,2-5,4-7,6-9,"
                                        "8-11,10-13,12-14$"):
        gamma_table(7, 2, 0.8)


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


def test_shared_seed_stderrs_add():
    # with no seed every matching runs on l_direct_mc's default stream, so
    # the estimates are correlated and only the summed stderrs bound the sum
    word = Word([1] * 4)
    r = mean_iterated_integral(word, 0.8, evaluator=l_direct_mc, samples=2000)
    parts = [l_direct_mc(p, 0.8, samples=2000) for p in enumerate_refining(word)]
    assert len(parts) == 3
    assert r.stderr == abs(r.extra["prefactor"]) * sum(p.stderr for p in parts)


def test_prefactor_scaling_near_half():
    # the prefactor vanishes like (2H-1)^k while the partition sum blows up
    # at the same rate, leaving the k=1 value pinned at 1/2
    for eps in (1e-2, 1e-3):
        h = 0.5 + eps
        assert prefactor(DEFAULT_MODE, 1, h) == pytest.approx(h * 2 * eps)
        r = mean_iterated_integral(Word([1, 1]), h, tol=1e-7)
        assert r.value == pytest.approx(Exact.moment(1), rel=1e-6)


def test_gamma_table_k1():
    for d in (1, 2, 3):
        t = gamma_table(1, d, 0.75)
        nonzero = t.nonzero_words()
        assert len(nonzero) == d
        assert all(a == b for (a, b) in nonzero)
        for w in nonzero:
            assert t.value(w) == pytest.approx(Exact.moment(1), abs=1e-9)
    t = gamma_table(1, 2, 0.75)
    assert t.value((1, 2)) == 0.0 and t.value((2, 1)) == 0.0


def test_gamma_table_k2_d1():
    t = gamma_table(2, 1, 1.0)
    assert t.value((1, 1, 1, 1)) == pytest.approx(Exact.moment(2), abs=1e-8)
    t406 = gamma_table(2, 1, 1.0, mode="paper-406")
    assert t406.value((1, 1, 1, 1)) == pytest.approx(Exact.moment(2, "paper-406"), abs=1e-8)


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


def test_monte_carlo_values_are_builtin_floats():
    # the csv writes repr of each value, which for a numpy scalar is
    # "np.float64(...)" under numpy 2
    (pair,) = enumerate_refining(Word([1, 1]))
    results = [
        l_direct_mc(pair, 0.8, samples=1000, seed=1),
        l_pullback_mc(pair, 0.8, samples=1000, seed=1),
        mean_iterated_integral(Word([1, 1]), 0.8, evaluator="direct-mc", samples=1000),
    ]
    for r in results:
        assert type(r.value) is float and type(r.stderr) is float, r


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
    assert rep["per_partition"][0]["pole_set"].contributions
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


@pytest.mark.parametrize("h", [0.75, 1.0])
@pytest.mark.parametrize("letters", [(1, 2, 3, 1, 2, 3), (1, 2, 1, 3, 2, 3), (1, 2, 3, 2, 1, 3)])
def test_oracle_agreement_crossing_sixth_level(letters, h):
    # each word has one refining matching, a crossing component of 3 pairs:
    # the adaptive route's crossing terms against the grid oracle
    w = Word(letters)
    assembled = mean_iterated_integral(w, h, tol=1e-8)
    oracle = wick_grid_oracle(w, h, m=32)
    assert abs(assembled.value - oracle.value) <= 2 * oracle.tol


def test_named_stochastic_route_derives_seeds_without_a_seed(monkeypatch):
    word = Word([1] * 4)
    r = mean_iterated_integral(word, 0.8, evaluator="direct-mc", samples=2000)
    pinned = mean_iterated_integral(
        word, 0.8, evaluator="direct-mc", samples=2000, seed=DEFAULT_SEED
    )
    assert r.value.hex() == pinned.value.hex()
    assert r.stderr.hex() == pinned.stderr.hex()
    assert r.seed == DEFAULT_SEED
    # each of the three matchings of 1^4 runs on its own stream
    seen = []

    def spy(p, h, *, samples=quadrature.DEFAULT_SAMPLES, seed=DEFAULT_SEED, workers=1):
        seen.append(seed)
        return l_direct_mc(p, h, samples=samples, seed=seed, workers=workers)

    monkeypatch.setitem(quadrature.ROUTES, "direct-mc", spy)
    spied = mean_iterated_integral(word, 0.8, evaluator="direct-mc", samples=2000)
    assert len(seen) == 3 and len(set(seen)) == 3
    assert spied.value.hex() == r.value.hex()


@pytest.mark.parametrize("evaluator, option", [
    ("adaptive", "seed"), ("closed-form", "tol"), ("direct-mc", "tol"),
    ("pullback-mc", "tol"), ("direct-mc", "chart"),
])
def test_named_route_refuses_an_option_it_does_not_take(evaluator, option, monkeypatch):
    # a route's keyword-only parameters are its options; anything else is a
    # DomainError naming the route, before any matching is enumerated
    def never(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(signature, "enumerate_refining", never)
    for word in (Word([1, 1]), Word([1, 2])):
        with pytest.raises(DomainError, match=f"route '{evaluator}' takes no option {option};"):
            mean_iterated_integral(word, 0.8, evaluator=evaluator, **{option: 5})


def test_unknown_evaluator_name():
    with pytest.raises(DomainError, match="unknown evaluator 'wick'"):
        mean_iterated_integral(Word([1, 1]), 0.8, evaluator="wick")


def counted_route(monkeypatch, name: str) -> list:
    """Replace the named route with a spy that lists the matchings it gets."""
    route, calls = quadrature.ROUTES[name], []

    def spy(p, h, **kwargs):
        calls.append(p)
        return route(p, h, **kwargs)

    spy.__kwdefaults__ = route.__kwdefaults__  # the route's options
    monkeypatch.setitem(quadrature.ROUTES, name, spy)
    return calls


@pytest.mark.parametrize("evaluator, k, kwargs", [
    ("adaptive", 2, {"tol": 1e-6}), ("adaptive", 3, {"tol": 1e-6}),
    ("adaptive", 4, {"tol": 1e-6}), ("direct-mc", 2, {"samples": 500}),
])
def test_gamma_table_evaluates_each_matching_once(evaluator, k, kwargs, monkeypatch):
    # every matching of 2k points refines 2^(k-1) classes at d = 2, and the
    # route runs once for it, not once per class
    def never(*args, **kwargs):
        raise AssertionError("called")

    calls = counted_route(monkeypatch, evaluator)
    monkeypatch.setattr(signature, "mean_iterated_integral", never)
    gamma_table(k, 2, 0.8, evaluator=evaluator, **kwargs)
    assert len(calls) == len(set(calls)) == double_factorial(2 * k - 1)


@pytest.mark.parametrize("evaluator, k, kwargs", [
    ("adaptive", 2, {"tol": 1e-6}), ("closed-form", 1, {}),
    ("direct-mc", 2, {"samples": 500, "seed": 3}), ("direct-mc", 2, {"samples": 500}),
    ("pullback-mc", 1, {"samples": 500, "seed": 4}),
    (l_direct_mc, 2, {"samples": 500, "seed": 5}),
])
def test_gamma_table_entry_is_the_word_result(evaluator, k, kwargs):
    # one evaluation per matching is exact for every route: each entry is
    # the word layer's result on its class, seeds and errors included
    table = gamma_table(k, 3, 0.8, evaluator=evaluator, **kwargs)
    by_class = {}
    for letters, r in table.entries.items():
        canon = Word(letters).canonical_relabel()
        if canon not in by_class:
            by_class[canon] = mean_iterated_integral(canon, 0.8, evaluator=evaluator,
                                                     **kwargs).to_json_dict()
        assert r.to_json_dict() == by_class[canon], letters


def test_matching_seed_is_keyed_by_the_matching():
    # the rank inside _matching_seed is the index in all_pair_partitions
    import numpy as np

    for size in (2, 4, 6, 8, 10):
        for i, p in enumerate(all_pair_partitions(size)):
            want = np.random.SeedSequence(7, spawn_key=(i,)).generate_state(1)[0]
            assert signature._matching_seed(7, p) == want, p
    # a matching runs on the same seed in every word it refines
    seen: dict = {}

    def record(p, h, *, seed):
        seen.setdefault(p, set()).add(seed)
        return EvalResult(value=1.0, method="direct-mc", stderr=0.1, samples=2, seed=seed)

    words = {Word(letters).canonical_relabel() for letters in
             itertools.product((1, 2, 3), repeat=6)}
    for word in words:
        mean_iterated_integral(word, 0.8, evaluator=record, seed=7)
    assert len(seen) == 15 and all(len(seeds) == 1 for seeds in seen.values())
