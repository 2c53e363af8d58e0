"""Quadrature routes and the deterministic moment oracle."""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sigpole import quadrature
from sigpole.blowup import BlowupChart
from sigpole.errors import DimensionError, DomainError, NumericError, SizeError
from sigpole.gammaterms import crossing_terms, factorize, gamma_ratio_poles
from sigpole.pairings import (
    PairPartition,
    Word,
    all_pair_partitions,
    double_factorial,
    format_pairs,
    parse_pairs,
)
from sigpole.quadrature import (
    DEFAULT_SEED,
    EvalResult,
    FbmCovariance,
    _increasing_pair_sum,
    _merge_network,
    _sorted_rows,
    l_adaptive,
    l_closed_form,
    l_direct_mc,
    l_pullback_mc,
    wick_grid_oracle,
    worker_seeds,
)
from sigpole.signature import mean_iterated_integral
from sigpole.verify import Exact

PAIR = PairPartition([(1, 2)])
ADJ2 = PairPartition([(1, 2), (3, 4)])
CROSS2 = PairPartition([(1, 3), (2, 4)])
NEST2 = PairPartition([(1, 4), (2, 3)])


def test_adaptive_matches_beta_ratio_k2():
    for h in (0.75, 0.8, 0.9):
        exact = Exact.adjacent(2, h)
        r = l_adaptive(ADJ2, h, tol=1e-6)
        assert abs(r.value - exact) <= 1e-6 * exact


def is_crossing(partition: PairPartition) -> bool:
    return any(
        a < c < b < d
        for (a, b), (c, d) in itertools.permutations(partition.pairs, 2)
    )


@pytest.mark.parametrize("h", [0.501, 0.51])
def test_adaptive_k2_near_half(h):
    # all three k=2 matchings are sums of gamma products, with no grid
    for p in (ADJ2, CROSS2, NEST2):
        r = l_adaptive(p, h, tol=1e-6)
        assert r.value == pytest.approx(Exact.k2(format_pairs(p), h), rel=1e-6), p
        assert r.cells == 0, p


def test_adaptive_terms_cancel_to_zero():
    # at H = 1/2 + 1e-15 the two terms of 1-3,2-4 round to the same float:
    # the sum is 0, the tol still covers the limit pi^2 / 12, and since
    # L > 0 a tol of at least |L| is refused with both carried
    with pytest.raises(NumericError, match="no correct digit") as exc:
        l_adaptive(CROSS2, 0.5 + 1e-15)
    assert exc.value.diagnostics["best"] == 0.0
    assert exc.value.diagnostics["tol"] >= math.pi ** 2 / 12


@pytest.mark.parametrize("h", [0.5000001, 0.50001])
def test_adaptive_refuses_value_without_a_digit(h):
    # near H = 1/2 the crossing terms cancel to a tol far beyond |L|
    with pytest.raises(NumericError, match="no correct digit") as exc:
        l_adaptive(parse_pairs("1-4,2-5,3-6"), h)
    assert exc.value.diagnostics["tol"] >= abs(exc.value.diagnostics["best"])
    r = l_adaptive(parse_pairs("1-4,2-5,3-6"), 0.51)
    assert 0 < r.tol < 1e-6 * r.value


REDUCIBLE6 = (
    PairPartition([(1, 3), (2, 4), (5, 6)]),
    PairPartition([(1, 2), (3, 5), (4, 6)]),
)


def test_adaptive_level_trace():
    # each of these has one term whose intervals cross, left on a 2-D grid
    for spec, terms in (("1-4,2-6,3-5", 4), ("1-4,2-5,3-6", 5)):
        r = l_adaptive(parse_pairs(spec), 0.8, tol=1e-6)
        values = r.extra["level_values"]
        assert len(values) == len(r.extra["levels"]) >= 2
        assert abs(values[-1] - values[-2]) == r.tol
        assert values[-1] == r.value
        assert r.extra["terms"] == [terms] and r.extra["grid_dims"] == [2]
    assert l_adaptive(CROSS2, 0.8, tol=1e-6).value == pytest.approx(
        Exact.k2("1-3,2-4", 0.8), rel=1e-9
    )
    # every term of these nests: exact, crossing or not
    laminar = (CROSS2,) + REDUCIBLE6 + (parse_pairs("1-5,2-3,4-6"),)
    for p in (PAIR, ADJ2, NEST2, PairPartition([(1, 6), (2, 3), (4, 5)])) + laminar:
        r = l_adaptive(p, 0.8, tol=1e-6)
        assert r.extra["levels"] == r.extra["level_values"] == [] and r.cells == 0
        if p.k == 2:
            assert r.value == pytest.approx(Exact.k2(format_pairs(p), 0.8), rel=1e-12)
    r = l_adaptive(parse_pairs("1-3,2-5,4-6"), 0.8)
    assert r.extra["terms"] == [4] and r.extra["grid_dims"] == []
    assert r.extra["cancellation"][0] == pytest.approx(42.04, rel=1e-3)


@pytest.mark.parametrize("h", [0.7, 0.8, 0.9])
def test_adaptive_reducible_crossing(h):
    # a crossing k=2 component next to, or nested beside, a single pair: the
    # crossing J of the table's k=2 form times the root Dirichlet ratio
    # G(2a+3) G(a+1) / G(3a+7), a = 2H - 2
    a = 2 * h - 2
    j = Exact.k2("1-3,2-4", h) * (4 * h - 1) * 4 * h
    lg = math.lgamma
    exact = j * math.exp(lg(2 * a + 3) + lg(a + 1) - lg(3 * a + 7))
    for p in REDUCIBLE6:
        r = l_adaptive(p, h, tol=1e-12)
        assert r.value == pytest.approx(exact, rel=1e-10), p
        assert r.cells == 0, p


def test_adaptive_guards(monkeypatch):
    with pytest.raises(DomainError):
        l_adaptive(PAIR, 0.5)
    with pytest.raises(SizeError, match="at most 5 pairs"):
        l_adaptive(parse_pairs("1-7,2-8,3-9,4-10,5-11,6-12"), 0.8)
    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "_LEVELS", (17, 33))
        with pytest.raises(NumericError) as err:
            l_adaptive(parse_pairs("1-4,2-6,3-5"), 0.75, tol=1e-12)
    assert "best" in err.value.diagnostics

    # a NaN or negative tol is refused before any level runs
    def no_level(*args):
        raise AssertionError("a quadrature level ran")

    monkeypatch.setattr(quadrature, "_reduced_level_sum", no_level)
    for tol in (math.nan, -1.0, -math.inf):
        for p in (parse_pairs("1-4,2-5,3-6"), PAIR):
            with pytest.raises(DomainError, match="tolerance"):
                l_adaptive(p, 0.8, tol=tol)


def test_adaptive_evaluates_each_distinct_grid_once(monkeypatch):
    # the crossing component 1-7,4-10,5-9,6-8 leaves 6 terms on grids of up
    # to 3 dimensions, 5 of them distinct
    calls = []

    def counted(factors, n, m, real=quadrature._reduced_level_sum):
        calls.append(m)
        return real(factors, n, m)

    monkeypatch.setattr(quadrature, "_reduced_level_sum", counted)
    r = l_adaptive(parse_pairs("1-7,2-3,4-10,5-9,6-8"), 0.8, tol=1e-6)
    levels = r.extra["levels"]
    assert len(levels) >= 2
    assert calls == [m for m in levels for _ in range(5)]
    assert r.extra["grid_dims"] == [2, 2, 3, 3, 2]
    assert r.cells == sum(m ** d for m in levels for d in r.extra["grid_dims"])


def test_adaptive_tolerance_extremes():
    # a tol below the rounding bound of the terms is reported, not raised:
    # tol = 0 stops once a level changes L by less than that bound (at 129
    # nodes a side here), and the reported tol is the bound, never 0
    p = parse_pairs("1-4,2-6,3-5")
    for tol in (0.0, 1e-300):
        r = l_adaptive(p, 0.8, tol=tol)
        values = r.extra["level_values"]
        assert r.extra["levels"] == [17, 33, 65, 129]
        assert abs(values[-1] - values[-2]) < r.tol < 1e-13
    with pytest.raises(DomainError, match="got tol=inf"):
        l_adaptive(p, 0.8, tol=math.inf)


def test_crossing_term_census():
    # symbolic: every crossing component at 2k <= 10 and the terms its
    # elimination order gives; every gamma argument, the divisors' among
    # them, is (c, p) with c >= p and c >= 1, so c + p (2H - 2) > 0 for all
    # H > 1/2, reaching 0 only at H = 1/2
    most = {}
    for size in (4, 6, 8, 10):
        terms_max = dim_max = 0
        for p in all_pair_partitions(size):
            for _, count, factors in factorize(p)[3]:
                terms = crossing_terms(factors, 2 * count)
                terms_max = max(terms_max, len(terms))
                for _, numer, denom, grid in terms:
                    assert all(c >= max(q, 1) for c, q in numer + denom), p
                    if grid is not None:
                        dim_max = max(dim_max, grid[1] - 2)
        most[size] = (terms_max, dim_max)
    assert most == {4: (2, 0), 6: (5, 2), 8: (17, 3), 10: (56, 4)}


# sha256 of the exact layer and the deterministic routes built on it
EXACT_LAYER_BITS = "213e2bc9c7a63de9f1c7d30ed887590ec0012d65c42821cb431ef4629ab467bc"


def test_exact_layer_bits_pinned():
    # value and tol as float.hex, cells and the extra of l_adaptive for every
    # matching with 2k <= 8 at H = 0.8 and 2k <= 6 at H = 0.51, and of
    # l_closed_form for the non-crossing ones; then the integer output of
    # factorize and crossing_terms for every matching with 2k <= 10
    def fields(r):
        return (f"{r.value.hex()} {r.tol.hex()} {r.cells} "
                f"{json.dumps(r.extra, sort_keys=True)}\n").encode()

    digest = hashlib.sha256()
    for top, h in ((8, 0.8), (6, 0.51)):
        for size in range(2, top + 1, 2):
            for p in all_pair_partitions(size):
                digest.update(fields(l_adaptive(p, h)))
                if not is_crossing(p):
                    digest.update(fields(l_closed_form(p, h)))
    for size in range(2, 11, 2):
        for p in all_pair_partitions(size):
            out = factorize(p)
            terms = [crossing_terms(f, 2 * count) for _, count, f in out[3]]
            digest.update(repr((out, terms)).encode())
    assert digest.hexdigest() == EXACT_LAYER_BITS


def test_gamma_ratio_poles_by_hand():
    # 1-2: G(2H-1) / G(2H+1); 1-2,3-4: G(2H-1)^2 / G(4H+1), whose poles
    # from H = -1/2 down lose one order to the denominator; 1-4,2-3:
    # G(2H-1) G(4H-1) / (G(2H+1) G(4H+1)), where they cancel from -1/4 down
    F = Fraction
    cases = {
        "1-2": {F(1, 2): 1, F(0): 1},
        "1-2,3-4": {F(1, 2): 2, F(0): 2, F(-1, 2): 1, F(-1): 1, F(-3, 2): 1, F(-2): 1},
        "1-4,2-3": {F(1, 2): 1, F(1, 4): 1, F(0): 2},
    }
    for spec, poles in cases.items():
        _tree, numer, denom, _crossing = factorize(parse_pairs(spec))
        assert gamma_ratio_poles(numer, denom, -4) == poles, spec


def term_sum_exact(partition: PairPartition, h: float):
    """50-digit value of the gamma product of ``factorize`` times the term
    sum of each crossing component, for a P whose terms all nest."""
    import mpmath

    _tree, numer, denom, crossing = factorize(partition)
    with mpmath.workdps(50):
        alpha = 2 * mpmath.mpf(h) - 2

        def ratio(top, bottom):
            gamma = [mpmath.gamma(c + q * alpha) for c, q in top + bottom]
            return mpmath.fprod(gamma[: len(top)]) / mpmath.fprod(gamma[len(top):])

        value = ratio(numer, denom)
        for _, count, factors in crossing:
            terms = crossing_terms(factors, 2 * count)
            assert all(grid is None for *_, grid in terms)
            value *= mpmath.fsum(s * ratio(top, bottom) for s, top, bottom, _ in terms)
        return value


@pytest.mark.parametrize("h", [0.501, 0.51])
def test_laminar_crossing_near_half_against_mpmath(h):
    # the terms cancel by a factor up to 6e8 at H = 0.501; the reported tol
    # must carry that
    laminar = [p for p in all_pair_partitions(6) if is_crossing(p)
               and l_adaptive(p, 0.8).cells == 0]
    assert len(laminar) == 6
    for p in laminar:
        r = l_adaptive(p, h)
        assert abs(r.value - term_sum_exact(p, h)) <= r.tol, p


def test_closed_form_adjacent():
    for k in (1, 2, 3):
        p = PairPartition([(2 * l - 1, 2 * l) for l in range(1, k + 1)])
        for h in (0.75, 0.9):
            r = l_closed_form(p, h)
            assert r.value == pytest.approx(Exact.adjacent(k, h), rel=1e-12)
            assert r.method == "closed-form"


def test_closed_form_declines_exactly_crossing():
    for size in (2, 4, 6):
        for p in all_pair_partitions(size):
            if is_crossing(p):
                with pytest.raises(DomainError, match="crossing pairs"):
                    l_closed_form(p, 0.8)
            else:
                assert l_closed_form(p, 0.8).value > 0


def nested_gamma_exact(partition: PairPartition, h: float):
    """50-digit value of a non-crossing L(P; H): each gap whose top-level
    pairs have exponents beta_i gives prod G(beta_i + 1) /
    G(sum(beta_i + 1) + m + 1), and a pair [a, b] has the exponent
    (2H - 2) * #(pairs within [a, b]) + (b - a - 1)."""
    import mpmath

    def beta(a, b):
        inside = sum(1 for c, d in partition.pairs if a <= c and d <= b)
        return (2 * mpmath.mpf(h) - 2) * inside + (b - a - 1)

    def gap(lo, hi):
        kids, x = [], lo + 1
        while x < hi:
            kids.append((x, partition.partner(x)))
            x = kids[-1][1] + 1
        out = mpmath.mpf(1)
        for a, b in kids:
            out *= mpmath.gamma(beta(a, b) + 1) * gap(a, b)
        total = sum(beta(a, b) + 1 for a, b in kids)
        return out / mpmath.gamma(total + len(kids) + 1)

    with mpmath.workdps(50):
        return gap(0, partition.size + 1)


def pair_exact(h: float) -> float:
    """Independent symbolic oracle for the single-pair integral."""
    import sympy

    s1, s2, hh = sympy.symbols("s1 s2 h", positive=True)
    inner = sympy.integrate((s2 - s1) ** (2 * hh - 2), (s1, 0, s2))
    outer = sympy.integrate(inner, (s2, 0, 1))
    return float(sympy.simplify(outer).subs(hh, sympy.Rational(h).limit_denominator()))


def test_exact_table_against_independent_oracles():
    # every entry of verify's table once: the pair value symbolically, the
    # adjacent product by scipy, the k=2 forms by the 50-digit references
    # above, and the moments of 1^2k as (2k-1)!! matchings, each of volume
    # 1/(2k)! at H = 1, where the eq405 prefactor is 1 and paper-406's 1/k!
    from scipy.special import gamma as gamma_fn

    for h in (0.6, 0.75, 0.9):
        assert Exact.adjacent(1, h) == pytest.approx(pair_exact(h), rel=1e-12)
    for k, h in itertools.product((1, 2, 3), (0.501, 0.6, 0.75, 0.9, 1.0)):
        exact = float(gamma_fn(2 * h - 1) ** k / gamma_fn(2 * k * h + 1))
        assert Exact.adjacent(k, h) == pytest.approx(exact, rel=1e-12), (k, h)
    for p, h in itertools.product((ADJ2, NEST2, CROSS2), (0.501, 0.51, 0.8, 0.9)):
        ref = term_sum_exact(p, h) if is_crossing(p) else nested_gamma_exact(p, h)
        # the crossing form cancels near H = 1/2: 9e-11 relative at 0.501
        rel = 1e-9 if h < 0.6 else 1e-12
        assert Exact.k2(format_pairs(p), h) == pytest.approx(float(ref), rel=rel), (p, h)
    for k in range(1, 7):
        volume, count = Fraction(1, math.factorial(2 * k)), double_factorial(2 * k - 1)
        assert Exact.adjacent(k, 1.0) == float(volume)
        assert Exact.moment(k) == count * volume
        assert Exact.moment(k, "paper-406") == count * volume / math.factorial(k)


@pytest.mark.parametrize("h", [0.5001, 0.55, 0.8, 1.0, 2.5])
def test_noncrossing_exact_against_mpmath(h):
    for size in (2, 4, 6, 8):
        for p in all_pair_partitions(size):
            if is_crossing(p):
                continue
            cf = l_closed_form(p, h)
            ad = l_adaptive(p, h)
            assert ad.value == cf.value and ad.tol == cf.tol, p
            assert abs(cf.value - nested_gamma_exact(p, h)) <= cf.tol, p


def test_factorization_against_direct_mc():
    # H > 3/4, so the Monte Carlo variance is finite
    h = 0.85
    some8 = ("1-2,3-8,4-5,6-7", "1-8,2-7,3-6,4-5", "1-4,2-3,5-8,6-7",
             "1-5,2-6,3-7,4-8", "1-3,2-5,4-7,6-8")
    for p in all_pair_partitions(6) + [parse_pairs(s) for s in some8]:
        a = l_adaptive(p, h, tol=1e-7)
        mc = l_direct_mc(p, h, samples=200_000, seed=85)
        assert abs(a.value - mc.value) <= 5 * mc.stderr + a.tol, p


def test_direct_mc_unit_case_is_exact():
    r = l_direct_mc(ADJ2, 1.0, samples=10_000, seed=1)
    assert r.value == pytest.approx(Exact.adjacent(2, 1.0), rel=1e-12)
    assert r.stderr == pytest.approx(0.0, abs=1e-15)


def test_direct_mc_pair_within_three_sigma():
    r = l_direct_mc(PAIR, 0.75, samples=200_000, seed=42)
    assert abs(r.value - Exact.adjacent(1, 0.75)) <= 3 * r.stderr
    assert r.extra["finite_variance"] is False
    assert l_direct_mc(PAIR, 0.8, samples=10, seed=42).extra["finite_variance"] is True


@pytest.mark.parametrize("h", [0.9, 0.95])
def test_direct_mc_stderr_matches_exact_variance(h):
    # the squared integrand is the integrand at H' = 2H - 1, so the exact
    # per-sample variance is (2k)! L(P; 2H-1) - ((2k)! L(P; H))^2
    n_samples = 200_000
    for spec in ("1-2", "1-2,3-4", "1-4,2-3", "1-2,3-4,5-6", "1-6,2-3,4-5"):
        p = parse_pairs(spec)
        fact = math.factorial(p.size)
        mean = fact * l_closed_form(p, h).value
        sd = math.sqrt(fact * l_closed_form(p, 2 * h - 1).value - mean**2)
        for seed in range(5):
            r = l_direct_mc(p, h, samples=n_samples, seed=seed)
            ratio = r.stderr * fact * math.sqrt(n_samples) / sd
            assert abs(ratio - 1) <= 0.05, (spec, seed, ratio)


# float.hex of (value, stderr); the batch size must not change a bit.
# Re-recorded when the moments moved to blocks of 2^10 samples: the second
# and third rows changed in their last bits
DIRECT_MC_BITS = [
    ("1-2,3-4,5-6", 0.8, 1_000_000, 7, 1,
     "0x1.3c7d244d0d12cp-5", "0x1.51f23fcb7735ep-14"),
    ("1-4,2-5,3-6", 0.62, 123_457, 11, 3,
     "0x1.26ae9644d4a8ap-6", "0x1.c6e4b826ca362p-14"),
    ("1-6,2-4,3-7,5-9,8-10", 0.9, 10, 11, 2,
     "0x1.1c0e105b5c058p-20", "0x1.00d68f9c8c066p-25"),
    ("1-2", 1.0, 2, 1, 1, "0x1.0000000000000p-1", "0x0.0p+0"),
]


@pytest.mark.parametrize("batch", [None, 1 << 10, 1 << 18])
def test_direct_mc_bits_pinned(batch, monkeypatch):
    if batch is not None:
        monkeypatch.setattr("sigpole.quadrature._DIRECT_BATCH", batch)
    for spec, h, n, seed, workers, value, stderr in DIRECT_MC_BITS:
        r = l_direct_mc(parse_pairs(spec), h, samples=n, seed=seed, workers=workers)
        assert (r.value.hex(), r.stderr.hex()) == (value, stderr), spec


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("batch", [None, 1 << 10, 1 << 18])
def test_direct_mc_bits_any_thread_count(threads, batch, monkeypatch):
    if batch is not None:
        monkeypatch.setattr("sigpole.quadrature._DIRECT_BATCH", batch)
    # 7 workers of 1429 or 1428 samples: every thread's share crosses worker
    # segments, and at 2^10 rows one segment is split between two threads
    monkeypatch.setattr("sigpole.quadrature._thread_count", lambda: 1)
    short = l_direct_mc(CROSS2, 0.8, samples=10_000, seed=3, workers=7)
    monkeypatch.setattr("sigpole.quadrature._thread_count", lambda: threads)
    again = l_direct_mc(CROSS2, 0.8, samples=10_000, seed=3, workers=7)
    assert (again.value.hex(), again.stderr.hex()) == (short.value.hex(), short.stderr.hex())
    for spec, h, n, seed, workers, value, stderr in DIRECT_MC_BITS:
        r = l_direct_mc(parse_pairs(spec), h, samples=n, seed=seed, workers=workers)
        assert (r.value.hex(), r.stderr.hex()) == (value, stderr), spec


def test_direct_mc_threads_stress(monkeypatch):
    # 8 threads on 64-row batches, switching as often as the interpreter
    # allows: a batch written twice or by a neighbour's scratch moves a bit
    monkeypatch.setattr("sigpole.quadrature._DIRECT_BATCH", 1 << 6)
    monkeypatch.setattr("sigpole.quadrature._thread_count", lambda: 1)
    want = l_direct_mc(ADJ2, 0.8, samples=20_000, seed=5, workers=3)
    monkeypatch.setattr("sigpole.quadrature._thread_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = l_direct_mc(ADJ2, 0.8, samples=20_000, seed=5, workers=3)
    finally:
        sys.setswitchinterval(interval)
    assert (got.value.hex(), got.stderr.hex()) == (want.value.hex(), want.stderr.hex())


def test_direct_mc_thread_pool_bounds(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread started")

    real = threading.Thread
    monkeypatch.setattr(threading, "Thread", refuse)
    # one batch, then one CPU: both run in the calling thread
    l_direct_mc(PAIR, 0.8, samples=quadrature._DIRECT_BATCH, seed=1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    l_direct_mc(PAIR, 0.8, samples=100_000, seed=1, workers=4)
    started = []

    class Spy(real):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    l_direct_mc(PAIR, 0.8, samples=100_000, seed=1, workers=4)
    # two CPUs: the calling thread runs the first share, one started thread the other
    assert len(started) == 1 and not any(t.is_alive() for t in started)


def test_direct_mc_thread_error_reaches_caller(monkeypatch):
    calls = []

    def fail_second(*args):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("batch failed")
        return _sorted_rows(*args)

    monkeypatch.setattr("sigpole.quadrature._sorted_rows", fail_second)
    monkeypatch.setattr("sigpole.quadrature._thread_count", lambda: 2)
    with pytest.raises(RuntimeError, match="batch failed"):
        l_direct_mc(PAIR, 0.8, samples=100_000, seed=1)


def test_thread_count_fallbacks(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert quadrature._thread_count() == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert quadrature._thread_count() == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert quadrature._thread_count() == 1


def _traced_peak(call) -> int:
    """The traced heap high-water mark of one call, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_direct_mc_memory_does_not_grow_with_samples(monkeypatch):
    # 64 times the samples adds 3 floats per 2^10-sample block, not 16 B
    # per sample (64 MiB more at 2^22 when each sample was kept); two
    # threads in both calls, since each thread owns a scratch set
    monkeypatch.setattr("sigpole.quadrature._thread_count", lambda: 2)
    small = _traced_peak(lambda: l_direct_mc(PAIR, 0.8, samples=1 << 16, seed=1))
    large = _traced_peak(lambda: l_direct_mc(PAIR, 0.8, samples=1 << 22, seed=1))
    assert large - small <= 1 << 20, (small, large)


def test_pullback_mc_memory_bounded():
    # proposals are evaluated in row chunks: about 9 MB, where one pass over
    # the whole draw batch peaked at 26 MB; the warm-up call loads the
    # modules and numpy's lazy imports, which are traced too
    l_pullback_mc(PAIR, 0.8, samples=4096, seed=1)
    peak = _traced_peak(lambda: l_pullback_mc(PAIR, 0.8, samples=100_000, seed=1))
    assert peak <= 12e6, peak


def test_effective_samples_is_kish_ratio():
    w = np.array([0.0, 1.0, 3.0, 0.5])
    got = quadrature._effective_samples(len(w), float(w.mean()), float(w.var()))
    assert got == pytest.approx(w.sum() ** 2 / (w * w).sum(), rel=1e-14)
    # every weight 0: 0, with no division
    assert quadrature._effective_samples(5, 0.0, 0.0) == 0.0


def test_mc_routes_report_effective_samples():
    # the pair's weights have a finite 4th moment at H = 0.9 (4H - 3 > 1/2)
    r = l_direct_mc(PAIR, 0.9, samples=20_000, seed=4)
    assert 0.8 * r.samples < r.extra["ess"] <= r.samples
    # a rejected proposal weighs 0, so at most the accepted ones count
    r = l_pullback_mc(PAIR, 0.8, samples=20_000, seed=4)
    assert 1 <= r.extra["ess"] <= r.extra["accepted"] < r.samples


def test_pullback_without_an_accepted_proposal_raises():
    # its mean and stderr would both be 0, a claim of an exact 0
    with pytest.raises(NumericError, match="no correct digit"):
        l_pullback_mc(PAIR, 0.8, samples=2, seed=3)


@pytest.mark.parametrize("route", [l_direct_mc, l_pullback_mc])
def test_more_workers_than_samples_refused(route, monkeypatch):
    def no_seeds(*args, **kwargs):
        raise AssertionError("a seed sequence was built")

    monkeypatch.setattr(np.random, "SeedSequence", no_seeds)
    with pytest.raises(SizeError, match="4 workers refused for 3 samples"):
        route(PAIR, 0.8, samples=3, workers=4)


@pytest.mark.parametrize("route", [l_direct_mc, l_pullback_mc])
def test_worker_streams_past_the_bound_refused(route, monkeypatch):
    # each stream has a fixed setup cost whatever its size, so the stream
    # count is bounded like the sample count, before any stream is built
    def no_seeds(*args, **kwargs):
        raise AssertionError("a seed sequence was built")

    monkeypatch.setattr(np.random, "SeedSequence", no_seeds)
    monkeypatch.setattr(quadrature, "worker_seeds", no_seeds)
    for workers in (quadrature.MAX_WORKERS + 1, 65536, quadrature.MAX_SAMPLES):
        with pytest.raises(SizeError, match=f"{workers} workers refused for .* at most 1024"):
            route(PAIR, 0.8, samples=quadrature.MAX_SAMPLES, workers=workers)
    quadrature.check_route_args(0.8, samples=quadrature.MAX_SAMPLES,
                                workers=quadrature.MAX_WORKERS)


@pytest.mark.parametrize("route", [l_direct_mc, l_pullback_mc])
def test_oversized_sample_count_refused(route, monkeypatch):
    def no_seeds(*args, **kwargs):
        raise AssertionError("a seed sequence was built")

    monkeypatch.setattr(np.random, "SeedSequence", no_seeds)
    monkeypatch.setattr(quadrature, "worker_seeds", no_seeds)
    # below 2 too: one sample has no error estimate
    for samples in (quadrature.MAX_SAMPLES + 1, 10**10, 10**13, 1, 0, -5):
        with pytest.raises(SizeError, match=f"{samples} samples refused"):
            route(PAIR, 0.8, samples=samples)
    with pytest.raises(SizeError, match="samples refused"):
        quadrature.check_route_args(0.8, samples=quadrature.MAX_SAMPLES + 1)
    quadrature.check_route_args(0.8, samples=quadrature.MAX_SAMPLES)


@pytest.mark.parametrize("method", ["direct-mc", "pullback-mc"])
def test_negative_seed_refused(method, monkeypatch):
    def no_seeds(*args, **kwargs):
        raise AssertionError("a seed sequence was built")

    monkeypatch.setattr(np.random, "SeedSequence", no_seeds)
    with pytest.raises(DomainError, match="seed must be nonnegative, got -1"):
        quadrature.ROUTES[method](PAIR, 0.8, samples=100, seed=-1)
    with pytest.raises(DomainError, match="seed must be nonnegative"):
        quadrature.check_route_args(0.8, seed=-1)


def test_merge_network_sorts():
    assert [len(_merge_network(n)) for n in (2, 4, 6, 8, 10)] == [1, 5, 12, 19, 32]
    for n in range(2, 17, 2):
        # 0-1 principle: sorting every 0/1 column proves the network sorts
        bits = (np.arange(1 << n)[None, :] >> np.arange(n)[:, None]) & 1
        cols = bits.astype(float)
        rows = _sorted_rows(cols, _merge_network(n), np.empty(1 << n))
        np.testing.assert_array_equal(np.array(rows), np.sort(bits, axis=0))
    rng = np.random.default_rng(0)
    for n in range(18, 25, 2):
        cols = rng.random((n, 2000))
        want = np.sort(cols, axis=0)
        rows = _sorted_rows(cols, _merge_network(n), np.empty(2000))
        np.testing.assert_array_equal(np.array(rows), want)


def test_direct_mc_reproducible_and_worker_rule():
    a = l_direct_mc(PAIR, 0.8, samples=50_000, seed=7)
    b = l_direct_mc(PAIR, 0.8, samples=50_000, seed=7)
    assert a.value == b.value and a.stderr == b.stderr
    c = l_direct_mc(PAIR, 0.8, samples=50_000, seed=7, workers=4)
    d = l_direct_mc(PAIR, 0.8, samples=50_000, seed=7, workers=4)
    assert c.value == d.value
    assert c.value != a.value  # different documented stream split
    seqs = worker_seeds(7, 3)
    assert [s.spawn_key for s in seqs] == [(0,), (1,), (2,)]


def test_direct_mc_domain_error():
    with pytest.raises(DomainError):
        l_direct_mc(PAIR, 0.5, samples=100)


def test_pullback_volume_sanity():
    r2 = l_pullback_mc(PAIR, 1.0, samples=150_000, seed=7)
    assert abs(r2.value - Exact.adjacent(1, 1.0)) <= 3 * r2.stderr


def test_pullback_guards(monkeypatch):
    # more than one pair is refused after the argument rules and before any
    # chart is built or probed: from 2k = 4 the stderr is no error
    from sigpole import blowup

    def no_chart(*args, **kwargs):
        raise AssertionError("a blowup chart was built")

    monkeypatch.setattr(blowup, "BlowupChart", no_chart)
    for p in (ADJ2, CROSS2, NEST2, PairPartition([(1, 2), (3, 4), (5, 6)]),
              PairPartition([(i, i + 4) for i in (1, 2, 3, 4)])):
        with pytest.raises(SizeError, match=f"one pair, got {p.k} pairs"):
            l_pullback_mc(p, 0.8, samples=100)
    with pytest.raises(DomainError, match="outside convergent region"):
        l_pullback_mc(ADJ2, 0.5, samples=100)
    with pytest.raises(SizeError, match="1 samples refused"):
        l_pullback_mc(ADJ2, 0.8, samples=1)


@pytest.mark.parametrize("n", [1, 3])
def test_pullback_refuses_chart_of_wrong_dimension(n):
    with pytest.raises(DimensionError):
        l_pullback_mc(PAIR, 0.8, samples=100, chart=BlowupChart(n))


def test_estimator_consistency_grid():
    # every route that applies agrees pairwise, k <= 2
    for p, h in itertools.product((PAIR, ADJ2, CROSS2), (0.75, 0.9, 1.0)):
        results: list[EvalResult] = [l_adaptive(p, h, tol=1e-7)]
        try:
            results.append(l_closed_form(p, h))
        except DomainError:
            pass
        results.append(l_direct_mc(p, h, samples=150_000, seed=11))
        for a, b in itertools.combinations(results, 2):
            sigma = math.hypot(a.stderr or 0.0, b.stderr or 0.0)
            tol = 3 * sigma + (a.tol or 0) + (b.tol or 0) + 1e-12
            assert abs(a.value - b.value) <= max(tol, 1e-6 * abs(a.value)), (
                p,
                h,
                a.method,
                b.method,
            )


def test_reflection_symmetry_numeric():
    for p in (CROSS2, NEST2):
        a = l_adaptive(p, 0.8, tol=1e-7)
        b = l_adaptive(p.reversed(), 0.8, tol=1e-7)
        assert a.value == pytest.approx(b.value, rel=1e-6)
    # 2k = 6 via matching Monte Carlo budgets
    p6 = PairPartition([(1, 5), (2, 3), (4, 6)])
    a = l_direct_mc(p6, 0.85, samples=200_000, seed=21)
    b = l_direct_mc(p6.reversed(), 0.85, samples=200_000, seed=22)
    assert abs(a.value - b.value) <= 3 * math.hypot(a.stderr, b.stderr)


def test_positive_and_finite_on_h_grid():
    for h in (0.6, 0.75, 0.9, 1.0):
        v = l_adaptive(CROSS2, h, tol=1e-6).value
        assert np.isfinite(v) and v > 0


# ---------------------------------------------------------------------------
# Moment oracle

def naive_increasing_sum(partition: PairPartition, cov: np.ndarray) -> float:
    total = 0.0
    for idx in itertools.combinations(range(cov.shape[0]), partition.size):
        prod = 1.0
        for a, b in partition.pairs:
            prod *= cov[idx[a - 1], idx[b - 1]]
        total += prod
    return total


def test_increasing_sum_matches_enumeration():
    rng = np.random.default_rng(3)
    m = 8
    c = rng.standard_normal((m, m))
    c = (c + c.T) / 2
    for size in (2, 4):
        for p in all_pair_partitions(size):
            fast = _increasing_pair_sum(p, c)
            slow = naive_increasing_sum(p, c)
            assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)
    p6 = PairPartition([(1, 4), (2, 6), (3, 5)])
    assert _increasing_pair_sum(p6, c) == pytest.approx(
        naive_increasing_sum(p6, c), rel=1e-12
    )


@pytest.mark.parametrize("h", [0.6, 0.8, 1.0])
def test_increasing_sum_matches_enumeration_on_fbm_grid(h):
    # every matching with 2k <= 8 against the explicit sum over increasing
    # index tuples, on the increment covariance the oracle uses; 2k = 8
    # reaches 3- and 4-axis states that close a pair in a middle axis
    c = FbmCovariance(h).increment_cov(10)
    for size in (2, 4, 6, 8):
        for p in all_pair_partitions(size):
            assert _increasing_pair_sum(p, c) == pytest.approx(
                naive_increasing_sum(p, c), rel=1e-12
            ), p.pairs


def test_fbm_covariance():
    cov = FbmCovariance(0.75)
    assert cov.cov(1.0, 1.0) == pytest.approx(1.0)
    inc = cov.increment_cov(16)
    assert inc.shape == (16, 16)
    assert np.allclose(inc, inc.T)
    # total variance of the path at t=1
    assert inc.sum() == pytest.approx(1.0)
    with pytest.raises(DomainError):
        FbmCovariance(0.0)
    with pytest.raises(DomainError):
        FbmCovariance(1.5)


@pytest.mark.parametrize("h", [0.6, 0.8, 1.0])
@pytest.mark.parametrize("m", [16, 128])
def test_increment_cov_is_toeplitz(h, m):
    # stationary increments: entry (i, j) depends on |i - j| alone, and
    # agrees with the second difference of the covariance over grid edges
    cov = FbmCovariance(h)
    inc = cov.increment_cov(m)
    idx = np.arange(m)
    lag = np.abs(idx[:, None] - idx[None, :])
    assert np.array_equal(inc, inc[0][lag])
    edges = np.arange(m + 1) / m
    r = cov.cov(edges[:, None], edges[None, :])
    edge_form = r[1:, 1:] - r[1:, :-1] - r[:-1, 1:] + r[:-1, :-1]
    assert np.max(np.abs(inc - edge_form)) <= 1e-15
    if h == 1.0:
        assert np.all(inc == 1 / m**2)
    assert inc.sum() == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("h", [0.6, 0.75, 0.9, 1.0])
def test_oracle_second_moment(h):
    r = wick_grid_oracle(Word([1, 1]), h, m=64)
    assert r.method == "wick-grid"
    assert abs(r.value - Exact.moment(1)) <= 1e-5


def test_oracle_fourth_moment():
    # H = 1 at m = 64 is the moment-oracle check of verify
    r = wick_grid_oracle(Word([1, 1, 1, 1]), 0.75, m=48)
    assert abs(r.value - Exact.moment(2)) <= 5e-3


def test_oracle_empty_sum_and_guards():
    # the exact 0 of 1,2,2,3 is the moment-oracle check of verify
    with pytest.raises(DomainError):
        wick_grid_oracle(Word([1, 1]), 0.8, m=4)


@pytest.mark.parametrize("h, m", [(0.5, 64), (0.3, 64), (0.8, 8.5), (True, 64)],
                         ids=["H=1/2", "H=0.3", "m=8.5", "H=True"])
def test_oracle_refuses_divergent_h_and_fractional_grid(monkeypatch, h, m):
    # at H = 1/2 the strictly increasing sum misses the Ito diagonal (value
    # 0 against 1/2), below it the grid sum diverges like m^(1-2H), and a
    # fractional m sets no grid; each is refused before any array exists
    def no_arrays(self, m):
        raise AssertionError("covariance built before the argument check")

    monkeypatch.setattr(FbmCovariance, "increment_cov", no_arrays)
    with pytest.raises(DomainError):
        wick_grid_oracle(Word([1, 1]), h, m=m)


@pytest.mark.parametrize("letters", [[1, 2], [1, 1]], ids=["1,2", "1,1"])
def test_oracle_refuses_h_above_one(monkeypatch, letters):
    # fBm has no H > 1: a word with no refining matching, whose sum is an
    # exact 0, is refused like one that would build a covariance
    def no_arrays(self, m):
        raise AssertionError("covariance built before the argument check")

    monkeypatch.setattr(FbmCovariance, "increment_cov", no_arrays)
    with pytest.raises(DomainError, match="got 1.5"):
        wick_grid_oracle(Word(letters), 1.5)


def test_oracle_rank_one_limit():
    # at H=1 all increments are perfectly correlated: the sum reduces to
    # counting increasing tuples, and the extrapolated value matches the
    # closed-form moment over the factorial
    m = 32
    r = wick_grid_oracle(Word([1, 1, 1, 1]), 1.0, m=m)
    expected = 3 * math.comb(m, 4) / m**4
    assert r.extra["grid_values"][0] == pytest.approx(expected, rel=1e-12)
    json.dumps(r.to_json_dict(), allow_nan=False)


def test_oracle_rank_one_limit_sixth_moment():
    # 2k = 6: 15 matchings, each counting the increasing 6-tuples
    m = 32
    r = wick_grid_oracle(Word([1] * 6), 1.0, m=m)
    expected = 15 * math.comb(m, 6) / m**6
    assert r.extra["grid_values"][0] == pytest.approx(expected, rel=1e-12)


def test_oracle_refuses_oversized_arrays(monkeypatch):
    # four pairs open at once at 2m = 128 would need 2^28-entry arrays; the
    # guard runs before any covariance matrix is built
    def no_arrays(self, m):
        raise AssertionError("covariance built before the size check")

    monkeypatch.setattr(FbmCovariance, "increment_cov", no_arrays)
    with pytest.raises(SizeError, match="268435456 entries"):
        wick_grid_oracle(Word([1] * 8), 0.8, m=64)
    # a single pair still needs the (2m)^2 covariance matrix
    with pytest.raises(SizeError, match="over the limit of 16777216"):
        wick_grid_oracle(Word([1, 1]), 0.8, m=1 << 12)


@pytest.mark.parametrize("fields", [
    {"stderr": 0.1, "samples": 10, "tol": 0.1},  # both errors
    {"samples": 10},  # neither
    {},
    {"stderr": 0.1},  # a stderr without samples
])
def test_eval_result_kind_needs_exactly_one_error(fields):
    # the error field sets the kind, whatever the method label
    for method in ("direct-mc", "adaptive", "any label"):
        with pytest.raises(DomainError, match=f"{method} results"):
            EvalResult(value=1.0, method=method, **fields)


def test_every_result_sets_exactly_one_error():
    options = {"samples": 20_000, "seed": 1, "tol": 1e-8}
    results = [route(PAIR, 0.8, **{key: options[key] for key in options.keys()
                                   & (route.__kwdefaults__ or {}).keys()})
               for route in quadrature.ROUTES.values()]
    results.append(wick_grid_oracle(Word([1, 1]), 0.8, m=16))
    results.append(mean_iterated_integral(Word([1, 2]), 0.8, evaluator="direct-mc"))
    for r in results:
        assert (r.stderr is None) != (r.tol is None), r
        assert r.stderr is None or r.samples is not None, r
    # the label is free: a result of a caller's own method is read by its error
    r = EvalResult(value=1.0, method="my-evaluator", stderr=0.1, samples=2)
    assert set(r.to_json_dict()) == {"value", "method", "stderr", "samples", "seed"}


def test_eval_result_validation():
    r = EvalResult(value=1.0, method="adaptive", tol=1e-8, cells=100, h=0.8)
    d = r.to_json_dict()
    assert d["tol"] == 1e-8 and "stderr" not in d
    with pytest.raises(NumericError):
        EvalResult(value=np.float64(np.nan), method="adaptive", tol=0.0)


@pytest.mark.parametrize("value, errors", [
    (0.0, {"stderr": 0.0, "samples": 2}),  # every sample 0: no exact zero
    (0.5, {"tol": 0.5}),
    (-0.5, {"tol": 0.75}),
    (math.inf, {"tol": 0.0}),
    (0.5, {"stderr": math.nan, "samples": 2}),
    (0.5, {"tol": -0.1}),
])
def test_eval_result_without_a_correct_digit_raises(value, errors):
    method = "direct-mc" if "stderr" in errors else "adaptive"
    with pytest.raises(NumericError, match="no correct digit at H=0.8") as exc:
        EvalResult(value=value, method=method, h=0.8, **errors)
    name = "stderr" if "stderr" in errors else "tol"
    assert exc.value.diagnostics == {"best": value, name: errors[name]}


def test_eval_result_exact_zero():
    # the one exception to the result rule: 0 with error 0, marked
    EvalResult(value=0.0, method="adaptive", tol=0.0, h=0.8, extra={"exact_zero": True})
    with pytest.raises(NumericError):
        EvalResult(value=0.0, method="adaptive", tol=1e-3, h=0.8, extra={"exact_zero": True})


def test_oracle_exact_zero_is_marked():
    r = wick_grid_oracle(Word([1, 2, 2, 3]), 0.8)
    assert r.value == r.tol == 0 and r.extra["exact_zero"] is True


def test_to_json_dict_numpy_scalars_and_bools():
    r = EvalResult(value=np.float64(0.25), method="direct-mc", stderr=0.01, samples=10,
                   seed=1, extra={"finite_variance": True, "mean": np.float64(0.5),
                                  "count": np.int64(7)})
    d = r.to_json_dict()
    assert json.dumps(d, sort_keys=True) == (
        '{"extra": {"count": 7, "finite_variance": true, "mean": 0.5}, '
        '"method": "direct-mc", "samples": 10, "seed": 1, "stderr": 0.01, "value": 0.25}'
    )
    assert [type(d["extra"][k]) for k in ("count", "finite_variance", "mean")] == [
        int, bool, float]
    assert type(d["value"]) is float


def test_default_seed_spelling():
    assert DEFAULT_SEED == int.from_bytes(b"FBM0", "big")
