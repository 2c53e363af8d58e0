"""Acceptance criteria: every release gate at its pinned tolerance.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s or in the
captured output); the assertions carry the same tolerances.
"""
from __future__ import annotations

import time
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from sigpole.blowup import BlowupChart, ExponentAssignment, all_monotone_lists
from sigpole.pairings import (
    PairPartition,
    PositionSet,
    Word,
    all_pair_partitions,
    bracket_count,
    bracket_count_via_aug_def,
    parse_pairs,
    parse_position_set,
    refines,
)
from sigpole.poles import candidate_poles, progression_of_set
from sigpole.quadrature import l_adaptive, l_direct_mc, wick_grid_oracle
from sigpole.signature import mean_iterated_integral
from sigpole.verify import DIAGRAM_PARTITION, DIAGRAM_ROWS


def report(num: int, ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_diagram_reproduction():
    t0 = time.perf_counter()
    doubles = []
    progressions = []
    for spec, dbl, offset, step in DIAGRAM_ROWS:
        s = parse_position_set(spec)
        doubles.append(2 * bracket_count(s, DIAGRAM_PARTITION))
        pr = progression_of_set(DIAGRAM_PARTITION, s)
        progressions.append((pr.offset, pr.step))
    ps = candidate_poles(DIAGRAM_PARTITION)
    membership = all(
        offset - step * l in ps
        for (_s, _d, offset, step) in DIAGRAM_ROWS
        for l in (0, 1, 2)
    )
    elapsed = time.perf_counter() - t0
    ok = (
        doubles == [16, 4, 6, 8, 14]
        and progressions == [(o, s) for (_x, _d, o, s) in DIAGRAM_ROWS]
        and membership
        and elapsed < 1.0
    )
    report(1, ok, f"18-position diagrams exact, {elapsed:.2f}s")


def test_criterion_2_refinement_diagrams():
    t0 = time.perf_counter()
    word = Word([6, 3, 1, 3, 6, 6, 1, 5, 6, 5])
    p1 = parse_pairs("1-2,3-4,5-6,7-8,9-10")
    p2 = parse_pairs("1-6,2-4,3-7,5-9,8-10")
    p3 = parse_pairs("1-9,2-4,3-7,5-6,8-10")
    p4 = parse_pairs("1-9,2-7,3-4,5-6,8-10")
    ok = (
        refines(p2, word) is True
        and refines(p3, word) is True
        and refines(p1, word) is False
        and refines(p4, word) is False
    )
    elapsed = time.perf_counter() - t0
    report(2, ok and elapsed < 1.0, f"four bracketings, {elapsed:.3f}s")


def test_criterion_3_identity_suite():
    t0 = time.perf_counter()
    checked = 0
    for size in (2, 4, 6, 8):
        for p in all_pair_partitions(size):
            for bits in range(1 << size):
                s = PositionSet(q for q in range(1, size + 1) if bits >> (q - 1) & 1)
                direct = bracket_count(s, p)
                if direct != bracket_count_via_aug_def(s, p):
                    report(3, False, f"aug/def identity fails at {p!r}, {s!r}")
                parts = [PositionSet(iv.members()) for iv in s.maximal_intervals]
                if direct != sum(bracket_count(t, p) for t in parts):
                    report(3, False, f"additivity fails at {p!r}, {s!r}")
                checked += 1
    elapsed = time.perf_counter() - t0
    report(3, elapsed < 30.0, f"{checked} pairs exhaustive to 2k=8, {elapsed:.1f}s")


def test_criterion_4_pair_closed_form():
    pair = PairPartition([(1, 2)])
    ok = True
    for h in (0.6, 0.75, 0.9):
        exact = 1.0 / (2 * h * (2 * h - 1))
        val = l_adaptive(pair, h, tol=1e-9).value
        ok &= abs(val - exact) <= 1e-8 * exact
        ok &= abs(h * (2 * h - 1) * val - 0.5) <= 1e-8
    report(4, ok, "adaptive matches 1/(2H(2H-1)) to 1e-8 relative")


def test_criterion_5_beta_ratio_consistency():
    t0 = time.perf_counter()
    p = PairPartition([(1, 2), (3, 4)])
    ok = True
    for h in (0.75, 0.9):
        exact = float(gamma_fn(2 * h - 1) ** 2 / gamma_fn(4 * h + 1))
        ad = l_adaptive(p, h, tol=1e-6)
        ok &= abs(ad.value - exact) <= 1e-6 * exact
        mc = l_direct_mc(p, h, samples=1_000_000, seed=20_240_808)
        ok &= abs(mc.value - exact) <= 3 * mc.stderr
    elapsed = time.perf_counter() - t0
    report(5, ok and elapsed < 60.0, f"adaptive 1e-6 + MC 3 sigma, {elapsed:.1f}s")


def test_criterion_6_change_of_variables():
    rng = np.random.default_rng(606)
    ok = True
    # pointwise pullback identity at interior points, complex exponents
    for n, count in ((1, 334), (2, 333), (3, 333)):
        chart = BlowupChart(n)
        e = rng.standard_exponential((count, n + 1))
        xs = e[:, :n] / e.sum(axis=1, keepdims=True)
        ys = chart.F_inverse_batch(xs, tol=1e-10)
        for y in ys:
            lam_vals = {
                chart.subset_of(m): complex(rng.uniform(0, 2), rng.uniform(-1, 1))
                for m in chart.masks
            }
            lam = ExponentAssignment(n, lam_vals)
            lhs = chart.pullback_integrand(lam, list(y))
            fvec = chart.F_eval(list(y))
            rhs = complex(chart.det_jacobian(list(y)))
            for s, v in lam_vals.items():
                rhs *= complex(sum(fvec[i - 1] for i in s)) ** v
            ok &= abs(lhs - rhs) <= 1e-9 * abs(rhs)
    # determinant factorization with the explicit positive factor, n <= 4
    for n in (2, 3, 4):
        chart = BlowupChart(n)
        base = chart.q(n) / n + 1.0
        for y in base + rng.random((100, n)) * 5.0:
            det = chart.det_jacobian(list(y))
            f = chart.f_all(list(y))
            prod = 1.0
            for j, m in enumerate(chart.masks):
                prod *= f[j] ** (chart.sizes[j] - 1)
            ok &= abs(det - prod * chart.r_exact(list(y))) <= 1e-9 * abs(det)
    report(6, ok, "pullback and determinant identities to 1e-9")


def test_criterion_7_boundary_positivity():
    ok = True
    for n in (1, 2, 3):
        chart = BlowupChart(n)
        for flags in all_monotone_lists(n):
            y = chart.witness_point(flags)
            ok &= chart.r_exact(y) > 0
            ok &= all(
                chart.p_s_eval(chart.subset_of(m), y) > 0 for m in chart.masks
            )
            ok &= set(chart.vanishing_set(y)) == set(flags.subsets)
    report(7, ok, "exact positivity and vanishing flags, n <= 3")


def test_criterion_8_diffeomorphism_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    ok = True
    for n in (1, 2, 3):
        chart = BlowupChart(n)
        xs = rng.random((500, n)) * 0.999 + 5e-4
        ys = chart.F_inverse_batch(xs, tol=1e-9)
        ok &= float(np.abs(chart.F_batch(ys) - xs).max()) <= 1e-8
        ok &= bool(chart.omega_mask(ys).all())
    # binary64 coordinates cannot express the region at n=4 finely enough,
    # so the round trip there runs through the exact rational polish
    chart = BlowupChart(4)
    xs = rng.random((500, 4)) * 0.999 + 5e-4
    worst = F(0)
    for x, y in zip(xs, chart.F_inverse_exact_batch(xs, tol=F(1, 10**9))):
        res = max(abs(F(float(v)) - fv) for v, fv in zip(x, chart.F_eval(y)))
        worst = max(worst, res)
        ok &= chart.omega_contains(y)
    ok &= worst <= F(1, 10**8)
    elapsed = time.perf_counter() - t0
    report(
        8,
        ok and elapsed < 60.0,
        f"2000 targets, worst n=4 residual {float(worst):.1e}, {elapsed:.1f}s",
    )


def test_criterion_9_normalization_disambiguation():
    t0 = time.perf_counter()
    w = Word([1, 1, 1, 1])
    r405 = mean_iterated_integral(w, 1.0, mode="eq405-consistent", tol=1e-9)
    r406 = mean_iterated_integral(w, 1.0, mode="paper-406", tol=1e-9)
    oracle = wick_grid_oracle(w, 1.0, m=64)
    ok = abs(r405.extra["partition_sum"] - 3 / 24) <= 1e-8
    ok &= abs(r405.value - 1 / 8) <= 1e-8
    ok &= abs(oracle.value - 1 / 8) <= 1e-3
    ok &= abs(r406.value - 1 / 16) <= 1e-8
    ok &= "normalization_note" in r406.extra  # the discrepancy is flagged
    elapsed = time.perf_counter() - t0
    report(9, ok and elapsed < 120.0, f"oracle picks the 1/8 mode, {elapsed:.1f}s")


def test_criterion_10_gamma_ratio_pole_containment():
    t0 = time.perf_counter()
    ok = True
    for k in (1, 2, 3):
        p = PairPartition([(2 * l - 1, 2 * l) for l in range(1, k + 1)])
        ps = candidate_poles(p)
        for m in range(40):
            h0 = F(1 - m, 2)
            order = k - (1 if k * (1 - m) + 1 <= 0 else 0)
            if order > 0:
                ok &= h0 in ps
    elapsed = time.perf_counter() - t0
    report(10, ok and elapsed < 5.0, f"exact membership k <= 3, {elapsed:.2f}s")
