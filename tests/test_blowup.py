"""Blowup machinery: gap weights, witnesses, Jacobians, inversion, pullback."""
from __future__ import annotations

import copy
import hashlib
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest

from sigpole.blowup import (
    _FIRST_STAGE,
    BlowupChart,
    MonotoneList,
    _solve_exact,
    all_monotone_lists,
    exact_det,
)
from sigpole.errors import DomainError, NumericError, SizeError
from sigpole.pairings import PairPartition, PositionSet, bracket_count, parse_pairs
from sigpole.poles import hyperplane_candidates
from sigpole.quadrature import l_pullback_mc


def omega_samples(chart: BlowupChart, count: int, seed: int = 77) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return chart.interior_seed() + rng.random((count, chart.n)) * 4.0


def log_integrand(chart: BlowupChart, ys, lam=None) -> np.ndarray:
    """log_pullback_batch at points, zero exponents by default; every row
    must be usable."""
    lam = np.zeros(len(chart.masks)) if lam is None else lam
    log_g, usable = chart.log_pullback_batch(chart.f_batch(np.atleast_2d(ys)), lam)
    assert usable.all()
    return log_g


def test_gap_weights_admissible_up_to_rank_13():
    # rank 13 is the top flag level one past the largest chart, n = 12
    q = BlowupChart.q
    assert q(0) == 1
    for a in range(13):
        assert 3 * q(a) <= q(a + 1)
        for b in range(a + 1):
            assert q(a) + q(b) < q(a + 1)


def test_f_eval_examples():
    chart = BlowupChart(2)
    assert chart.f_eval({1, 2}, [5.0, 5.0]) == pytest.approx(1.0)
    assert chart.f_eval({1}, [3.0, 10.0]) == 0.0
    with pytest.raises(DomainError):
        chart.f_eval(set(), [1.0, 1.0])


@pytest.mark.parametrize("s", [{0}, {3}, {1, 3}])
def test_mask_of_refuses_elements_outside_the_chart(s):
    with pytest.raises(DomainError):
        BlowupChart(2).mask_of(s)


def test_omega_membership():
    for n in (1, 2, 3):
        chart = BlowupChart(n)
        t = chart.q(n) / n + 0.5
        assert chart.omega_contains([t] * n)
        assert not chart.omega_contains([0.0] * n)
        assert not chart.omega_contains([-1.0] + [t] * (n - 1))
    # witness points sit on the boundary, never inside
    chart = BlowupChart(2)
    w = chart.witness_point(MonotoneList([{1}]))
    assert not chart.omega_contains(w)


def test_F_formulas():
    c1 = BlowupChart(1)
    assert c1.F_eval([5.0]) == [pytest.approx(2.0)]
    c2 = BlowupChart(2)
    y = [5.0, 4.0]
    expected_first = (5.0 - 3.0) * (5.0 + 4.0 - 9.0)
    assert c2.F_eval(y)[0] == pytest.approx(expected_first)


def test_F_maps_omega_into_orthant():
    for n in (2, 3, 4):
        chart = BlowupChart(n)
        ys = omega_samples(chart, 1000 // n)
        assert chart.omega_mask(ys).all()
        assert (chart.F_batch(ys) > 0).all()


def test_witness_examples():
    assert BlowupChart(1).witness_point(MonotoneList([{1}])) == (Fraction(3),)
    w = BlowupChart(2).witness_point(MonotoneList([{1}, {1, 2}]))
    assert w == (Fraction(3), Fraction(6))


# n <= 3 is verify's blowup.witness-flags check
@pytest.mark.parametrize("n", [4])
def test_witness_vanishing_sets_exhaustive(n):
    chart = BlowupChart(n)
    for flags in all_monotone_lists(n):
        y = chart.witness_point(flags)
        assert set(chart.vanishing_set(y)) == set(flags.subsets)


def test_witness_stratum_stability():
    # moving inside the stratum (different free levels, and midpoints by
    # convexity) keeps the same vanishing set
    chart = BlowupChart(3)
    for flags in all_monotone_lists(3):
        a = chart.witness_point(flags, free_position=Fraction(1, 2))
        b = chart.witness_point(flags, free_position=Fraction(7, 8))
        mid = tuple((x + y) / 2 for x, y in zip(a, b))
        for point in (b, mid):
            assert set(chart.vanishing_set(point)) == set(flags.subsets)


def test_witness_rejects_bad_lists():
    chart = BlowupChart(2)
    with pytest.raises(DomainError):
        MonotoneList([{1}, {2}])
    with pytest.raises(DomainError):
        MonotoneList([])
    with pytest.raises(DomainError):
        chart.witness_point(MonotoneList([{1, 2, 3}]))


def test_jacobian_n1():
    chart = BlowupChart(1)
    assert chart.det_jacobian([7.0]) == pytest.approx(1.0)
    assert np.exp(log_integrand(chart, [7.0])) == pytest.approx([1.0])
    assert chart.r_exact([7.0]) == pytest.approx(1.0)


def finite_difference_det(chart: BlowupChart, y, step=1e-5) -> float:
    n = chart.n
    jac = np.zeros((n, n))
    for j in range(n):
        up = list(y)
        down = list(y)
        up[j] += step
        down[j] -= step
        jac[:, j] = (np.array(chart.F_eval(up)) - np.array(chart.F_eval(down))) / (
            2 * step
        )
    return float(np.linalg.det(jac))


@pytest.mark.parametrize("n", [2, 3])
def test_jacobian_matches_finite_differences(n):
    chart = BlowupChart(n)
    for y in omega_samples(chart, 5):
        exact = chart.det_jacobian(list(y))
        fd = finite_difference_det(chart, y)
        assert abs(exact - fd) <= 1e-8 * abs(exact) + 1e-10


def test_det_jacobian_positive_on_omega():
    for n in (2, 3, 4):
        chart = BlowupChart(n)
        assert all(chart.det_jacobian(list(y)) > 0 for y in omega_samples(chart, 200))


@pytest.mark.parametrize("n", [2, 3])
def test_pullback_r_matches_exact(n):
    # at zero exponents the integrand is R times prod f^(|S|-1)
    chart = BlowupChart(n)
    ys = omega_samples(chart, 30)
    log_r = log_integrand(chart, ys) - np.log(chart.f_batch(ys)) @ (chart.sizes - 1)
    for a, y in zip(np.exp(log_r), ys):
        b = chart.r_exact(list(y))
        assert abs(a - b) <= 1e-9 * abs(b)


def test_r_exact_size_guard():
    with pytest.raises(SizeError):
        BlowupChart(5).r_exact([20.0] * 5)


def test_boundary_positivity_exact():
    for n in (1, 2, 3, 4):
        chart = BlowupChart(n)
        for flags in all_monotone_lists(n):
            y = chart.witness_point(flags)
            assert chart.r_exact(y) > 0
            for mask in chart.masks:
                assert chart.p_s_eval(chart.subset_of(mask), y) > 0


def test_positivity_near_every_stratum_sampled():
    # points a small step inside from each stratum witness stay positive in
    # the determinant factor and the pullback denominators (float path)
    for n in (5, 6):
        chart = BlowupChart(n)
        interior = [chart.interior_seed()] * n
        lists = all_monotone_lists(n)
        points = []
        for flags in lists[:: max(1, len(lists) // 60)]:
            y = [float(v) for v in chart.witness_point(flags)]
            moved = [(1 - 1e-3) * a + 1e-3 * b for a, b in zip(y, interior)]
            assert chart.omega_contains(moved)
            for mask in chart.masks:
                assert chart.p_s_eval(chart.subset_of(mask), moved) > 0
            points.append(moved)
        # every row is usable: det(A) > 0
        assert np.isfinite(log_integrand(chart, points)).all()


def test_p_s_formulas():
    c1 = BlowupChart(1)
    assert c1.p_s_eval({1}, [9.0]) == 1
    c2 = BlowupChart(2)
    y = [5.0, 4.5]
    assert c2.p_s_eval({1}, y) == 1
    assert c2.p_s_eval({1, 2}, y) == pytest.approx((5.0 - 3) + (4.5 - 3))


def test_p_s_batch_matches_scalar():
    chart = BlowupChart(3)
    ys = omega_samples(chart, 20)
    f = chart.f_batch(ys)
    for mask in chart.masks:
        s = chart.subset_of(mask)
        batch = chart.p_s_batch(s, f)
        scalar = [chart.p_s_eval(s, list(y)) for y in ys]
        assert np.allclose(batch, scalar, rtol=1e-12)


def test_monotone_pair_sign_dichotomy():
    # at common zeros, the union form plus the intersection mass is positive
    # exactly for nested pairs
    chart = BlowupChart(3)
    nested = (frozenset({1}), frozenset({1, 3}))
    y = [Fraction(3), Fraction(0), Fraction(6)]
    assert chart.f_eval(nested[0], y) == 0 and chart.f_eval(nested[1], y) == 0
    inter = sum(y[i - 1] for i in nested[0] & nested[1])
    assert chart.f_eval(nested[0] | nested[1], y) + inter > 0
    crossing = (frozenset({1, 2}), frozenset({2, 3}))
    y = [Fraction(5), Fraction(4), Fraction(5)]
    assert chart.f_eval(crossing[0], y) == 0 and chart.f_eval(crossing[1], y) == 0
    inter = y[1]
    assert inter >= 0
    assert chart.f_eval(crossing[0] | crossing[1], y) < 0


def test_solve_exact_is_exact():
    rng = np.random.default_rng(21)
    for _ in range(20):
        a = [[Fraction(int(p), int(d)) for p, d in zip(*rng.integers(1, 50, (2, 4)))]
             for _ in range(4)]
        if exact_det(a) == 0:
            continue
        b = [Fraction(int(p), int(d)) for p, d in zip(*rng.integers(1, 50, (2, 4)))]
        x = _solve_exact(a, b)
        assert [sum(r * v for r, v in zip(row, x)) for row in a] == b


def test_solve_exact_refuses_singular():
    with pytest.raises(NumericError):
        _solve_exact([[1, 2], [Fraction(1, 2), 1]], [1, 1])


def test_exact_det_helper():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    assert exact_det(rows) == Fraction(1, 14) - Fraction(1, 15)
    assert exact_det([[1, 2], [2, 4]]) == 0


def test_f_inverse_n1_closed_form():
    chart = BlowupChart(1)
    assert chart.F_inverse_batch(np.array([[0.5]]))[0, 0] == pytest.approx(3.5)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_f_inverse_round_trip_float(n):
    chart = BlowupChart(n)
    rng = np.random.default_rng(5)
    xs = rng.random((100, n)) * 0.98 + 0.01
    ys = chart.F_inverse_batch(xs, tol=1e-9)
    assert np.abs(chart.F_batch(ys) - xs).max() <= 1e-8
    assert chart.omega_mask(ys).all()


def test_f_inverse_recovers_sampled_points():
    chart = BlowupChart(3)
    ys = omega_samples(chart, 50)
    xs = chart.F_batch(ys)
    back = chart.F_inverse_batch(xs, tol=1e-11)
    assert np.abs(back - ys).max() <= 1e-7


def test_f_inverse_exact_n4():
    chart = BlowupChart(4)
    rng = np.random.default_rng(8)
    xs = rng.random((10, 4)) * 0.9 + 0.05
    for x, y in zip(xs, chart.F_inverse_exact_batch(xs, tol=Fraction(1, 10**9))):
        res = max(abs(Fraction(float(v)) - fv) for v, fv in zip(x, chart.F_eval(y)))
        assert res <= Fraction(1, 10**9)
        assert chart.omega_contains(y)


def pin_targets(count: int, n: int) -> np.ndarray:
    return np.random.default_rng(808).random((count, n)) * 0.999 + 5e-4


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_f_inverse_exact_points_pinned():
    # sha256 of repr of the dyadic preimages: the exact polish starts from
    # the float homotopy, so this pins both stages
    ys = BlowupChart(4).F_inverse_exact_batch(pin_targets(5, 4))
    assert sha256(repr(ys)) == (
        "a32ee0ddac2124bfd546e2be325e9d83e06ad6d06686e0b26c99e99c39d45ed6"
    )


# sha256 of the space-joined float.hex of F_inverse_batch on 20 targets
F_INVERSE_BITS = [
    (2, "24095edad0023e8050cd5fa56cc5676a88aee81c45df865c5e19d69e5186213d"),
    (3, "d70cff17843344eb52966111f5a34b8e1491860267648fba195f6a57b3407b09"),
]


@pytest.mark.parametrize("n,digest", F_INVERSE_BITS)
def test_f_inverse_float_bits_pinned(n, digest):
    ys = BlowupChart(n).F_inverse_batch(pin_targets(20, n))
    assert sha256(" ".join(v.hex() for v in ys.ravel().tolist())) == digest


def test_f_inverse_rejects_boundary_targets():
    chart = BlowupChart(2)
    with pytest.raises(DomainError):
        chart.F_inverse_batch(np.array([[0.5, 0.0]]))


def test_inverse_stalls_a_flag_form_that_rounds_to_zero():
    # every form stays positive, but the top flag sum rounds to 0.0, which
    # zeroes a column of the Newton Jacobian; the row stalls in place of a
    # LinAlgError from the solve
    chart = BlowupChart(4)
    x = np.array([[2.613742055655282e-09, 2.104585704972777e-06,
                   1.3275235573142977e-09, 0.001564205024699217]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericError):
            chart.F_inverse_batch(x)
        (y,) = chart.F_inverse_exact_batch(x)
    res = max(abs(Fraction(float(v)) - fv) for v, fv in zip(x[0], chart.F_eval(y)))
    assert res <= Fraction(1, 10**9) and chart.omega_contains(y)


def robustness_targets(count: int, n: int) -> np.ndarray:
    return 10 ** np.random.default_rng(1).uniform(-10, 2, size=(count, n))


# rows of robustness_targets that F_inverse_batch(tol=1e-9) inverted, one at a
# time, on the fixed schedule of 64 equal stages: all but one
INVERTED_ON_FIXED_SCHEDULE = [
    (2, 200, range(200)),
    (3, 100, [i for i in range(100) if i != 79]),
]


@pytest.mark.parametrize("n,count,inverted", INVERTED_ON_FIXED_SCHEDULE)
def test_inverse_keeps_every_target_that_inverted(n, count, inverted):
    # the fitted stage lengths miss a few of these rows at n = 2; the fixed
    # schedule solves them again
    chart = BlowupChart(n)
    xs = robustness_targets(count, n)
    inverted = list(inverted)
    ys = chart.F_inverse_batch(xs[inverted], tol=1e-9)
    scale = np.maximum(xs[inverted].max(axis=1), 1.0)
    assert (np.abs(chart.F_batch(ys) - xs[inverted]).max(axis=1) <= 1e-9 * scale).all()
    assert chart.omega_mask(ys).all()
    for i in sorted(set(range(count)) - set(inverted)):
        try:
            chart.F_inverse_batch(xs[i:i + 1], tol=1e-9)
        except NumericError:
            pass


def test_exact_inverse_retries_a_failed_polish_on_the_fixed_schedule(monkeypatch):
    chart = BlowupChart(4)
    xs = pin_targets(2, 4)
    schedules = []
    float_best, polish = BlowupChart._inverse_float_best, BlowupChart._polish_exact

    def recording(self, xs, first_stage=_FIRST_STAGE):
        schedules.append((len(xs), first_stage))
        return float_best(self, xs, first_stage)

    def failing_once(self, x, start, tol):
        if len(schedules) == 1:
            raise NumericError("exact polish stalled")
        return polish(self, x, start, tol)

    monkeypatch.setattr(BlowupChart, "_inverse_float_best", recording)
    monkeypatch.setattr(BlowupChart, "_polish_exact", failing_once)
    ys = chart.F_inverse_exact_batch(xs)
    assert schedules == [(2, _FIRST_STAGE), (1, 1)]
    for x, y in zip(xs, ys):
        res = max(abs(Fraction(float(v)) - fv) for v, fv in zip(x, chart.F_eval(y)))
        assert res <= Fraction(1, 10**9) and chart.omega_contains(y)


def test_forms_from_flag_matches_direct():
    chart = BlowupChart(3)
    ys = omega_samples(chart, 25)
    order, ff = chart._flag_coordinates(ys)
    stable = chart.forms_from_flag(order, ff)
    assert np.allclose(stable, chart.f_batch(ys), rtol=1e-13, atol=0)


def test_flag_ranges_guard_beyond_probing_limit():
    with pytest.raises(NumericError):
        BlowupChart(5).flag_ranges()


# float.hex of flag_ranges() (lo then hi, by rank); how the Newton step
# lengths are searched must not change a bit
FLAG_RANGE_BITS = [
    (1, ["0x1.f335678000000p-29"], ["0x1.ffff3f1b84b6cp+2"]),
    (2, ["0x1.5338000000000p-41", "0x1.8b54138e00000p-19"],
     ["0x1.a46f571f50778p+3", "0x1.360ad116b9960p+1"]),
    (3,
     ["0x1.3681c30900000p-21", "0x1.eee1a2c44c000p-12", "0x1.27373e6000000p-24"],
     ["0x1.771d601855a54p+5", "0x1.18a11dc9c3e48p+6", "0x1.66052fdfc8000p-8"]),
    (4,
     ["0x1.559bc94e88000p-17", "0x1.11e4fabdbf440p-6", "0x1.84b320ca4d250p-1",
      "0x1.0000000000000p-46"],
     ["0x1.08b6166698214p+7", "0x1.e2890161bb5f4p+7", "0x1.077fa756974a0p+8",
      "0x1.9d00000000000p-34"]),
]


@pytest.mark.parametrize("n,lo,hi", FLAG_RANGE_BITS)
def test_flag_ranges_bits_pinned(n, lo, hi):
    chart = BlowupChart(n)
    got_lo, got_hi = chart.flag_ranges()
    assert [v.hex() for v in got_lo.tolist()] == lo
    assert [v.hex() for v in got_hi.tolist()] == hi


@pytest.mark.parametrize("n", [2, 3, 4])
def test_flag_ranges_do_not_depend_on_the_schedule(n, monkeypatch):
    # the same probes inverted on the fixed schedule of 64 equal stages
    chart = BlowupChart(n)
    fitted = np.concatenate(chart.flag_ranges())
    float_best = BlowupChart._inverse_float_best
    monkeypatch.setattr(BlowupChart, "_inverse_float_best",
                        lambda self, xs, first_stage=_FIRST_STAGE: float_best(self, xs, 1))
    fixed = np.concatenate(chart.flag_ranges())
    assert np.abs(fitted / fixed - 1).max() <= 1e-9


# float.hex of (value, stderr)
PULLBACK_MC_BITS = [
    ("1-2", 0.8, 3, "0x1.0ad9dbb41870cp+0", "0x1.de1e964fa4b57p-8"),
    ("1-2,3-4", 0.9, 13, "0x1.1529953fe5d01p-4", "0x1.3753dce08978ap-7"),
]


@pytest.mark.parametrize("spec,h,seed,value,stderr", PULLBACK_MC_BITS)
def test_pullback_mc_bits_pinned(spec, h, seed, value, stderr):
    r = l_pullback_mc(parse_pairs(spec), h, samples=100_000, seed=seed)
    assert (r.value.hex(), r.stderr.hex()) == (value, stderr)


def test_flag_ranges_never_retries_a_failed_step(monkeypatch):
    # a row whose every step length fails is frozen, not searched again
    calls = rows = 0
    y_from_flag = BlowupChart._y_from_flag

    def counting(self, order, ff):
        nonlocal calls, rows
        calls += 1
        rows += len(ff)
        return y_from_flag(self, order, ff)

    monkeypatch.setattr(BlowupChart, "_y_from_flag", counting)
    BlowupChart(4).flag_ranges()
    assert calls <= 400 and rows <= 400_000, (calls, rows)


def test_pullback_zero_exponent_equals_jacobian():
    for n in (2, 3):
        chart = BlowupChart(n)
        e = np.random.default_rng(3).standard_exponential((5, n + 1))
        xs = e[:, :n] / e.sum(axis=1, keepdims=True)
        ys = chart.F_inverse_batch(xs, tol=1e-10)
        for got, y in zip(np.exp(log_integrand(chart, ys)), ys):
            want = chart.det_jacobian(list(y))
            assert abs(got - want) <= 1e-10 * abs(want)


def test_pullback_specialized_exponent_bookkeeping():
    # with exponent 2H - 2 on the interval image, as the pullback route
    # builds it, the exponent on each form grows by 2(H-1) * (bracket count
    # of S); the P_S powers are taken out with p_s_batch
    partition = PairPartition([(1, 4), (2, 3)])
    h = 0.8
    chart = BlowupChart(4)
    lam = np.zeros(len(chart.masks))
    for iv in partition.interval_image:
        lam[iv.mask - 1] += 2 * h - 2
    ys = omega_samples(chart, 20)
    f = chart.f_batch(ys)
    log_p = sum(
        v * np.log(chart.p_s_batch(chart.subset_of(m), f))
        for m, v in zip(chart.masks, lam) if v
    )
    grown = log_integrand(chart, ys, lam) - log_integrand(chart, ys) - log_p
    brackets = [bracket_count(PositionSet.from_mask(m), partition) for m in chart.masks]
    expected = np.log(f) @ (2 * (h - 1) * np.array(brackets))
    assert np.abs(grown - expected).max() <= 1e-10


def test_pullback_rejects_exterior_points():
    chart = BlowupChart(2)
    lam = np.zeros(3)
    for f in ([[-1.0, 2.0, 3.0]], [[1.0, 0.0, 3.0]]):
        with pytest.raises(DomainError):
            chart.log_pullback_batch(np.array(f), lam)
    with pytest.raises(DomainError):
        log_integrand(chart, [0.1, 0.1])
    # past the unit image-sum surface the identity still holds: no refusal
    y = [chart.q(2) / 2 + 2.0] * 2
    assert chart.omega_contains(y) and sum(chart.F_eval(y)) >= 1
    assert np.exp(log_integrand(chart, y)) == pytest.approx([chart.det_jacobian(y)])


def test_chart_guards():
    with pytest.raises(DomainError):
        BlowupChart(0)
    with pytest.raises(SizeError):
        BlowupChart(13)


def test_copy_and_pickle_round_trip():
    chart = BlowupChart(2)
    chart.r_exact([5, 5])
    flags = MonotoneList([{1}, {1, 2}])
    family = hyperplane_candidates(2, [{1}, {2}, {1, 2}])
    for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        twin = clone(chart)
        assert twin._r_exact_terms == chart._r_exact_terms
        assert twin.r_exact([Fraction(7), 5]) == chart.r_exact([Fraction(7), 5])
        assert twin.members == chart.members and (twin.qvec == chart.qvec).all()
        assert clone(flags).subsets == flags.subsets
        twin = clone(family)
        assert (twin.n, twin.support, twin.entries) == (
            family.n, family.support, family.entries
        )
