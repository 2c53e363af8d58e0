"""Blowup machinery: gap functions, witnesses, Jacobians, inversion, pullback."""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from sigpole.blowup import (
    BlowupChart,
    ExponentAssignment,
    GapFunction,
    MonotoneList,
    all_monotone_lists,
    exact_det,
)
from sigpole.errors import DomainError, NumericError, SizeError
from sigpole.pairings import PairPartition, PositionSet, bracket_count


def omega_samples(chart: BlowupChart, count: int, seed: int = 77) -> np.ndarray:
    rng = np.random.default_rng(seed)
    base = chart.q(chart.n) / chart.n + 1.0
    return base + rng.random((count, chart.n)) * 4.0


def test_gap_function_default_admissible_up_to_12():
    q = GapFunction.powers_of_three(12)
    assert q.values[0] == 1 and q.values[1] == 3 and q.values[12] == 3**12


@pytest.mark.parametrize(
    "values",
    [
        [1],                # too short
        [2, 6],             # q(0) != 1
        [1, 2],             # 3q(0) > q(1)
        [1, 3, 8],          # 3q(1) > q(2)
        [1, 3, 9, 11],      # q(2)+q(2) >= q(3) and growth fails
    ],
)
def test_gap_function_rejects_inadmissible(values):
    with pytest.raises(DomainError):
        GapFunction(values)


def test_f_eval_examples():
    chart = BlowupChart(2)
    assert chart.f_eval({1, 2}, [5.0, 5.0]) == pytest.approx(1.0)
    assert chart.f_eval({1}, [3.0, 10.0]) == 0.0
    with pytest.raises(DomainError):
        chart.f_eval(set(), [1.0, 1.0])


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
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
    assert chart.r_interior([7.0]) == pytest.approx(1.0)
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
        assert (chart.det_jacobian_batch(omega_samples(chart, 200)) > 0).all()


def test_jacobian_batch_matches_scalar():
    chart = BlowupChart(3)
    ys = omega_samples(chart, 10)
    batch = chart.jacobian_batch(ys)
    for y, jac in zip(ys, batch):
        assert np.allclose(jac, np.array(chart.jacobian_matrix(list(y))), rtol=1e-10)


@pytest.mark.parametrize("n", [2, 3])
def test_r_interior_matches_exact(n):
    chart = BlowupChart(n)
    for y in omega_samples(chart, 30):
        a = chart.r_interior(list(y))
        b = chart.r_exact(list(y))
        assert abs(a - b) <= 1e-9 * abs(b)


def test_r_exact_size_guard():
    with pytest.raises(SizeError):
        BlowupChart(5).r_exact([20.0] * 5)


def test_det_jacobian_factorization():
    # det dF = prod f^(|S|-1) * R wherever defined
    for n in (2, 3, 4):
        chart = BlowupChart(n)
        ys = omega_samples(chart, 40)
        f = chart.f_batch(ys)
        prods = (f ** (chart.sizes - 1)[None, :]).prod(axis=1)
        for y, pr in zip(ys, prods):
            det = chart.det_jacobian(list(y))
            assert abs(det - pr * chart.r_exact(list(y))) <= 1e-9 * abs(det)


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
        for flags in lists[:: max(1, len(lists) // 60)]:
            y = [float(v) for v in chart.witness_point(flags)]
            moved = [(1 - 1e-3) * a + 1e-3 * b for a, b in zip(y, interior)]
            assert chart.omega_contains(moved)
            assert chart.r_interior(moved) > 0
            for mask in chart.masks:
                assert chart.p_s_eval(chart.subset_of(mask), moved) > 0


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


def test_exact_det_helper():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    assert exact_det(rows) == Fraction(1, 14) - Fraction(1, 15)
    assert exact_det([[1, 2], [2, 4]]) == 0


def test_f_inverse_n1_closed_form():
    chart = BlowupChart(1)
    assert chart.F_inverse([0.5])[0] == pytest.approx(3.5)


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


def test_f_inverse_rejects_boundary_targets():
    chart = BlowupChart(2)
    with pytest.raises(DomainError):
        chart.F_inverse_batch(np.array([[0.5, 0.0]]))


def test_forms_from_flag_matches_direct():
    chart = BlowupChart(3)
    ys = omega_samples(chart, 25)
    order, ff = chart._flag_coordinates(ys)
    stable = chart.forms_from_flag(order, ff)
    assert np.allclose(stable, chart.f_batch(ys), rtol=1e-13, atol=0)


def test_flag_ranges_guard_beyond_probing_limit():
    with pytest.raises(NumericError):
        BlowupChart(5).flag_ranges(probes=64)


def test_chart_descriptor():
    chart = BlowupChart(3)
    assert chart.descriptor() == {"n": 3, "q": [1, 3, 9, 27]}


def test_pullback_zero_exponent_equals_jacobian():
    for n in (2, 3):
        chart = BlowupChart(n)
        lam = ExponentAssignment(n, {})
        e = np.random.default_rng(3).standard_exponential((5, n + 1))
        xs = e[:, :n] / e.sum(axis=1, keepdims=True)
        for y in chart.F_inverse_batch(xs, tol=1e-10):
            got = chart.pullback_integrand(lam, list(y))
            want = chart.det_jacobian(list(y))
            assert abs(got - want) <= 1e-10 * abs(want)


def test_pullback_change_of_variables_identity():
    rng = np.random.default_rng(12)
    for n in (2, 3):
        chart = BlowupChart(n)
        e = rng.standard_exponential((40, n + 1))
        xs = e[:, :n] / e.sum(axis=1, keepdims=True)
        for y in chart.F_inverse_batch(xs, tol=1e-10):
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
            assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


def test_pullback_specialized_exponent_bookkeeping():
    # exponent on each form under the diagonal assignment is
    # |S| - 1 + 2(H-1) * (bracket count of S)
    partition = PairPartition([(1, 4), (2, 3)])
    h = 0.8
    chart = BlowupChart(4)
    lam = ExponentAssignment.from_partition(partition, h)
    for mask in chart.masks:
        s = chart.subset_of(mask)
        total = sum(
            lam.get(chart.subset_of(t)) for t in chart.masks if t & mask == t
        )
        expected = 2 * (h - 1) * bracket_count(PositionSet(s), partition)
        assert abs(total - expected) < 1e-12


def test_pullback_rejects_exterior_points():
    chart = BlowupChart(2)
    lam = ExponentAssignment(2, {})
    with pytest.raises(DomainError):
        chart.pullback_integrand(lam, [0.1, 0.1])
    # inside the region but past the unit image-sum surface
    y = [chart.q(2) / 2 + 2.0] * 2
    assert chart.omega_contains(y)
    with pytest.raises(DomainError):
        chart.pullback_integrand(lam, y)


def test_chart_guards():
    with pytest.raises(DomainError):
        BlowupChart(0)
    with pytest.raises(SizeError):
        BlowupChart(13)
    with pytest.raises(DomainError):
        BlowupChart(4, GapFunction([1, 3, 9]))
