"""Self-check suites runnable from the command line.

Each suite replays the golden vectors and cross-identities of one module
and reports one pass/fail line per check.  The full mode is the release
gate: its sizes, seeds and tolerances are the ones the acceptance tests in
``tests/test_acceptance.py`` run.  ``quick`` trims sizes for a fast pass.
The blowup checks import ``blowup`` and the array checks numpy where they
run, so the combinatorics and poles suites load neither.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import DomainError
from .gammaterms import factorize, gamma_ratio_poles
from .pairings import (
    PairPartition,
    PositionSet,
    Word,
    all_pair_partitions,
    bracket_count,
    bracket_count_via_aug_def,
    double_factorial,
    enumerate_refining,
    parse_pairs,
    parse_position_set,
    refines,
)
from .poles import candidate_poles, hyperplane_candidates, progression_of_set
from .quadrature import (
    l_adaptive,
    l_closed_form,
    l_direct_mc,
    l_pullback_mc,
    wick_grid_oracle,
)
from .signature import mean_iterated_integral

__all__ = ["CheckResult", "SUITES", "run_suite", "available_suites"]

# The 18-position bracketing of the five worked diagrams, the golden table
# that the tests import: (set S, 2[S|P], offset, step) per diagram.
DIAGRAM_PARTITION = parse_pairs("1-7,2-8,3-5,4-6,9-11,10-18,12-17,13-14,15-16")
DIAGRAM_ROWS = [
    ("2-8,10-11,13-17", 16, Fraction(1, 8), Fraction(1, 16)),
    ("3-4,6-11,13-14,17-18", 4, Fraction(-2), Fraction(1, 4)),
    # third diagram: the bold-box set (the printed interval list in the
    # caption disagrees with its own |S|=11; the box diagram is consistent)
    ("1-3,5-6,8-9,12,14,16,18", 6, Fraction(-5, 6), Fraction(1, 6)),
    ("4-6,14,16", 8, Fraction(3, 8), Fraction(1, 8)),
    ("2-7,10-11,13-17", 14, Fraction(1, 14), Fraction(1, 14)),
]
TEN_LETTER_WORD = Word([6, 3, 1, 3, 6, 6, 1, 5, 6, 5])
# The four 10-letter diagrams: does the matching refine TEN_LETTER_WORD?
REFINEMENT_DIAGRAMS = {
    "1-2,3-4,5-6,7-8,9-10": False,
    "1-6,2-4,3-7,5-9,8-10": True,
    "1-9,2-4,3-7,5-6,8-10": True,
    "1-9,2-7,3-4,5-6,8-10": False,
}


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str = ""


def _all_subsets(size: int):
    for bits in range(1 << size):
        yield PositionSet.from_mask(bits)


# -- combinatorics ----------------------------------------------------------

def _check_refinement_diagrams(quick: bool):
    bad = [
        spec
        for spec, expect in REFINEMENT_DIAGRAMS.items()
        if refines(parse_pairs(spec), TEN_LETTER_WORD) is not expect
    ]
    return not bad, f"mismatch on {bad}" if bad else "4 diagrams"


def _check_diagram_brackets(quick: bool):
    for spec, dbl, _o, _s in DIAGRAM_ROWS:
        s = parse_position_set(spec)
        if 2 * bracket_count(s, DIAGRAM_PARTITION) != dbl:
            return False, f"direct count wrong on {spec}"
        if 2 * bracket_count_via_aug_def(s, DIAGRAM_PARTITION) != dbl:
            return False, f"augmentation route wrong on {spec}"
    return True, "5 diagrams"


def _check_bracket_identity(quick: bool):
    sizes = (2, 4, 6) if quick else (2, 4, 6, 8)
    checked = 0
    for size in sizes:
        for p in all_pair_partitions(size):
            for s in _all_subsets(size):
                if bracket_count(s, p) != bracket_count_via_aug_def(s, p):
                    return False, f"identity fails: {p!r}, {s!r}"
                checked += 1
    return True, f"{checked} (set, partition) pairs"


def _check_additivity(quick: bool):
    sizes = (6,) if quick else (2, 4, 6, 8)
    for size in sizes:
        for p in all_pair_partitions(size):
            for s in _all_subsets(size):
                parts = [PositionSet.from_mask(iv.mask) for iv in s.maximal_intervals]
                if bracket_count(s, p) != sum(bracket_count(t, p) for t in parts):
                    return False, f"additivity fails: {p!r}, {s!r}"
    return True, f"exhaustive at 2k in {sizes}"


def _check_refining_count(quick: bool):
    for k in (1, 2, 3):
        got = len(enumerate_refining(Word([1] * (2 * k))))
        if got != double_factorial(2 * k - 1):
            return False, f"constant word count wrong at k={k}: {got}"
    return True, "double factorial counts"


# -- poles ------------------------------------------------------------------

def _check_diagram_progressions(quick: bool):
    for spec, _dbl, offset, step in DIAGRAM_ROWS:
        pr = progression_of_set(DIAGRAM_PARTITION, parse_position_set(spec))
        if pr is None or pr.offset != offset or pr.step != step:
            return False, f"progression wrong for {spec}: {pr}"
    ps = candidate_poles(DIAGRAM_PARTITION)
    for _spec, _dbl, offset, step in DIAGRAM_ROWS:
        for l in (0, 1, 2):
            if offset - step * l not in ps:
                return False, f"member {offset - step*l} missing from pole set"
    return True, "5 diagrams and membership"


def _check_k1_poles(quick: bool):
    ps = candidate_poles(PairPartition([(1, 2)]))
    expected_in = [Fraction(1, 2), Fraction(0), Fraction(-1, 2), Fraction(-3)]
    expected_out = [Fraction(3, 4), Fraction(1, 4)]
    ok = all(x in ps for x in expected_in) and not any(x in ps for x in expected_out)
    return ok, "pair partition of [1,2]"


def _check_specialization(quick: bool):
    sizes = (2, 4) if quick else (2, 4, 6)
    for size in sizes:
        for p in all_pair_partitions(size):
            support = [frozenset(iv.members()) for iv in p.interval_image]
            fam = hyperplane_candidates(size, support)
            if fam.specialize_diagonal() != candidate_poles(p):
                return False, f"specialization mismatch for {p!r}"
    return True, f"all partitions up to 2k={sizes[-1]}"


def _check_max_offset(quick: bool):
    size = 6
    for p in all_pair_partitions(size):
        ps = candidate_poles(p)
        if ps.max_offset > Fraction(1, 2):
            return False, f"offset above 1/2 for {p!r}"
    return True, f"all partitions at 2k={size}"


def _non_crossing(p: PairPartition) -> bool:
    """Pairs close in the reverse order of opening; a cheap filter ahead of
    factorizing, since most of the 10,395 matchings at 2k = 12 cross."""
    opened: list[int] = []
    for x in range(1, p.size + 1):
        if p.partner(x) > x:
            opened.append(x)
        elif opened.pop() != p.partner(x):
            return False
    return True


def _check_gamma_ratio_poles(quick: bool):
    # every pole of the gamma ratio of a non-crossing P is a candidate
    lowest, top = (-29, 8) if quick else (-39, 12)  # lowest: twice the lowest H0
    checked = 0
    for size in range(2, top + 1, 2):
        for p in filter(_non_crossing, all_pair_partitions(size)):
            _tree, numer, denom, _crossing = factorize(p)
            checked += 1
            ps = candidate_poles(p)
            for h0 in gamma_ratio_poles(numer, denom, lowest):
                if h0 not in ps:
                    return False, f"gamma pole {h0} missing for {p!r}"
    return True, f"{checked} non-crossing partitions, 2k <= {top}, H >= {lowest}/2"


# -- blowup -----------------------------------------------------------------

def _check_witness_flags(quick: bool):
    from .blowup import BlowupChart, all_monotone_lists

    top = 3
    for n in range(1, top + 1):
        chart = BlowupChart(n)
        for flags in all_monotone_lists(n):
            y = chart.witness_point(flags)
            if set(chart.vanishing_set(y)) != set(flags.subsets):
                return False, f"vanishing set mismatch at n={n}, {flags!r}"
    return True, f"all monotone lists, n <= {top}"


def _check_boundary_positivity(quick: bool):
    from .blowup import BlowupChart, all_monotone_lists

    for n in (1, 2, 3):
        chart = BlowupChart(n)
        for flags in all_monotone_lists(n):
            y = chart.witness_point(flags)
            if chart.r_exact(y) <= 0:
                return False, f"R not positive at witness {flags!r}"
            for mask in chart.masks:
                if chart.p_s_eval(chart.subset_of(mask), y) <= 0:
                    return False, f"P_S not positive at witness {flags!r}"
    return True, "exact arithmetic, n <= 3"


def _check_jacobian_identity(quick: bool):
    import numpy as np

    from .blowup import BlowupChart

    rng = np.random.default_rng(9)
    for n in (2, 3, 4):
        chart = BlowupChart(n)
        base = chart.q(n) / n + 1.0
        pts = base + rng.random((20 if quick else 100, n)) * 5.0
        det_direct = np.array([chart.det_jacobian(list(p)) for p in pts])
        fvals = chart.f_batch(pts)
        sizes = chart.sizes
        prod_part = (fvals ** (sizes - 1)[None, :]).prod(axis=1)
        r_exact = np.array([chart.r_exact(list(p)) for p in pts])
        rel = np.abs(det_direct - prod_part * r_exact) / np.abs(det_direct)
        if rel.max() > 1e-9:
            return False, f"det identity off by {rel.max():.2e} at n={n}"
    return True, f"det dF = prod f^(|S|-1) * R, {len(pts)} points per n in 2..4"


def _check_non_nested_sign(quick: bool):
    import numpy as np

    from .blowup import BlowupChart

    rng = np.random.default_rng(4)
    n = 4
    chart = BlowupChart(n)
    trials = 40 if quick else 200
    done = 0
    while done < trials:
        bits = rng.integers(1, 2**n, size=2)
        s0, s1 = (chart.subset_of(int(b)) for b in bits)
        if s0 <= s1 or s1 <= s0:
            continue
        inter = s0 & s1
        y = [Fraction(0)] * n
        c = Fraction(rng.integers(0, 5)) if inter else Fraction(0)
        if inter:
            y[sorted(inter)[0] - 1] = c
        only0 = sorted(s0 - s1)
        only1 = sorted(s1 - s0)
        y[only0[0] - 1] = Fraction(chart.q(len(s0))) - c
        y[only1[0] - 1] = Fraction(chart.q(len(s1))) - c
        assert chart.f_eval(s0, y) == 0 and chart.f_eval(s1, y) == 0
        if chart.f_eval(s0 | s1, y) >= 0:
            return False, f"union form not negative for {sorted(s0)},{sorted(s1)}"
        done += 1
    return True, f"{trials} non-nested pairs, exact arithmetic"


def _check_round_trip(quick: bool):
    import numpy as np

    from .blowup import BlowupChart

    rng = np.random.default_rng(808)
    count, exact_count = (50, 5) if quick else (500, 500)
    for n in (1, 2, 3):
        chart = BlowupChart(n)
        xs = rng.random((count, n)) * 0.999 + 5e-4
        ys = chart.F_inverse_batch(xs, tol=1e-9)
        err = np.abs(chart.F_batch(ys) - xs).max()
        if err > 1e-8 or not chart.omega_mask(ys).all():
            return False, f"float round trip fails at n={n}: {err:.2e}"
    # binary64 coordinates cannot express the region at n=4 finely enough,
    # so the round trip there runs through the exact rational polish
    chart = BlowupChart(4)
    xs = rng.random((exact_count, 4)) * 0.999 + 5e-4
    for y, x in zip(chart.F_inverse_exact_batch(xs, tol=Fraction(1, 10**9)), xs):
        res = max(abs(Fraction(float(v)) - fv) for v, fv in zip(x, chart.F_eval(y)))
        if res > Fraction(1, 10**8) or not chart.omega_contains(y):
            return False, f"exact round trip fails: residual {float(res):.2e}"
    return True, f"{count} float targets per n <= 3, {exact_count} exact rational at n = 4"


def _check_pullback_identity(quick: bool):
    import numpy as np

    from .blowup import BlowupChart

    def draw_lam(rng, chart) -> np.ndarray:
        return np.array(
            [complex(rng.uniform(0, 2), rng.uniform(-1, 1)) for _ in chart.masks]
        )

    rng = np.random.default_rng(23)
    counts = ((2, 30), (3, 30)) if quick else ((1, 334), (2, 333), (3, 333))
    for n, count in counts:
        chart = BlowupChart(n)
        e = rng.standard_exponential((count, n + 1))
        xs = e[:, :n] / e.sum(axis=1, keepdims=True)
        ys = chart.F_inverse_batch(xs, tol=1e-10)
        for y in ys:
            lam = draw_lam(rng, chart)
            log_g, usable = chart.log_pullback_batch(chart.f_batch(y[None]), lam)
            if not usable.all():
                return False, f"det(A) not positive at n={n}"
            lhs = complex(np.exp(log_g[0]))
            fvec = chart.F_eval(list(y))
            rhs = complex(chart.det_jacobian(list(y)))
            for mem, v in zip(chart.members, lam):
                rhs *= complex(sum(fvec[i] for i in mem)) ** v
            if abs(lhs - rhs) > 1e-9 * abs(rhs):
                return False, f"pullback identity off at n={n}"
    # n = 4, the dimension the pullback route runs at 2k = 4: float inversion
    # cannot reach the pulled-back simplex there, but the identity holds on
    # all of Omega, so the points are drawn in Omega directly.  The products
    # overflow, so the two sides are compared in logs.
    rng = np.random.default_rng(29)
    chart = BlowupChart(4)
    count4 = 30 if quick else 200
    ys = chart.interior_seed() + 5.0 * rng.random((count4, 4))
    for y in ys:
        lam = draw_lam(rng, chart)
        log_g, usable = chart.log_pullback_batch(chart.f_batch(y[None]), lam)
        if not usable.all():
            return False, "det(A) not positive at n=4"
        fvec = chart.F_eval(list(y))
        log_rhs = math.log(chart.det_jacobian(list(y))) + sum(
            v * math.log(sum(fvec[i] for i in mem)) for mem, v in zip(chart.members, lam)
        )
        if abs(log_g[0] - log_rhs) > 1e-9:
            return False, "pullback identity off at n=4 (logs)"
    return True, (
        f"complex exponents, (n, points) in {counts}, and {count4} points of "
        "Omega at n = 4 in logs"
    )


# -- quadrature ---------------------------------------------------------------

def _check_k1_exact(quick: bool):
    p = PairPartition([(1, 2)])
    for h in (0.6, 0.75, 0.9):
        exact = 1.0 / (2 * h * (2 * h - 1))
        r = l_adaptive(p, h, tol=1e-9)
        if abs(r.value - exact) > 1e-8 * exact:
            return False, f"adaptive off at H={h}: {r.value} vs {exact}"
    return True, "three Hurst values, 1e-8 relative"


def _check_unit_integrand(quick: bool):
    for pairs, expect in (([(1, 2)], 0.5), ([(1, 3), (2, 4)], 1 / 24)):
        r = l_adaptive(PairPartition(pairs), 1.0, tol=1e-9)
        if abs(r.value - expect) > 1e-9:
            return False, f"volume wrong for {pairs}"
    return True, "simplex volumes at H=1"


def _check_dirichlet_consistency(quick: bool):
    p = PairPartition([(1, 2), (3, 4)])
    hs = (0.75,) if quick else (0.75, 0.9)
    for h in hs:
        exact = math.gamma(2 * h - 1) ** 2 / math.gamma(4 * h + 1)
        r = l_adaptive(p, h, tol=1e-6)
        if abs(r.value - exact) > 1e-6 * exact:
            return False, f"adaptive vs closed form off at H={h}"
        cf = l_closed_form(p, h)
        if abs(cf.value - exact) > 1e-10 * exact:
            return False, f"closed form wrong at H={h}"
        mc = l_direct_mc(p, h, samples=10**5 if quick else 10**6, seed=20_240_808)
        if abs(mc.value - exact) > 3 * mc.stderr:
            return False, f"direct MC outside 3 sigma at H={h}"
    return True, f"H in {hs}, adaptive 1e-6, direct MC 3 sigma"


def _check_pullback_consistency(quick: bool):
    p = PairPartition([(1, 2)])
    r = l_pullback_mc(p, 0.75, samples=10**5 if quick else 4 * 10**5, seed=99)
    d = l_direct_mc(p, 0.75, samples=10**5 if quick else 4 * 10**5, seed=99)
    gap = abs(r.value - d.value)
    band = 3 * math.hypot(r.stderr, d.stderr)
    if gap > band:
        return False, f"pullback vs direct gap {gap:.4f} > {band:.4f}"
    return True, "k=1 at H=0.75, 3 sigma"


def _check_wick_limits(quick: bool):
    m = 32 if quick else 64
    r = wick_grid_oracle(Word([1, 1]), 0.75, m=m)
    if abs(r.value - 0.5) > 1e-4:
        return False, f"second moment off: {r.value}"
    r = wick_grid_oracle(Word([1, 1, 1, 1]), 1.0, m=m)
    if abs(r.value - 0.125) > 1e-3:
        return False, f"fourth moment off: {r.value}"
    if wick_grid_oracle(Word([1, 2, 2, 3]), 0.8).value != 0.0:
        return False, "odd multiplicities must give exact zero"
    # the grid sum misses the Ito diagonal, or diverges; fBm ends at H = 1,
    # also for a word whose sum is an exact zero
    for letters, h in (([1, 1], 0.5), ([1, 1], 0.3), ([1, 2], 1.5)):
        try:
            r = wick_grid_oracle(Word(letters), h, m=m)
        except DomainError:
            continue
        return False, f"H={h} not refused: {r.value}"
    return True, f"grid {m} with extrapolation, H <= 1/2 and H > 1 refused"


def _check_reflection_symmetry(quick: bool):
    import numpy as np

    rng = np.random.default_rng(31)
    for _ in range(1 if quick else 3):
        perm = list(rng.permutation(np.arange(1, 5)))
        p = PairPartition([(perm[0], perm[1]), (perm[2], perm[3])])
        a = l_adaptive(p, 0.8, tol=2e-7)
        b = l_adaptive(p.reversed(), 0.8, tol=2e-7)
        if abs(a.value - b.value) > 1e-6 * abs(a.value):
            return False, f"reflection asymmetry for {p!r}"
    return True, "position reversal invariance, k=2"


# -- signature ----------------------------------------------------------------

def _check_mean_k1(quick: bool):
    for h in (0.6, 0.9):
        r = mean_iterated_integral(Word([3, 3]), h)
        if abs(r.value - 0.5) > 1e-8:
            return False, f"repeated-letter word off at H={h}"
    return True, "exactly 1/2 for all H"


def _check_normalization(quick: bool):
    w = Word([1, 1, 1, 1])
    r405 = mean_iterated_integral(w, 1.0, mode="eq405-consistent", tol=1e-9)
    r406 = mean_iterated_integral(w, 1.0, mode="paper-406", tol=1e-9)
    oracle = wick_grid_oracle(w, 1.0, m=32 if quick else 64)
    if abs(r405.extra["partition_sum"] - 3 / 24) > 1e-8:
        return False, f"partition sum {r405.extra['partition_sum']}"
    if abs(r405.value - 0.125) > 1e-8:
        return False, f"default mode value {r405.value}"
    if abs(r406.value - 0.0625) > 1e-8:
        return False, f"printed-form mode value {r406.value}"
    if "normalization_note" not in r406.extra:
        return False, "printed-form mode does not flag the k! discrepancy"
    if abs(oracle.value - 0.125) > 1e-3:
        return False, f"oracle {oracle.value} disagrees with the 1/8 default mode"
    return True, "Gaussian moment selects the default mode"


def _check_level_set_equivalence(quick: bool):
    h = 0.8
    words = [Word([1, 2, 1, 2]), Word([3, 1, 3, 1]), Word([2, 2, 7, 7])]
    vals = [mean_iterated_integral(w, h, evaluator="adaptive", tol=1e-6).value for w in words]
    if abs(vals[0] - vals[1]) > 1e-12:
        return False, "relabeling changed the value"
    ref = mean_iterated_integral(Word([1, 1, 2, 2]), h, evaluator="adaptive", tol=1e-6).value
    if abs(vals[2] - ref) > 1e-12:
        return False, "same-shape words disagree"
    return True, "letter relabeling invariance"


SUITES: dict[str, list[tuple[str, Callable[[bool], tuple[bool, str]]]]] = {
    "combinatorics": [
        ("refinement-diagrams", _check_refinement_diagrams),
        ("diagram-brackets", _check_diagram_brackets),
        ("bracket-identity", _check_bracket_identity),
        ("additivity", _check_additivity),
        ("refining-count", _check_refining_count),
    ],
    "poles": [
        ("diagram-progressions", _check_diagram_progressions),
        ("pair-poles", _check_k1_poles),
        ("specialization", _check_specialization),
        ("offset-bound", _check_max_offset),
        ("ratio-pole-containment", _check_gamma_ratio_poles),
    ],
    "blowup": [
        ("witness-flags", _check_witness_flags),
        ("boundary-positivity", _check_boundary_positivity),
        ("jacobian-identity", _check_jacobian_identity),
        ("non-nested-sign", _check_non_nested_sign),
        ("round-trip", _check_round_trip),
        ("pullback-identity", _check_pullback_identity),
    ],
    "quadrature": [
        ("pair-closed-form", _check_k1_exact),
        ("unit-integrand", _check_unit_integrand),
        ("beta-consistency", _check_dirichlet_consistency),
        ("pullback-consistency", _check_pullback_consistency),
        ("moment-oracle", _check_wick_limits),
        ("reflection", _check_reflection_symmetry),
    ],
    "signature": [
        ("repeated-letter", _check_mean_k1),
        ("normalization", _check_normalization),
        ("level-set-equivalence", _check_level_set_equivalence),
    ],
}


def available_suites() -> list[str]:
    return list(SUITES) + ["all"]


def run_suite(name: str, quick: bool = False) -> list[CheckResult]:
    if name == "all":
        out = []
        for suite in SUITES:
            out.extend(run_suite(suite, quick))
        return out
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {available_suites()}")
    results = []
    for check_name, fn in SUITES[name]:
        try:
            ok, detail = fn(quick)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, check_name, ok, detail))
    return results
