"""Acceptance criteria: the release gate.

Each criterion runs its ``sigpole verify`` checks in full mode, at the
sizes, seeds and tolerances pinned there, and prints one [PASS]/[FAIL] line
(visible with pytest -s or in the captured output).  A criterion's time gate
bounds the total time of its checks.  Every other verify check runs at full
size too, so that ``sigpole verify all`` and this file cannot disagree.
"""
from __future__ import annotations

import time

import pytest

from sigpole import verify

# criterion -> (summary, verify checks as "suite.check", time gate in seconds or None)
CRITERIA = {
    1: ("18-position diagrams exact",
        ("combinatorics.diagram-brackets", "poles.diagram-progressions"), 1.0),
    2: ("four refinement bracketings", ("combinatorics.refinement-diagrams",), 1.0),
    3: ("aug/def identity and additivity exhaustive to 2k=8",
        ("combinatorics.bracket-identity", "combinatorics.additivity"), 30.0),
    4: ("adaptive matches 1/(2H(2H-1)) to 1e-8 relative",
        ("quadrature.pair-closed-form",), None),
    5: ("adaptive 1e-6 + MC 3 sigma", ("quadrature.beta-consistency",), 60.0),
    6: ("pullback and determinant identities to 1e-9",
        ("blowup.pullback-identity", "blowup.jacobian-identity"), None),
    7: ("exact positivity and vanishing flags, n <= 3",
        ("blowup.boundary-positivity", "blowup.witness-flags"), None),
    8: ("diffeomorphism round trip, exact at n=4", ("blowup.round-trip",), 60.0),
    9: ("oracle picks the 1/8 mode", ("signature.normalization",), 120.0),
    10: ("exact gamma-product pole membership, non-crossing 2k <= 12",
         ("poles.ratio-pole-containment",), 5.0),
}
CHECKS = {
    f"{suite}.{name}": fn for suite, checks in verify.SUITES.items() for name, fn in checks
}
GATED = {check for _summary, checks, _gate in CRITERIA.values() for check in checks}


def run_criterion(num: int) -> None:
    summary, checks, gate = CRITERIA[num]
    t0 = time.perf_counter()
    results = {check: CHECKS[check](False) for check in checks}
    elapsed = time.perf_counter() - t0
    failed = {check: detail for check, (ok, detail) in results.items() if not ok}
    ok = not failed and (gate is None or elapsed < gate)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {summary}, {elapsed:.2f}s")
    assert not failed, f"criterion {num} failed: {failed}"
    assert ok, f"criterion {num} took {elapsed:.1f}s, gate {gate}s"


def test_criterion_1_diagram_reproduction():
    run_criterion(1)


def test_criterion_2_refinement_diagrams():
    run_criterion(2)


def test_criterion_3_identity_suite():
    run_criterion(3)


def test_criterion_4_pair_closed_form():
    run_criterion(4)


def test_criterion_5_beta_ratio_consistency():
    run_criterion(5)


def test_criterion_6_change_of_variables():
    run_criterion(6)


def test_criterion_7_boundary_positivity():
    run_criterion(7)


def test_criterion_8_diffeomorphism_round_trip():
    run_criterion(8)


def test_criterion_9_normalization_disambiguation():
    run_criterion(9)


def test_criterion_10_gamma_ratio_pole_containment():
    run_criterion(10)


@pytest.mark.parametrize("check", [c for c in CHECKS if c not in GATED])
def test_full_size_check(check):
    ok, detail = CHECKS[check](False)
    assert ok, f"{check}: {detail}"
