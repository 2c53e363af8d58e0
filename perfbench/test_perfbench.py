"""Tests of the benchmark itself; run with ``python3 -m pytest -q perfbench``.

They run the reduced-size check mode, confirm that the committed pole-set
digests match an independent brute-force subset scan, and confirm that the
benchmark refuses to run without the program's sources.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import references as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _matchings(positions: list[int]):
    if not positions:
        yield []
        return
    first = positions[0]
    for i in range(1, len(positions)):
        rest = positions[1:i] + positions[i + 1:]
        for m in _matchings(rest):
            yield [(first, positions[i])] + m


def _brute_keys(pairs, size: int) -> set[str]:
    """(offset, step) keys over every position set, from the definitions alone:
    pair {a, b} maps to the interval [a+1, b]; [S|P] counts intervals inside S."""
    intervals = [sum(1 << (p - 1) for p in range(a + 1, b + 1)) for a, b in pairs]
    keys = set()
    for s in range(1, 1 << size):
        c = sum(1 for m in intervals if m & s == m)
        if c:
            keys.add(f"{1 - Fraction(bin(s).count('1'), 2 * c)}:{Fraction(1, 2 * c)}")
    return keys


def _label(pairs) -> str:
    return ",".join(f"{a}-{b}" for a, b in sorted(pairs))


def test_golden_digests_match_brute_force_at_check_size():
    size, length = 6, 6  # the check-scale census and word length
    census = ref.Digest()
    for m in sorted(_matchings(list(range(1, size + 1))), key=sorted):
        census.add(_label(m), sorted(_brute_keys(m, size)))
    reports = ref.Digest()
    for letters in ref.canonical_words(length):
        if not ref.refining_count(letters):
            continue
        blocks: dict[int, list[int]] = {}
        for pos, a in enumerate(letters, 1):
            blocks.setdefault(a, []).append(pos)
        choices = [[]]
        for block in blocks.values():
            choices = [c + m for c in choices for m in _matchings(block)]
        union = set().union(*(_brute_keys(m, length) for m in choices))
        reports.add(",".join(map(str, letters)), sorted(union))
    assert census.hexdigest() == ref.GOLDEN["check"]["census"]
    assert reports.hexdigest() == ref.GOLDEN["check"]["word_reports"]


def test_cli_poles_digest_matches_brute_force():
    pairs = [(1, 6), (2, 4), (3, 7), (5, 9), (8, 10)]
    digest = ref.Digest()
    digest.add(_label(pairs), sorted(_brute_keys(pairs, 10)))
    assert digest.hexdigest() == ref.GOLDEN["cli"]["poles_pairs"]


def test_k2_forms_sum_to_moment_identity():
    for h in (0.6, 0.8, 0.95):
        total = sum(ref.k2_forms(h).values())
        assert abs((h * (2 * h - 1)) ** 2 * total - ref.moment_identity(2)) < 1e-13


def test_range_failures_flags_empty_or_inverted_ranges():
    assert ref.range_failures("r", [1e-3, 0.1], [0.5, 2.0], 2) == []
    assert ref.range_failures("r", [0.5, 0.1], [0.5, 2.0], 2)
    assert ref.range_failures("r", [0.0, 0.1], [0.5, 2.0], 2)
    assert ref.range_failures("r", [0.1], [0.5], 2)


def test_host_speed_uses_nearby_samples_or_the_three_nearest():
    import run

    cal = [(0.0, 3e-3), (0.5, 3e-3), (0.9, 3e-3), (10.0, 1e-3), (10.2, 1e-3), (10.4, 1e-3)]
    assert run.host_speed(cal, 0.2, 0.3) == run.CAL_REFERENCE_S / 3e-3
    assert run.host_speed(cal, 10.1, 10.3) == run.CAL_REFERENCE_S / 1e-3
    assert run.host_speed(cal, 6.0, 6.1) == run.CAL_REFERENCE_S / 1e-3  # the 3 nearest


def test_check_mode_emits_every_metric():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--check"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.strip().splitlines()[-1] == "check ok"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
