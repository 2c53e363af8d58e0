"""Command-line interface: golden outputs, exit codes, reproducibility."""
from __future__ import annotations

import csv
import functools
import hashlib
import inspect
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigpole import cli, quadrature, verify
from sigpole.quadrature import ROUTES
from sigpole.pairings import format_pairs, parse_pairs, parse_position_set
from sigpole.poles import progression_of_set

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def run_cli(*args: str, env_extra: dict | None = None, timeout: float | None = None,
            preexec_fn=None):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH", "")]))
    env.pop("SIGPOLE_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "sigpole", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
        preexec_fn=preexec_fn,
    )


def invoke(*args: str) -> subprocess.CompletedProcess:
    """``cli.main(args)`` in this process with SIGPOLE_SEED unset, as
    ``run_cli`` runs it: the exit code (of SystemExit, else 0), stdout and
    stderr, each read with universal newlines."""
    stdout, stderr, code = io.StringIO(newline=None), io.StringIO(newline=None), 0
    with mock.patch.dict(os.environ), redirect_stdout(stdout), redirect_stderr(stderr):
        os.environ.pop("SIGPOLE_SEED", None)
        try:
            cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, stdout.getvalue(), stderr.getvalue())


def test_poles_pair_golden():
    out = run_cli("poles", "--pairs", "1-2")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["progressions"] == [{"offset": "1/2", "step": "1/2"}]
    contributed = {(r["offset"], r["step"]) for r in payload["contributions"]}
    assert contributed == {("1/2", "1/2"), ("0", "1/2")}
    assert payload["version"]
    assert "backend" not in payload["config"]


@pytest.mark.parametrize("word", ["1,1,1,1", "1,2,1,2,1,2,1,2"])
def test_poles_word_witness_matchings(word):
    out = run_cli("poles", "--word", word)
    assert out.returncode == 0
    contributions = json.loads(out.stdout)["contributions"]
    assert contributions
    for rec in contributions:
        pr = progression_of_set(parse_pairs(rec["pairs"]), parse_position_set(rec["set"]))
        assert (pr.offset, pr.step) == (Fraction(rec["offset"]), Fraction(rec["step"]))


def test_poles_word_no_refinement():
    out = run_cli("poles", "--word", "1,2,2,3")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["refining_partitions"] == 0
    assert payload["progressions"] == []
    assert payload["note"] == "no refining pair partitions"


def test_poles_diagram_partition_contributions():
    out = run_cli("poles", "--pairs", format_pairs(verify.DIAGRAM_PARTITION))
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    contributed = {(r["offset"], r["step"]) for r in payload["contributions"]}
    for _spec, _dbl, offset, step in verify.DIAGRAM_ROWS:
        assert (str(offset), str(step)) in contributed, (offset, step)


def test_poles_set_progression():
    spec, _dbl, offset, step = verify.DIAGRAM_ROWS[0]
    out = run_cli("poles", "--pairs", format_pairs(verify.DIAGRAM_PARTITION), "--set", spec)
    payload = json.loads(out.stdout)
    assert payload["progression"] == {"offset": str(offset), "step": str(step)}
    assert payload["set_size"] == len(parse_position_set(spec))


def test_poles_parse_error_exit_2():
    out = run_cli("poles", "--pairs", "1-2,2-3")
    assert out.returncode == 2
    out = run_cli("poles", "--word", "1,2,x")
    assert out.returncode == 2
    # int() would read 1_0 as 10
    out = run_cli("poles", "--word", "1_0,1_0")
    assert out.returncode == 2 and not out.stdout
    assert "'1_0,1_0'" in out.stderr
    out = run_cli("poles")
    assert out.returncode == 2


@pytest.mark.parametrize("args", [
    ("--word", "1,,2"), ("--word", "1,1,"), ("--pairs", "1-2,,3-4"),
    ("--pairs", "1-2,3-4", "--set", "1,,2"),
])
def test_poles_empty_item_exit_2(args):
    # a doubled or trailing comma is a typo, not a shorter spec
    out = invoke("poles", *args)
    assert out.returncode == 2 and not out.stdout, out.stderr
    assert "empty item" in out.stderr


@pytest.mark.parametrize("args", [
    ("--pairs", "1-2,3-4", "--set", "3-9"),  # positions past 2k
    ("--word", "1,1", "--set", "1"),  # --set applies to one partition only
])
def test_poles_bad_set_usage_error(args):
    out = invoke("poles", *args)
    assert out.returncode == 2, out.stderr


def test_eval_adaptive_pair():
    out = run_cli("eval", "--pairs", "1-2", "--H", "0.75", "--method", "adaptive")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert abs(payload["result"]["value"] - verify.Exact.adjacent(1, 0.75)) < 1e-7
    assert payload["provenance"] == "deterministic"


def test_eval_unit_integrand():
    out = run_cli(
        "eval", "--pairs", "1-3,2-4", "--H", "1", "--method", "adaptive",
        "--tol", "1e-9",
    )
    payload = json.loads(out.stdout)
    assert abs(payload["result"]["value"] - verify.Exact.adjacent(2, 1.0)) < 1e-9


def test_eval_closed_form():
    out = run_cli("eval", "--pairs", "1-2,3-4", "--H", "0.8", "--method", "closed-form")
    payload = json.loads(out.stdout)
    assert abs(payload["result"]["value"] - verify.Exact.adjacent(2, 0.8)) < 1e-12


def test_eval_domain_error_exit_3():
    out = run_cli("eval", "--pairs", "1-2", "--H", "0.4", "--method", "adaptive")
    assert out.returncode == 3
    assert "outside convergent region" in out.stderr


@pytest.mark.parametrize("args", [
    ("poles", "--word", ",".join(["1"] * 16)),
    ("gamma-table", "--k", "8", "--d", "1", "--H", "0.8"),
])
def test_huge_word_enumeration_exit_3(args):
    # 1^16 has 15!! = 2,027,025 refining matchings: refused before any is
    # built, so the command ends well inside the timeout
    out = run_cli(*args, timeout=10)
    assert out.returncode == 3, out.stderr
    assert "refining pair partitions" in out.stderr


def test_huge_gamma_table_exit_3():
    # 33^4 = 1,185,921 words is past the 2^20 limit: refused before any word
    # is evaluated, so the command ends well inside the timeout
    out = run_cli("gamma-table", "--k", "2", "--d", "33", "--H", "0.8", timeout=10)
    assert out.returncode == 3, out.stderr
    assert "words refused" in out.stderr


def test_eval_closed_form_declines_crossing():
    out = invoke("eval", "--pairs", "1-3,2-4", "--H", "0.8", "--method", "closed-form")
    assert out.returncode == 3
    assert "crossing pairs 1-3,2-4" in out.stderr
    assert "convergent" not in out.stderr


@pytest.mark.parametrize("pairs, h, method", [
    ("1-2,3-6,4-5", "0.55", "adaptive"),
    ("1-4,2-3", "0.8", "closed-form"),
])
def test_eval_nested_matching_is_exact(pairs, h, method):
    out = invoke("eval", "--pairs", pairs, "--H", h, "--method", method)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)["result"]
    assert result["value"] > 0 and result["cells"] == 0
    assert result["extra"]["factor_tree"]


def test_eval_crossing_near_half():
    # a sum of four gamma-product terms that cancel by a factor of 6e5 here
    out = invoke("eval", "--pairs", "1-3,2-5,4-6", "--H", "0.51")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)["result"]
    assert abs(result["value"] - 0.131004441040988) <= result["tol"] < 1e-8
    assert result["cells"] == 0 and result["extra"]["terms"] == [4]


def test_eval_without_a_correct_digit_exit_3():
    # closer to 1/2 the terms cancel to a tol far beyond |L|
    out = invoke("eval", "--pairs", "1-4,2-5,3-6", "--H", "0.50001")
    assert out.returncode == 3, out.stdout
    assert "no correct digit" in out.stderr and not out.stdout


def test_eval_wide_crossing_component_exit_3():
    out = invoke("eval", "--pairs", "1-7,2-8,3-9,4-10,5-11,6-12", "--H", "0.8")
    assert out.returncode == 3
    assert "at most 5 pairs" in out.stderr


@pytest.mark.parametrize("args", [
    ("eval", "--pairs", "1-2", "--H", "inf"),
    ("eval", "--pairs", "1-2", "--H", "inf", "--method", "direct-mc"),
    ("eval", "--pairs", "1-2", "--H", "inf", "--method", "closed-form"),
    ("mean-sig", "--word", "1,1,2,2", "--H", "inf", "--method", "closed-form"),
    ("eval", "--pairs", "1-2", "--H", "1e308", "--method", "closed-form"),
    ("eval", "--pairs", "1-2,3-4", "--H", "1e306", "--method", "closed-form"),
    ("mean-sig", "--word", "1,1,1,2", "--H", "inf", "--output", "text"),
    ("mean-sig", "--word", "1,1,1,2", "--H", "1e308"),
    # L(1-2; H) = 1 / (2H(2H - 1)) underflows, and no route has a digit of it
    ("eval", "--pairs", "1-2", "--H", "1e308", "--method", "adaptive"),
    ("eval", "--pairs", "1-2", "--H", "1e308", "--method", "direct-mc"),
    ("eval", "--pairs", "1-2", "--H", "1e308", "--method", "pullback-mc"),
    # every direct-mc sample underflows to 0, which is no exact zero
    ("eval", "--pairs", "1-2", "--H", "1e7", "--method", "direct-mc"),
    ("eval", "--pairs", "1-2", "--H", "1e5", "--method", "direct-mc", "--samples", "1000"),
])
def test_non_finite_result_exit_3(args):
    out = invoke(*args)
    assert out.returncode == 3, out.stdout
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
    assert not out.stdout


def test_exact_zeros_stay_exact():
    # the one exception to the result rule: 0 with error 0, marked exact_zero
    out = invoke("mean-sig", "--word", "1,2", "--H", "0.8", "--method", "direct-mc")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)["result"]
    assert result["value"] == result["tol"] == 0 and result["extra"]["exact_zero"] is True
    out = invoke("gamma-table", "--k", "1", "--d", "3", "--H", "0.8", "--output", "csv")
    assert out.returncode == 0, out.stderr
    zeros = [row for row in list(csv.reader(io.StringIO(out.stdout)))[1:]
             if float(row[1]) == 0]
    assert len(zeros) == 6 and all(stderr == "" for *_, stderr in zeros)


@pytest.mark.parametrize("method", ["direct-mc", "pullback-mc"])
@pytest.mark.parametrize("count", [("--samples", "0"), ("--workers", "0"),
                                   ("--workers", "-1")])
def test_mc_counts_below_one_exit_3(method, count):
    out = invoke("eval", "--pairs", "1-2", "--H", "0.8", "--method", method, *count)
    assert out.returncode == 3, out.stdout


@pytest.mark.parametrize("method", ["direct-mc", "pullback-mc"])
def test_mc_workers_past_the_bound_exit_3(method):
    out = invoke("eval", "--pairs", "1-2", "--H", "0.8", "--method", method,
                 "--samples", "65536", "--workers", "1025")
    assert out.returncode == 3, out.stdout
    assert "at most 1024" in out.stderr


@pytest.mark.parametrize("args", [
    ("mean-sig", "--word", "1,2", "--H", "0.8", "--tol", "-1"),
    ("mean-sig", "--word", "1,2", "--H", "0.8", "--method", "direct-mc", "--samples", "0"),
    ("mean-sig", "--word", "1,2,2,3", "--H", "0.8", "--method", "pullback-mc",
     "--workers", "0"),
    ("mean-sig", "--word", "1,2", "--H", "0.8", "--method", "direct-mc", "--samples", "3",
     "--workers", "4"),
    ("gamma-table", "--k", "1", "--d", "2", "--H", "0.8", "--method", "direct-mc",
     "--samples", "3", "--workers", "4"),
    ("eval", "--pairs", "1-2", "--H", "0.8", "--method", "pullback-mc", "--samples", "3",
     "--workers", "4"),
])
def test_route_guards_before_exact_zero_exit_3(args):
    # a word with no refining matching still runs the named route's guards,
    # and no route takes more workers than samples
    out = invoke(*args)
    assert out.returncode == 3, out.stdout


@pytest.mark.parametrize("args", [
    ("eval", "--pairs", "1-3,2-4", "--H", "0.8", "--method", "pullback-mc"),
    ("mean-sig", "--word", "1,1,2,2", "--H", "0.8", "--method", "pullback-mc"),
    ("gamma-table", "--k", "2", "--d", "2", "--H", "0.8", "--method", "pullback-mc"),
])
def test_pullback_beyond_one_pair_exit_3(args, monkeypatch):
    # refused before any blowup chart is built or probed
    from sigpole import blowup

    def no_chart(*a, **k):
        raise AssertionError("a blowup chart was built")

    monkeypatch.setattr(blowup, "BlowupChart", no_chart)
    out = invoke(*args)
    assert out.returncode == 3, out.stdout
    assert out.stderr.startswith("error: pullback route limited to one pair"), out.stderr


@pytest.mark.parametrize("args", [
    ("eval", "--pairs", "1-2", "--H", "0.8", "--method", "direct-mc"),
    ("eval", "--pairs", "1-2", "--H", "0.8", "--method", "pullback-mc"),
    ("mean-sig", "--word", "1,1", "--H", "0.8", "--method", "direct-mc"),
    ("mean-sig", "--word", "1,2", "--H", "0.8", "--method", "direct-mc"),
])
def test_oversized_sample_count_exit_3(args, monkeypatch):
    # refused before any seed sequence exists, for a word with no refining
    # matching (1,2) too
    def no_seeds(*a, **k):
        raise AssertionError("a seed sequence was built")

    import numpy as np

    monkeypatch.setattr(np.random, "SeedSequence", no_seeds)
    monkeypatch.setattr(quadrature, "worker_seeds", no_seeds)
    out = invoke(*args, "--samples", "10000000000")
    assert out.returncode == 3, out.stdout
    assert "10000000000 samples refused" in out.stderr


@pytest.mark.parametrize("args, env", [
    (("eval", "--pairs", "1-2", "--H", "0.8", "--method", "direct-mc", "--samples", "1000",
      "--seed", "-5"), {}),
    (("eval", "--pairs", "1-2", "--H", "0.8", "--method", "pullback-mc", "--samples", "1000",
      "--seed", "-5"), {}),
    (("mean-sig", "--word", "1,1", "--H", "0.8", "--method", "direct-mc", "--samples", "100",
      "--seed", "-1"), {}),
    (("mean-sig", "--word", "1,2", "--H", "0.8", "--method", "direct-mc", "--seed", "-1"), {}),
    (("eval", "--pairs", "1-2", "--H", "0.8", "--method", "direct-mc", "--samples", "1000"),
     {"SIGPOLE_SEED": "-7"}),
])
def test_negative_seed_exit_3(args, env):
    # refused before any seed sequence is built, for a word with no refining
    # matching too
    out = run_cli(*args, env_extra=env, timeout=30)
    assert out.returncode == 3, out.stderr
    assert "seed must be nonnegative" in out.stderr


def test_unused_negative_seed_exit_3():
    # adaptive and closed-form take no seed, but the payload would echo it
    for method in ("adaptive", "closed-form"):
        out = invoke("eval", "--pairs", "1-2", "--H", "0.8", "--method", method, "--seed", "-5")
        assert out.returncode == 3, out.stdout
        assert out.stderr == "error: seed must be nonnegative, got -5\n"


def test_mean_sig_pair_word():
    out = run_cli("mean-sig", "--word", "1,1", "--H", "0.9")
    payload = json.loads(out.stdout)
    assert abs(payload["result"]["value"] - verify.Exact.moment(1)) < 1e-7
    assert payload["mode"] == "eq405-consistent"


def test_mean_sig_zero_word():
    out = run_cli("mean-sig", "--word", "1,2,2,3", "--H", "0.8")
    payload = json.loads(out.stdout)
    assert payload["result"]["value"] == 0.0
    assert payload["result"]["extra"]["exact_zero"] is True


def test_direct_mc_effective_samples_shows_mass_on_one_sample():
    # at H = 1e4 one sample carries the mass: the stderr passes the result
    # rule, but the effective sample size is 1
    def ess(h):
        out = invoke("eval", "--pairs", "1-2", "--H", h, "--method", "direct-mc",
                     "--samples", "100000", "--seed", "1")
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout)["result"]["extra"]["ess"]

    assert ess("1e4") == pytest.approx(1.0, abs=1e-6)
    assert ess("0.8") > 30_000


def test_word_results_carry_finite_variance():
    def extra(command, h, method, *more):
        out = invoke(command, *more, "--H", h, "--method", method, "--samples", "1000")
        assert out.returncode == 0, out.stderr
        payload = json.loads(out.stdout)
        if command == "gamma-table":
            return [e["extra"] for e in payload["table"]["entries"]]
        return payload["result"]["extra"]

    word = ("--word", "1,1")
    assert extra("mean-sig", "0.7", "direct-mc", *word)["finite_variance"] is False
    assert extra("mean-sig", "0.8", "direct-mc", *word)["finite_variance"] is True
    assert "finite_variance" not in extra("mean-sig", "0.8", "adaptive", *word)
    table = extra("gamma-table", "0.7", "direct-mc", "--k", "1", "--d", "2")
    assert [e.get("finite_variance") for e in table] == [False, None, None, False]


def test_gamma_table_json_and_csv():
    out = run_cli("gamma-table", "--k", "1", "--d", "2", "--H", "0.75")
    payload = json.loads(out.stdout)
    entries = payload["table"]["entries"]
    values = {e["word"]: e["value"] for e in entries}
    half = verify.Exact.moment(1)
    assert abs(values["1,1"] - half) < 1e-8 and abs(values["2,2"] - half) < 1e-8
    assert values["1,2"] == 0.0 and values["2,1"] == 0.0
    assert payload["table"]["mode"] == "eq405-consistent"
    out_csv = run_cli("gamma-table", "--k", "1", "--d", "2", "--H", "0.75",
                      "--output", "csv")
    lines = out_csv.stdout.strip().splitlines()
    assert lines[0] == "word,coefficient,method,stderr"
    assert len(lines) == 5


def test_gamma_table_csv_cells_are_numbers():
    out = invoke("gamma-table", "--k", "1", "--d", "2", "--H", "0.8", "--method",
                 "direct-mc", "--samples", "1000", "--output", "csv")
    assert out.returncode == 0, out.stderr
    rows = list(csv.DictReader(io.StringIO(out.stdout)))
    assert len(rows) == 4
    for row in rows:
        for cell in (row["coefficient"], row["stderr"]):
            assert cell == "" or math.isfinite(float(cell)), row


def test_byte_reproducibility():
    args = ("eval", "--pairs", "1-2", "--H", "0.8", "--method", "direct-mc",
            "--samples", "20000", "--seed", "5", "--workers", "2")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.stdout == b.stdout
    c = run_cli(*args[:-1], "1")  # different worker count, different stream
    assert c.stdout != a.stdout


def test_seed_env_override():
    base = run_cli("eval", "--pairs", "1-2", "--H", "0.8", "--method", "direct-mc",
                   "--samples", "20000")
    over = run_cli("eval", "--pairs", "1-2", "--H", "0.8", "--method", "direct-mc",
                   "--samples", "20000", env_extra={"SIGPOLE_SEED": "12345"})
    assert json.loads(base.stdout)["config"]["seed"] != 12345
    assert json.loads(over.stdout)["config"]["seed"] == 12345
    explicit = run_cli("eval", "--pairs", "1-2", "--H", "0.8", "--method",
                       "direct-mc", "--samples", "20000", "--seed", "99",
                       env_extra={"SIGPOLE_SEED": "12345"})
    assert json.loads(explicit.stdout)["config"]["seed"] == 99


@pytest.mark.parametrize("spelling", ["flag", "env"])
def test_seed_parses_as_decimal(spelling):
    # --seed and SIGPOLE_SEED read a seed by one rule: decimal int
    args = ("eval", "--pairs", "1-2", "--H", "0.8", "--method", "direct-mc",
            "--samples", "1000")

    def run(seed):
        if spelling == "flag":
            return run_cli(*args, "--seed", seed, timeout=30)
        return run_cli(*args, env_extra={"SIGPOLE_SEED": seed}, timeout=30)

    for refused in ("0x10", "1_0", "+10", "\uff11\uff10"):  # fullwidth 10
        out = run(refused)
        assert out.returncode == 2 and not out.stdout, (refused, out.stderr)
    out = run("010")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["config"]["seed"] == 10


@pytest.mark.parametrize("option", ["--samples", "--workers", "--k", "--d"])
def test_integer_options_read_ascii_digits_only(option):
    # the rule of --seed: int() alone would take each of these
    opts = {"--samples": "1000", "--workers": "1", "--k": "1", "--d": "1"}
    for refused in ("1_0", "+1", "\uff12", "\u0661"):  # fullwidth 2, Arabic-Indic 1
        args = ["gamma-table", "--H", "0.8", "--method", "direct-mc"]
        for name, value in {**opts, option: refused}.items():
            args += [name, value]
        out = invoke(*args)
        assert out.returncode == 2 and not out.stdout, (refused, out.stderr)
        assert f"invalid integer value: {refused!r}" in out.stderr


def test_verify_single_suite():
    out = run_cli("verify", "combinatorics", "--quick", "--output", "text")
    assert out.returncode == 0
    assert "[PASS] combinatorics.refinement-diagrams" in out.stdout
    assert "[FAIL]" not in out.stdout


def test_verify_unknown_suite_exit_2():
    out = run_cli("verify", "nonsense")
    assert out.returncode == 2


def test_verify_failure_path(monkeypatch):
    def wrong(quick):
        return False, "wrong value"

    def crashes(quick):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(
        verify, "SUITES", {"demo": [("wrong", wrong), ("crashes", crashes)]}
    )
    results = verify.run_suite("demo")
    assert [(r.name, r.ok) for r in results] == [("wrong", False), ("crashes", False)]
    assert results[1].detail == "raised ZeroDivisionError: boom"
    out = invoke("verify", "demo")
    assert out.returncode == cli.EXIT_VERIFY_FAILED
    assert json.loads(out.stdout)["failed"] == 2


@functools.cache
def _latest_schemas() -> dict:
    """One validator per schema name, from the highest version in docs/schemas."""
    latest: dict = {}
    for path in (ROOT / "docs" / "schemas").glob("*.v*.json"):
        base, _, version = path.stem.rpartition(".v")
        if int(version) > latest.get(base, (0, None))[0]:
            latest[base] = (int(version), path)
    out = {}
    for base, (_, path) in latest.items():
        schema = json.loads(path.read_text())
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        out[base] = cls(schema)
    return out


DIAGRAM_PAIRS = "1-7,2-8,3-5,4-6,9-11,10-18,12-17,13-14,15-16"
PAYLOAD_COMMANDS = {
    "poles-pairs": ("poles", "--pairs", "1-6,2-4,3-7,5-9,8-10"),
    "poles-word": ("poles", "--word", "1,2,1,2,1,2,1,2"),
    "poles-set": ("poles", "--pairs", DIAGRAM_PAIRS, "--set", "2-8,10-11,13-17"),
    "eval-adaptive": ("eval", "--pairs", "1-3,2-4", "--H", "0.8"),
    "eval-direct-mc": ("eval", "--pairs", "1-3,2-4", "--H", "0.8",
                       "--method", "direct-mc", "--samples", "20000"),
    "eval-pullback-mc": ("eval", "--pairs", "1-2", "--H", "0.8",
                         "--method", "pullback-mc", "--samples", "20000"),
    "eval-closed-form": ("eval", "--pairs", "1-2,3-4", "--H", "0.8",
                         "--method", "closed-form"),
    "mean-sig": ("mean-sig", "--word", "1,1,2,2", "--H", "0.8"),
    "gamma-table": ("gamma-table", "--k", "1", "--d", "2", "--H", "0.8",
                    "--method", "direct-mc", "--samples", "20000"),
    "verify": ("verify", "poles", "--quick"),
}


def _validate(payload: dict, schemas: dict) -> None:
    """Validate a payload, and each result in it, against ``schemas``."""
    checks = [("cli-envelope", payload)]
    if "progressions" in payload:
        checks.append(("polereport", payload))
    if "set" in payload:
        checks.append(("polesetreport", payload))
    if "checks" in payload:
        checks.append(("verifyreport", payload))
    if "result" in payload:
        checks.append(("evalresult", payload["result"]))
    if "table" in payload:
        checks.append(("gammatable", payload["table"]))
        for entry in payload["table"]["entries"]:
            checks.append(("evalresult", {k: v for k, v in entry.items() if k != "word"}))
    for name, instance in checks:
        schemas[name].validate(instance)


@pytest.mark.parametrize("args", PAYLOAD_COMMANDS.values(), ids=PAYLOAD_COMMANDS)
def test_payload_validates_against_latest_schemas(args):
    out = run_cli(*args)
    assert out.returncode == 0, out.stderr
    _validate(json.loads(out.stdout), _latest_schemas())


# values for the contract test, each as (within bounds, at or past them):
# spec strings, H, and each route option, non-ASCII digits included
H_TEXTS = (["0.51", "0.8", "1", "2", "1e308", repr(0.5 + 1e-15)], ["nan", "inf", "-inf", "0.5"])
ROUTE_OPTION_TEXTS = {
    "--tol": (["0", "1e-300", "1e-3", "1e308", "\uff11"], ["nan", "inf", "-inf", "-1"]),
    "--seed": (["0", "5", str(2**64)], ["-1", "\u0663"]),
    "--workers": (["1", "2", "1000"], ["-1", "0", "1001", "\u0662"]),
}
# no sample count above 1000 is run
SAMPLE_TEXTS = (["2", "1000"],
                ["-1", "0", "1", str(quadrature.MAX_SAMPLES + 1), "\uff11\uff10"])
SPEC_TEXTS = {
    "--pairs": (["1-2", "1-3,2-4", "1-4,2-3", "2-1,3-4", " 1-2 "],
                ["1-1", "1-3", "0-1", "", ",", "1-2,,3-4", "1-2-3", "\uff11-2"]),
    "--word": (["1,1", "1,2", "1,1,2,2", "1,2,1,2", "1,1,1,1", "2,1"],
               ["1", "1,1,1", "", "1,,1", "0,0", "\u0661,\u0661"]),
}
SET_TEXTS = (["1", "1-2", "2-3", "1-2,4"], ["", "3-1", "1-4000000000", "x"])
K_TEXTS, D_TEXTS = (["1", "2"], ["-1", "0", "\uff12"]), (["1", "2"], ["-1", "0"])


@st.composite
def cli_argv(draw) -> list[str]:
    """argv for poles, eval, mean-sig or gamma-table with k <= 2; each value
    is past its bounds one time in four."""
    def pick(texts):
        within, past = texts
        return draw(st.sampled_from(past if draw(st.integers(0, 3)) == 0 else within))

    command = draw(st.sampled_from(["poles", "eval", "mean-sig", "gamma-table"]))
    if command == "poles":
        source = draw(st.sampled_from(list(SPEC_TEXTS)))
        argv = [command, source, pick(SPEC_TEXTS[source])]
        if source == "--pairs" and draw(st.booleans()):
            argv += ["--set", pick(SET_TEXTS)]
        return argv + ["--output", draw(st.sampled_from(["json", "text"]))]
    method = draw(st.sampled_from(list(ROUTES)))
    if command == "gamma-table":
        argv = [command, "--k", pick(K_TEXTS), "--d", pick(D_TEXTS)]
    else:
        source = "--pairs" if command == "eval" else "--word"
        argv = [command, source, pick(SPEC_TEXTS[source])]
    argv += ["--H", pick(H_TEXTS), "--method", method, "--samples", pick(SAMPLE_TEXTS)]
    for option, texts in ROUTE_OPTION_TEXTS.items():
        if draw(st.booleans()):
            argv += [option, pick(texts)]
    outputs = ["json", "csv"] if command == "gamma-table" else ["json", "text"]
    return argv + ["--output", draw(st.sampled_from(outputs))]


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(cli_argv())
# an exponent near the float limit, whose numpy warnings must not escape
@example(["eval", "--pairs", "1-2", "--H", "1e308", "--method", "pullback-mc",
          "--samples", "2", "--output", "json"])
def test_cli_contract(argv):
    # every input gives a result or a typed refusal with its exit code; an
    # exception other than SystemExit leaves invoke and fails the test
    out = invoke(*argv)
    assert out.returncode in (0, 2, 3), (argv, out)
    if out.returncode == 3:
        assert out.stdout == "" and out.stderr.startswith("error: "), (argv, out)
        assert out.stderr.count("\n") == 1, (argv, out)
        if argv[-1] == "json":
            # the refusal is the input's, so no output format escapes it
            other = "csv" if argv[0] == "gamma-table" else "text"
            assert invoke(*argv[:-1], other).returncode == 3, argv
        return
    if out.returncode == 2:
        lines = out.stderr.splitlines()
        assert out.stdout == "" and lines[0].startswith("usage: "), (argv, out)
        assert ": error: " in lines[-1], (argv, out)
        return
    # the result rule of EvalResult: an error below |value|, or an exact
    # zero; a stochastic error is 0 only for direct-mc at H = 1, where every
    # sample is 1
    constant = "direct-mc" in argv and float(argv[argv.index("--H") + 1]) == 1
    if argv[-1] == "csv":
        rows = list(csv.reader(io.StringIO(out.stdout)))
        assert rows[0] == ["word", "coefficient", "method", "stderr"], (argv, out)
        for _word, value, _method, stderr in rows[1:]:
            float(value)
            if stderr:  # a stochastic row; a deterministic one has no error cell
                assert 0 <= float(stderr) < abs(float(value)), (argv, out)
                assert float(stderr) > 0 or constant, (argv, out)
        return
    if argv[-1] == "text":
        lines = out.stdout.splitlines()
        assert lines[0].startswith("version: "), (argv, out)
        assert all(line.split(": ", 1)[0].isidentifier() for line in lines), (argv, out)
        return
    payload = json.loads(out.stdout)
    _validate(payload, _latest_schemas())
    config = payload["config"]
    if "method" in config:  # every route option echoed passed the route rules
        quadrature.check_route_args(config["H"], **{
            key: config[key] for key in ("samples", "seed", "tol", "workers")})
    results = ([payload["result"]] if "result" in payload
               else payload.get("table", {}).get("entries", []))
    for r in results:
        error = r["stderr"] if "stderr" in r else r["tol"]
        assert 0 <= error < abs(r["value"]) or (
            r.get("extra", {}).get("exact_zero") and error == r["value"] == 0), (argv, r)
        assert "stderr" not in r or error > 0 or constant, (argv, r)


# commands that build no array: they run without numpy and the blowup chart
EXACT_COMMANDS = [
    ("poles", "--pairs", "1-7,2-8,3-5,4-6"),
    ("poles", "--word", "1,2,1,2,1,2"),
    ("eval", "--pairs", "1-2,3-4", "--H", "0.8", "--method", "closed-form"),
    ("eval", "--pairs", "1-3,2-4", "--H", "0.8"),
    ("mean-sig", "--word", "1,1", "--H", "0.8"),
    ("gamma-table", "--k", "1", "--d", "3", "--H", "0.8"),
    ("verify", "poles", "--quick"),
]


def loaded_at_exit(*args: str) -> list[str]:
    """Which of numpy, scipy, sigpole.blowup, concurrent.futures and click
    a fresh interpreter holds when the CLI run with ``args`` exits (printed
    as the last stdout line)."""
    code = (
        "import atexit, json, sys\n"
        "watch = ('numpy', 'scipy', 'sigpole.blowup', 'concurrent.futures', 'click')\n"
        "atexit.register(lambda: print(json.dumps([m for m in watch if m in sys.modules])))\n"
        "from sigpole.cli import main\n"
        "main(sys.argv[1:])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_import_loads_no_scipy():
    # nor click: the parser is argparse
    code = (
        "import sys, sigpole.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'click')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
    for args in EXACT_COMMANDS:
        assert loaded_at_exit(*args) == [], args
    # the guard can see numpy: a Monte Carlo route loads it (one batch, so
    # no thread pool)
    assert loaded_at_exit("eval", "--pairs", "1-2", "--H", "0.8", "--method", "direct-mc",
                          "--samples", "100") == ["numpy"]
    # many batches start threads, and concurrent.futures stays unloaded
    assert loaded_at_exit("eval", "--pairs", "1-2", "--H", "0.8", "--method", "direct-mc",
                          "--samples", "100000") == ["numpy"]


@pytest.mark.parametrize("args, code, message", [
    (("--H", "-1e-3"), 3, "outside convergent region"),
    (("--H", "-inf"), 3, "outside convergent region"),
    (("--H", "0.8", "--tol", "-1e-3"), 3, "tolerance must be a nonnegative number"),
    (("--H", "0.8", "--tol", "-inf"), 3, "tolerance must be a nonnegative number"),
    (("--H", "0.8", "--to", "1e-3"), 2, ""),  # no option is abbreviated
])
def test_option_values_starting_with_dash(args, code, message):
    # a number after an option is its value, not an option name
    out = run_cli("eval", "--pairs", "1-2", *args, timeout=10)
    assert out.returncode == code, out.stderr
    assert message in out.stderr
    assert out.stdout == ""


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_bad_tolerance_exit_3(tol):
    # refused before any level runs: the grid term of 1-4,2-5,3-6 never starts
    out = run_cli("eval", "--pairs", "1-4,2-5,3-6", "--H", "0.8", "--tol", tol, timeout=10)
    assert out.returncode == 3, out.stderr
    assert "tolerance must be a nonnegative number" in out.stderr


@pytest.mark.parametrize("method", ["direct-mc", "pullback-mc", "closed-form"])
@pytest.mark.parametrize("tol", ["inf", "-1"])
def test_unread_tolerance_exit_3(method, tol):
    # the payload echoes --tol for every method, so every method checks it
    out = invoke("eval", "--pairs", "1-2", "--H", "0.8", "--method", method,
                 "--samples", "100", "--tol", tol)
    assert out.returncode == 3, out.stdout
    assert out.stderr.startswith("error: tolerance must be a nonnegative number")


@pytest.mark.parametrize("args", [
    ("poles", "--word", ",".join(["1"] * 3200)),
    ("mean-sig", "--word", ",".join(["1"] * 3200), "--H", "0.8"),
    ("gamma-table", "--k", "1600", "--d", "1", "--H", "0.8"),
])
def test_refining_count_past_str_digit_limit_exit_3(args):
    # 3199!! has more digits than int -> str allows: the limit check stops
    # multiplying once past 135135 and never prints the count
    out = run_cli(*args, timeout=10)
    assert out.returncode == 3, out.stderr
    assert "more than 135135 refining pair partitions" in out.stderr


def test_table_of_a_billion_pairs_refused_without_a_word_exit_3():
    # the matching count of 2k points is checked on the number 2k, so no
    # word of 2e9 letters is built; the child runs in a 1.5 GB address space
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    out = run_cli("gamma-table", "--k", "1000000000", "--d", "1", "--H", "0.8",
                  timeout=10, preexec_fn=limit_memory)
    assert out.returncode == 3, out.stderr
    assert "more than 135135 refining pair partitions" in out.stderr


def large_matching_specs() -> dict[str, str]:
    """The fully nested 332-pair matching and a seeded random 3,000-pair one."""
    nested = ",".join(f"{i}-{665 - i}" for i in range(1, 333))
    perm = list(range(1, 6001))
    random.Random(3000).shuffle(perm)
    crossing = ",".join(f"{a}-{b}" for a, b in zip(perm[::2], perm[1::2]))
    return {"nested": nested, "random": crossing}


@pytest.mark.parametrize("args", [
    ("eval", "--pairs", "nested", "--method", "closed-form"),
    ("eval", "--pairs", "nested", "--method", "adaptive"),
    ("mean-sig", "--word", ",".join(map(str, [*range(1, 333), *range(332, 0, -1)]))),
    ("eval", "--pairs", "random", "--method", "closed-form"),
    ("eval", "--pairs", "random", "--method", "adaptive"),
])
def test_large_matchings_get_a_value_or_exit_3(args):
    # factorize walks the nesting on an explicit stack and finds crossing
    # components in one sweep: no RecursionError at any depth, and no
    # quadratic merge of components
    specs = large_matching_specs()
    out = run_cli(*(specs.get(a, a) for a in args), "--H", "0.8", timeout=20)
    assert out.returncode in (0, 3), out.stderr[-2000:]
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("set_spec", ["5000000000000", "1-4000000000"])
def test_huge_position_set_exit_2(set_spec):
    # refused at the position bound before any mask is built
    out = run_cli("poles", "--pairs", "1-2", "--set", set_spec, timeout=10)
    assert out.returncode == 2, out.stderr
    assert "exceeds 65536" in out.stderr


def test_poles_pairs_size_limit_exit_3():
    # 130 positions is past the 128 that candidate_poles enumerates
    pairs = ",".join(f"{2 * i - 1}-{2 * i}" for i in range(1, 66))
    out = run_cli("poles", "--pairs", pairs, timeout=10)
    assert out.returncode == 3, out.stderr
    assert "130 positions refused" in out.stderr


def test_evaluation_commands_share_one_option_set():
    parser = cli.build_parser()
    shared = ("hurst", "method", "samples", "seed", "tol", "workers")
    given = ["--H", "0.7", "--samples", "5", "--seed", "-3", "--tol", "-1e-3",
             "--workers", "2"]
    commands = {
        "eval": ["--pairs", "1-2"],
        "mean-sig": ["--word", "1,1"],
        "gamma-table": ["--k", "1", "--d", "2"],
    }

    def parsed(command, *args):
        ns = parser.parse_args(cli._attach_numbers([command, *commands[command], *args]))
        return {name: getattr(ns, name) for name in shared}

    def accepts(command, method):
        with redirect_stderr(io.StringIO()):
            try:
                parsed(command, "--H", "0.8", "--method", method)
            except SystemExit as exc:
                assert exc.code == 2
                return False
        return True

    defaults = {"hurst": 0.8, "method": "adaptive", "samples": 1_000_000, "seed": None,
                "tol": 1e-8, "workers": 1}
    values = {"hurst": 0.7, "method": "adaptive", "samples": 5, "seed": -3, "tol": -1e-3,
              "workers": 2}
    for command in commands:
        assert parsed(command, "--H", "0.8") == defaults
        assert parsed(command, *given) == values
        assert type(parsed(command, *given)["samples"]) is int
        methods = {m for m in [*ROUTES, "nope"] if accepts(command, m)}
        assert methods == set(ROUTES)


def test_route_defaults_stated_once():
    # the parser and the routes read the sample count and tol from quadrature
    parser = cli.build_parser()
    for command, args in (("eval", ["--pairs", "1-2"]), ("mean-sig", ["--word", "1,1"]),
                          ("gamma-table", ["--k", "1", "--d", "2"])):
        ns = parser.parse_args([command, *args, "--H", "0.8"])
        assert (ns.samples, ns.tol) == (quadrature.DEFAULT_SAMPLES, quadrature.DEFAULT_TOL)
    for route in (quadrature.l_direct_mc, quadrature.l_pullback_mc):
        assert inspect.signature(route).parameters["samples"].default == ns.samples
    assert inspect.signature(quadrature.l_adaptive).parameters["tol"].default == ns.tol


# sha256 of the stdout of each command, with its exit code, recorded before the
# three commands shared one option set and one runner
PINNED_STDOUT = [
    # re-recorded when 1-3,2-4 became a sum of two gamma-product terms
    (("mean-sig", "--word", "1,2,1,2", "--H", "0.8"), 0,
     "d3c10d4b1e76a4f773e0bfe9f9bbc5396d5618ebb1abe43835869bb5371a5bc1"),
    (("mean-sig", "--word", "1,1,1,1", "--H", "0.8", "--method", "direct-mc",
      "--samples", "4000", "--workers", "2"), 0,
     "b07eef25cba254b38e9595edbb46b222fd3d7d51a61e9ffe953b14a83540abc8"),
    # re-recorded when flag_ranges moved to the fitted homotopy schedule
    (("mean-sig", "--word", "1,1", "--H", "0.8", "--method", "pullback-mc",
      "--samples", "4000"), 0,
     "cef3c88fbb3060783e9915a47a1bbb04ab56234f1814548fed7982f06ed2d74b"),
    (("mean-sig", "--word", "1,1,2,2", "--H", "0.7", "--mode", "paper-406"), 0,
     "3776b31089674727db4f35c2183a8fa3c04d4e6cdd412366d9e8d41aa96d0e32"),
    # re-recorded, with the direct-mc table below, when direct MC moved to
    # moments of blocks of 2^10 samples: last digits of some values changed
    (("mean-sig", "--word", "1,1,1,1", "--H", "0.8", "--method", "direct-mc",
      "--samples", "3000", "--output", "text"), 0,
     "be8addab8f8d246f891f5caf6c4a1c33b63af09507c7dc79a0cf91d10ffd2257"),
    (("mean-sig", "--word", "1,1", "--H", "inf", "--output", "text"), 3,
     hashlib.sha256(b"").hexdigest()),
    (("gamma-table", "--k", "1", "--d", "3", "--H", "0.8"), 0,
     "eee671e0fbc622d07f0144273ff3ac71fa26060972b656e0a2381be3d80cf5e2"),
    # re-recorded when each matching got the stream of its index among all
    # matchings: 1,2,1,2 and 1,2,2,1 no longer reuse the stream of 1,1,2,2;
    # and again when direct MC moved to moments of blocks of 2^10 samples
    (("gamma-table", "--k", "2", "--d", "2", "--H", "0.8", "--method", "direct-mc",
      "--samples", "2000"), 0,
     "d6e017995de0a20716a46cb9bda0fbce821da7ecaffc9bddf0cb0fb334c3b505"),
    (("gamma-table", "--k", "3", "--d", "2", "--H", "0.8", "--tol", "1e-6"), 0,
     "e31e48d82fd9d3fed641e4606fab1180a59b8849a0f43496c77e354d19739c24"),
    (("gamma-table", "--k", "1", "--d", "2", "--H", "0.75", "--output", "csv"), 0,
     "f8075a87a1c545853fc0f00eaf838ea056c70ccdcb88381e33df550a3cbf8308"),
    # re-recorded when gamma-table began to offer pullback-mc: a usage error
    # (exit 2) before
    (("gamma-table", "--k", "1", "--d", "2", "--H", "0.8", "--method",
      "pullback-mc", "--samples", "20000"), 0,
     "6af3a8ea4047602666eb1f25be197ef3651270d5b47479475b5e5859cba241f5"),
    (("gamma-table", "--k", "2", "--d", "33", "--H", "0.8"), 3,
     hashlib.sha256(b"").hexdigest()),
]


@pytest.mark.parametrize("args, code, digest", PINNED_STDOUT,
                         ids=[" ".join(a) for a, _, _ in PINNED_STDOUT])
def test_word_command_stdout_pinned(args, code, digest):
    out = invoke(*args)
    assert out.returncode == code, out.stderr
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest
