"""Command-line interface: golden outputs, exit codes, reproducibility."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from sigpole.pairings import parse_pairs, parse_position_set
from sigpole.poles import progression_of_set

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def run_cli(*args: str, env_extra: dict | None = None):
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
    )


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
    out = run_cli(
        "poles", "--pairs", "1-7,2-8,3-5,4-6,9-11,10-18,12-17,13-14,15-16"
    )
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    contributed = {(r["offset"], r["step"]) for r in payload["contributions"]}
    for pair in [
        ("1/8", "1/16"),
        ("-2", "1/4"),
        ("-5/6", "1/6"),
        ("3/8", "1/8"),
        ("1/14", "1/14"),
    ]:
        assert pair in contributed, pair


def test_poles_set_progression():
    out = run_cli(
        "poles",
        "--pairs", "1-7,2-8,3-5,4-6,9-11,10-18,12-17,13-14,15-16",
        "--set", "2-8,10-11,13-17",
    )
    payload = json.loads(out.stdout)
    assert payload["progression"] == {"offset": "1/8", "step": "1/16"}
    assert payload["set_size"] == 14


def test_poles_parse_error_exit_2():
    out = run_cli("poles", "--pairs", "1-2,2-3")
    assert out.returncode == 2
    out = run_cli("poles", "--word", "1,2,x")
    assert out.returncode == 2
    out = run_cli("poles")
    assert out.returncode == 2


def test_eval_adaptive_pair():
    out = run_cli("eval", "--pairs", "1-2", "--H", "0.75", "--method", "adaptive")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert abs(payload["result"]["value"] - 4 / 3) < 1e-7
    assert payload["provenance"] == "deterministic"


def test_eval_unit_integrand():
    out = run_cli(
        "eval", "--pairs", "1-3,2-4", "--H", "1", "--method", "adaptive",
        "--tol", "1e-9",
    )
    payload = json.loads(out.stdout)
    assert abs(payload["result"]["value"] - 1 / 24) < 1e-9


def test_eval_closed_form():
    from scipy.special import gamma

    out = run_cli("eval", "--pairs", "1-2,3-4", "--H", "0.8", "--method", "closed-form")
    payload = json.loads(out.stdout)
    expected = float(gamma(0.6) ** 2 / gamma(4.2))
    assert abs(payload["result"]["value"] - expected) < 1e-12


def test_eval_domain_error_exit_3():
    out = run_cli("eval", "--pairs", "1-2", "--H", "0.4", "--method", "adaptive")
    assert out.returncode == 3
    assert "outside convergent region" in out.stderr


def test_mean_sig_pair_word():
    out = run_cli("mean-sig", "--word", "1,1", "--H", "0.9")
    payload = json.loads(out.stdout)
    assert abs(payload["result"]["value"] - 0.5) < 1e-7
    assert payload["mode"] == "eq405-consistent"


def test_mean_sig_zero_word():
    out = run_cli("mean-sig", "--word", "1,2,2,3", "--H", "0.8")
    payload = json.loads(out.stdout)
    assert payload["result"]["value"] == 0.0
    assert payload["result"]["extra"]["exact_zero"] is True


def test_gamma_table_json_and_csv():
    out = run_cli("gamma-table", "--k", "1", "--d", "2", "--H", "0.75")
    payload = json.loads(out.stdout)
    entries = payload["table"]["entries"]
    values = {e["word"]: e["value"] for e in entries}
    assert abs(values["1,1"] - 0.5) < 1e-8 and abs(values["2,2"] - 0.5) < 1e-8
    assert values["1,2"] == 0.0 and values["2,1"] == 0.0
    assert payload["table"]["mode"] == "eq405-consistent"
    out_csv = run_cli("gamma-table", "--k", "1", "--d", "2", "--H", "0.75",
                      "--output", "csv")
    lines = out_csv.stdout.strip().splitlines()
    assert lines[0] == "word,coefficient,method,stderr"
    assert len(lines) == 5


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


def test_eval_pullback_with_gap_spec():
    out = run_cli(
        "eval", "--pairs", "1-2", "--H", "0.8", "--method", "pullback-mc",
        "--samples", "30000", "--seed", "3", "--q", "1,4,16",
    )
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["chart"] == {"n": 2, "q": [1, 4, 16]}
    assert abs(payload["result"]["value"] - 10 / 8.8 / (0.6)) < 1.0  # sanity scale
    bad = run_cli(
        "eval", "--pairs", "1-2", "--H", "0.8", "--method", "pullback-mc",
        "--q", "1,2,3",
    )
    assert bad.returncode == 2  # inadmissible gap weights


def test_verify_single_suite():
    out = run_cli("verify", "combinatorics", "--quick", "--output", "text")
    assert out.returncode == 0
    assert "[PASS] combinatorics.refinement-diagrams" in out.stdout
    assert "[FAIL]" not in out.stdout


def test_verify_unknown_suite_exit_2():
    out = run_cli("verify", "nonsense")
    assert out.returncode == 2


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


@pytest.mark.parametrize("args", PAYLOAD_COMMANDS.values(), ids=PAYLOAD_COMMANDS)
def test_payload_validates_against_latest_schemas(args):
    schemas = _latest_schemas()
    out = run_cli(*args)
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    checks = [("cli-envelope", payload)]
    if "progressions" in payload:
        checks.append(("polereport", payload))
    if "result" in payload:
        checks.append(("evalresult", payload["result"]))
    if "chart" in payload:
        checks.append(("chart", payload["chart"]))
    if "table" in payload:
        checks.append(("gammatable", payload["table"]))
        for entry in payload["table"]["entries"]:
            checks.append(("evalresult", {k: v for k, v in entry.items() if k != "word"}))
    for name, instance in checks:
        schemas[name].validate(instance)


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, sigpole.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
