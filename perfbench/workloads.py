"""The four benchmark workloads, the layer probes of the traced run, and the
recorder that times and checks every call into sigpole.

Each workload has a ``build_*`` function that makes its inputs from the seed
(this is set-up, not timed) and a ``run_*`` function that makes one closed-loop
pass over them: every call starts when the previous one has finished.  Calls
go through module attributes (``poles.candidate_poles``) so that the tracer's
rebinding sees them.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import jsonschema
import numpy as np

from sigpole import blowup, pairings, poles, quadrature, signature, verify
from sigpole.pairings import PairPartition, Word, parse_pairs, parse_position_set

import references as ref

ROOT = Path(__file__).resolve().parents[1]
H = 0.8  # above 3/4, so direct-MC variance is finite and z-bounds mean something
MAX_FAILURE_MESSAGES = 20
CALIBRATION_EVERY_S = 0.25


def calibration_sample() -> float:
    """Seconds taken by a fixed piece of pure-Python work that runs no sigpole
    code.  Sampled between calls, it tracks the speed of a shared host, which
    changed by up to 2x within seconds on the machine this was written on."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i * i + 1)
    return time.perf_counter() - start


class Call(NamedTuple):
    label: str
    start: float  # time.perf_counter()
    wall: float  # seconds


class Recorder:
    """Times public calls, runs their checks and counts attempted and failed."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.item = ""
        self.calls: list[Call] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.calibration: list[tuple[float, float]] = []  # (time, calibration_sample())

    def _fail(self, messages: list[str]) -> None:
        self.failed += 1
        room = MAX_FAILURE_MESSAGES - len(self.failures)
        self.failures.extend(messages[: max(room, 0)])

    def call(self, label: str, fn: Callable, *args, check=None, span=None, **kwargs):
        """Time fn(*args, **kwargs) as one attempted call, then check it.

        ``span`` names a span for calls the tracer cannot rebind (CLI
        commands run in a fresh interpreter).  Returns None on failure.
        """
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.item = self.item
        error = None
        start = time.perf_counter()
        try:
            if span is not None and self.tracer is not None:
                result = self.tracer.span(span, fn, *args, **kwargs)
            else:
                result = fn(*args, **kwargs)
        except Exception as exc:  # a raising call is a failed item, not a crash
            error = exc
        end = time.perf_counter()
        self.calls.append(Call(label, start, end - start))
        if not self.calibration or end - self.calibration[-1][0] >= CALIBRATION_EVERY_S:
            self.calibration.append((end, calibration_sample()))
        if error is not None:
            self._fail([f"{label}: raised {type(error).__name__}: {error}"])
            return None
        if check is not None:
            self.check(label, lambda: check(result), counted=True)
        return result

    def check(self, label: str, fn: Callable[[], list[str]], counted: bool = False) -> None:
        """Run a check; a check not tied to a call is one attempted item."""
        if not counted:
            self.attempted += 1
        try:
            messages = fn()
        except Exception as exc:
            messages = [f"{label}: check raised {type(exc).__name__}: {exc}"]
        if messages:
            self._fail(messages)

    def wall(self) -> float:
        """Seconds spent in the timed calls so far."""
        return sum(c.wall for c in self.calls)


def _adjacent(k: int) -> PairPartition:
    return PairPartition([(2 * i + 1, 2 * i + 2) for i in range(k)])


def _random_matching(rng: random.Random, size: int) -> PairPartition:
    perm = list(range(1, size + 1))
    rng.shuffle(perm)
    return PairPartition(zip(perm[::2], perm[1::2]))


# -- exact-census ---------------------------------------------------------------

CENSUS = {
    "full": {"census_size": 10, "word_length": 8, "large": (18, 20, 22), "large_each": 5,
             "float_targets": 200, "exact_targets": 5},
    "check": {"census_size": 6, "word_length": 6, "large": (18,), "large_each": 1,
              "float_targets": 10, "exact_targets": 1},
}


def build_exact_census(seed: int, scale: str) -> dict:
    cfg = CENSUS[scale]
    rng = random.Random(seed)
    words = [w for w in ref.canonical_words(cfg["word_length"]) if ref.refining_count(w)]
    large = [_random_matching(rng, size) for size in cfg["large"]
             for _ in range(cfg["large_each"])]
    nprng = np.random.default_rng(seed)
    floats = {n: nprng.random((cfg["float_targets"], n)) * 0.98 + 0.01 for n in (2, 3)}
    exact = nprng.random((cfg["exact_targets"], 4)) * 0.98 + 0.01
    return {"scale": scale, "cfg": cfg, "words": words, "large": large,
            "floats": floats, "exact": exact}


def _pole_check(label: str, partition: PairPartition):
    def check(ps) -> list[str]:
        bad = ref.witness_failures(label, partition, ps, poles.progression_of_set)
        if 0 not in ps:  # S = all positions gives offset 0 for every matching
            bad.append(f"{label}: 0 missing from the candidate set")
        return bad
    return check


def run_exact_census(rec: Recorder, inp: dict) -> None:
    cfg = inp["cfg"]
    size = cfg["census_size"]
    rec.item = "census"
    matchings = rec.call(
        "all_pair_partitions", pairings.all_pair_partitions, size,
        check=lambda ms: [] if len(ms) == ref.double_factorial(size - 1)
        else [f"census: {len(ms)} matchings of [1,{size}]"],
    ) or []
    digest = ref.Digest()
    for p in matchings:
        label = f"census {pairings.format_pairs(p)}"
        ps = rec.call(label, poles.candidate_poles, p, check=_pole_check(label, p))
        if ps is not None:
            digest.add(pairings.format_pairs(p), ref.pole_keys(ps))
    _digest_check(rec, "census", digest, inp["scale"])

    rec.item = "word-reports"
    digest = ref.Digest()
    for letters in inp["words"]:
        label = f"report {letters}"

        def check(report, letters=letters, label=label) -> list[str]:
            bad = []
            if report["refining_count"] != ref.refining_count(letters):
                bad.append(f"{label}: refining count {report['refining_count']}")
            for row in report["per_partition"]:
                bad += ref.witness_failures(label, row["partition"], row["pole_set"],
                                            poles.progression_of_set)
            return bad

        report = rec.call(label, signature.candidate_pole_report, Word(letters), check=check)
        if report is not None:
            digest.add(",".join(map(str, letters)), ref.pole_keys(report["union"]))
    _digest_check(rec, "word_reports", digest, inp["scale"])

    rec.item = "large"
    for p in inp["large"]:
        label = f"large {pairings.format_pairs(p)}"
        rec.call(label, poles.candidate_poles, p, check=_pole_check(label, p))

    rec.item = "inverse-float"
    for n, xs in inp["floats"].items():
        def check(ys, n=n, xs=xs) -> list[str]:
            chart = blowup.BlowupChart(n)
            err = np.abs(chart.F_batch(ys) - xs).max(axis=1)
            bad = [f"inverse n={n}: residual {e:.2e} > 1e-8" for e in err if e > 1e-8]
            if not chart.omega_mask(ys).all():
                bad.append(f"inverse n={n}: preimage outside Omega")
            return bad
        rec.call(f"F_inverse_batch n={n}",
                 lambda n=n, xs=xs: blowup.BlowupChart(n).F_inverse_batch(xs, tol=1e-9),
                 check=check)

    rec.item = "inverse-exact"
    tol = Fraction(1, 10**9)

    def check_exact(ys) -> list[str]:
        chart = blowup.BlowupChart(4)
        bad = []
        for x, y in zip(inp["exact"], ys):
            res = ref.exact_residual(x, y, chart.F_eval)
            if res > tol or not chart.omega_contains(list(y)):
                bad.append(f"exact inverse n=4: residual {float(res):.2e}")
        return bad

    rec.call("F_inverse_exact_batch n=4",
             lambda: blowup.BlowupChart(4).F_inverse_exact_batch(inp["exact"], tol=tol),
             check=check_exact)


def _digest_check(rec: Recorder, name: str, digest: ref.Digest, scale: str) -> None:
    got = digest.hexdigest()
    rec.digests[name] = got
    want = ref.GOLDEN[scale][name]
    rec.check(f"{name} digest",
              lambda: [] if got == want else [f"{name}: digest {got} != {want}"])


# -- mc-estimates -----------------------------------------------------------------

# Pullback runs on 1-2 only: at 2k=4 its reported stderr misses the heavy tail
# of its weights (see README.md, "Known defects"), so no fixed z-bound holds.
# The 2k=4 chart's flag-range probing, most of such a call, is timed alone.
MC = {
    "full": {"direct": 1_000_000, "mean_sig": 1_000_000, "pullback": 100_000,
             "adjacent_k": (2, 3, 4, 5), "flag_ranges_n": 4},
    "check": {"direct": 20_000, "mean_sig": 20_000, "pullback": 100_000,
              "adjacent_k": (2, 5), "flag_ranges_n": 2},
}


def build_mc_estimates(seed: int, scale: str) -> dict:
    rng = random.Random(seed)
    return {"cfg": MC[scale], "seeds": [rng.getrandbits(32) for _ in range(16)],
            "matching_seeds": [rng.getrandbits(32) for _ in range(15)]}


def _z_check(label: str, reference: float):
    return lambda r: ref.z_failures(label, r.value, r.stderr, reference)


def run_mc_estimates(rec: Recorder, inp: dict) -> None:
    cfg, seeds = inp["cfg"], iter(inp["seeds"])
    rec.item = "direct-mc"
    for k in cfg["adjacent_k"]:
        label = f"direct-mc adjacent k={k}"
        rec.call(label, quadrature.l_direct_mc, _adjacent(k), H, samples=cfg["direct"],
                 seed=next(seeds), workers=1, check=_z_check(label, ref.adjacent(k, H)))
    label = "direct-mc adjacent k=5 workers=2"
    rec.call(label, quadrature.l_direct_mc, _adjacent(5), H, samples=cfg["direct"],
             seed=next(seeds), workers=2, check=_z_check(label, ref.adjacent(5, H)))
    label = "direct-mc 1-3,2-4"
    rec.call(label, quadrature.l_direct_mc, parse_pairs("1-3,2-4"), H,
             samples=cfg["direct"], seed=next(seeds), workers=1,
             check=_z_check(label, ref.pair_reference("1-3,2-4", H)))

    rec.item = "mean-sig"
    label = "mean-sig 1^6 direct-mc"
    # One seed per refining matching.  Given one seed, mean_iterated_integral
    # reuses it for every matching and adds the correlated stderrs as if they
    # were independent (see README.md, "Known defects").
    matching_seeds = iter(inp["matching_seeds"])

    def direct_mc(p, h, **kwargs):
        return quadrature.l_direct_mc(p, h, seed=next(matching_seeds), **kwargs)

    rec.call(label, signature.mean_iterated_integral, Word([1] * 6), H,
             evaluator=direct_mc, samples=cfg["mean_sig"],
             check=_z_check(label, ref.moment_identity(3)))

    rec.item = "pullback-mc"
    # a fresh chart per call, as the CLI builds one per command
    label = "pullback-mc 1-2"
    rec.call(label, lambda s=next(seeds): quadrature.l_pullback_mc(
                 parse_pairs("1-2"), H, samples=cfg["pullback"], seed=s,
                 chart=blowup.BlowupChart(2)),
             check=_z_check(label, ref.pair_k1(H)))
    n = cfg["flag_ranges_n"]
    rec.call(f"flag_ranges n={n}", lambda: blowup.BlowupChart(n).flag_ranges(),
             check=lambda r: ref.range_failures(f"flag_ranges n={n}", *r, n))


# -- adaptive-table ----------------------------------------------------------------

ADAPTIVE = {
    "full": {"table_k": 2, "table_tol": 1e-6, "wick_m": 64, "closed_k": (1, 2, 3, 4, 5)},
    "check": {"table_k": 1, "table_tol": 1e-6, "wick_m": 16, "closed_k": (1, 2)},
}
K1_TOL = 1e-9


def build_adaptive_table(seed: int, scale: str) -> dict:
    """No input of this workload is random; the seed only orders the k=1 sweep."""
    hs = [0.6, 0.75, 0.9]
    random.Random(seed).shuffle(hs)
    return {"cfg": ADAPTIVE[scale], "hs": hs}


def run_adaptive_table(rec: Recorder, inp: dict) -> None:
    cfg = inp["cfg"]
    k, tol = cfg["table_k"], cfg["table_tol"]
    rec.item = "gamma-table"

    def check_table(table) -> list[str]:
        bad = []
        for letters, r in table.entries.items():
            want = (ref.mean_signature_k2(letters, H) if k == 2 else
                    (0.5 if letters[0] == letters[1] else 0.0))
            if want == 0.0:
                if r.value != 0.0:
                    bad.append(f"gamma {letters}: {r.value} should be exactly 0")
            else:
                bad += ref.abs_failures(f"gamma {letters}", r.value, want,
                                        tol * max(1.0, abs(want)))
        return bad

    rec.call(f"gamma_table k={k} d=2", signature.gamma_table, k, 2, H,
             evaluator="adaptive", tol=tol, check=check_table)

    rec.item = "adaptive-k1"
    for h in inp["hs"]:
        want = ref.pair_k1(h)
        rec.call(f"l_adaptive 1-2 H={h}", quadrature.l_adaptive, parse_pairs("1-2"), h,
                 tol=K1_TOL, check=lambda r, h=h, want=want: ref.abs_failures(
                     f"adaptive H={h}", r.value, want, K1_TOL * max(1.0, want)))

    rec.item = "wick"
    for letters in ((1, 1, 1, 1), (1, 1, 2, 2), (1, 2, 1, 2), (1, 2, 2, 1)):
        want = ref.mean_signature_k2(letters, H)
        rec.call(f"wick {letters}", quadrature.wick_grid_oracle, Word(letters), H,
                 m=cfg["wick_m"], check=lambda r, letters=letters, want=want:
                 ref.abs_failures(f"wick {letters}", r.value, want, r.tol))

    rec.item = "closed-form"
    for kk in cfg["closed_k"]:
        want = ref.adjacent(kk, H)
        rec.call(f"closed-form adjacent k={kk}", quadrature.l_closed_form, _adjacent(kk), H,
                 check=lambda r, kk=kk, want=want: ref.abs_failures(
                     f"closed-form k={kk}", r.value, want, 1e-12 * want))


# -- cli-commands -------------------------------------------------------------------

POLES_PAIRS = "1-6,2-4,3-7,5-9,8-10"


def load_schemas(root: Path) -> dict[str, jsonschema.protocols.Validator]:
    """Latest version of each schema in docs/schemas of the code under test."""
    latest: dict[str, tuple[int, Path]] = {}
    for path in sorted((root / "docs" / "schemas").glob("*.v*.json")):
        base, _, version = path.name[: -len(".json")].rpartition(".v")
        if version.isdigit() and int(version) >= latest.get(base, (0, path))[0]:
            latest[base] = (int(version), path)
    out = {}
    for base, (_, path) in latest.items():
        schema = json.loads(path.read_text())
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        out[base] = cls(schema)
    return out


def cli_env() -> dict:
    """The environment of a CLI command: the package comes from the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def build_cli_commands(seed: int, scale: str) -> dict:
    rng = random.Random(seed)
    s1, s2 = rng.getrandbits(32), rng.getrandbits(32)
    commands = [
        (["poles", "--pairs", POLES_PAIRS], "poles-pairs"),
        (["poles", "--word", "1,2,1,2,1,2"], "poles-word"),
        (["eval", "--pairs", "1-2,3-4", "--H", str(H), "--method", "closed-form"],
         "eval-closed-form"),
        (["eval", "--pairs", "1-3,2-4", "--H", str(H), "--method", "direct-mc",
          "--samples", "100000", "--seed", str(s1)], "eval-direct-mc"),
        (["eval", "--pairs", "1-2", "--H", str(H), "--method", "pullback-mc",
          "--samples", "100000", "--seed", str(s2)], "eval-pullback-mc"),
        (["mean-sig", "--word", "1,1", "--H", str(H)], "mean-sig"),
        (["gamma-table", "--k", "1", "--d", "3", "--H", str(H)], "gamma-table"),
        (["verify", "poles", "--quick"], "verify"),
    ]
    return {"commands": commands, "schemas": load_schemas(ROOT), "env": cli_env()}


def run_command(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "sigpole", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def _validate(schemas, name: str, instance, label: str) -> list[str]:
    return [f"{label}: {name} schema: {e.message}" for e in schemas[name].iter_errors(instance)]


def _check_payload(kind: str, payload: dict, schemas) -> list[str]:
    bad = _validate(schemas, "cli-envelope", payload, kind)
    if kind.startswith("poles"):
        bad += _validate(schemas, "polereport", payload, kind)
    if "result" in payload:
        bad += _validate(schemas, "evalresult", payload["result"], kind)
    if "chart" in payload:
        bad += _validate(schemas, "chart", payload["chart"], kind)
    if "table" in payload:
        bad += _validate(schemas, "gammatable", payload["table"], kind)
        for entry in payload["table"]["entries"]:
            body = {k: v for k, v in entry.items() if k != "word"}
            bad += _validate(schemas, "evalresult", body, f"{kind} {entry['word']}")
    return bad


def _check_values(kind: str, payload: dict) -> list[str]:
    result = payload.get("result")
    if kind == "poles-pairs":
        partition = parse_pairs(POLES_PAIRS)
        bad = []
        for rec in payload["contributions"]:
            want = (Fraction(rec["offset"]), Fraction(rec["step"]))
            pr = poles.progression_of_set(partition, parse_position_set(rec["set"]))
            if pr is None or (pr.offset, pr.step) != want:
                bad.append(f"{kind}: witness {rec['set']} does not give {want}")
        keys = sorted(f"{Fraction(r['offset'])}:{Fraction(r['step'])}"
                      for r in payload["contributions"])
        digest = ref.Digest()
        digest.add(POLES_PAIRS, keys)
        if digest.hexdigest() != ref.GOLDEN["cli"]["poles_pairs"]:
            bad.append(f"{kind}: digest {digest.hexdigest()} differs")
        return bad
    if kind == "poles-word":  # letter 1 occurs three times: nothing refines
        ok = payload["refining_partitions"] == 0 and payload["progressions"] == []
        return [] if ok else [f"{kind}: expected no refining matchings"]
    if kind == "eval-closed-form":
        want = ref.adjacent(2, H)
        return ref.abs_failures(kind, result["value"], want, 1e-12 * want)
    if kind == "eval-direct-mc":
        return ref.z_failures(kind, result["value"], result["stderr"],
                              ref.pair_reference("1-3,2-4", H))
    if kind == "eval-pullback-mc":
        return ref.z_failures(kind, result["value"], result["stderr"], ref.pair_k1(H))
    if kind == "mean-sig":  # E[X^2] / 2! at the default tolerance 1e-8
        return ref.abs_failures(kind, result["value"], ref.moment_identity(1), 1e-8)
    if kind == "gamma-table":
        bad = []
        for entry in payload["table"]["entries"]:
            a, b = entry["word"].split(",")
            want = ref.moment_identity(1) if a == b else 0.0
            bad += ref.abs_failures(f"{kind} {entry['word']}", entry["value"], want,
                                    1e-8 if want else 0.0)
        return bad
    if kind == "verify":
        return [] if payload["failed"] == 0 else [f"{kind}: {payload['failed']} checks failed"]
    return [f"{kind}: no value check"]


def run_cli_commands(rec: Recorder, inp: dict) -> None:
    rec.item = "cli"
    for argv, kind in inp["commands"]:
        def check(proc, kind=kind) -> list[str]:
            if proc.returncode != 0:
                return [f"{kind}: exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"]
            payload = json.loads(proc.stdout)
            return _check_payload(kind, payload, inp["schemas"]) + _check_values(kind, payload)

        rec.call(kind, run_command, argv, inp["env"], check=check,
                 span=f"cli.{argv[0]}")


# -- probes of the traced run ----------------------------------------------------------

def run_probes(rec: Recorder) -> None:
    """One small call into every traced layer, so that each per-layer metric
    has a value on every workload.  Fixed inputs, independent of the seed."""
    rec.item = "probe"
    rec.call("probe all_pair_partitions", pairings.all_pair_partitions, 6)
    rec.call("probe census", poles.candidate_poles, parse_pairs("1-3,2-5,4-6"),
             check=_pole_check("probe census", parse_pairs("1-3,2-5,4-6")))
    big = _random_matching(random.Random(0), 18)
    rec.call("probe large", poles.candidate_poles, big, check=_pole_check("probe large", big))
    for letters in ((1, 1, 2, 2), (1, 1, 1, 1)):  # the second revisits 1-2,3-4
        rec.call(f"probe report {letters}", signature.candidate_pole_report, Word(letters))
    rec.call("probe inverse n=2",
             lambda: blowup.BlowupChart(2).F_inverse_batch(np.full((4, 2), 0.3), tol=1e-9))
    rec.call("probe exact n=3", lambda: blowup.BlowupChart(3).F_inverse_exact_batch(
        np.full((1, 3), 0.3)))
    rec.call("probe flag ranges", lambda: blowup.BlowupChart(4).flag_ranges())
    for workers in (1, 2):
        label = f"probe direct-mc k=5 workers={workers}"
        rec.call(label, quadrature.l_direct_mc, _adjacent(5), H, samples=100_000, seed=1,
                 workers=workers, check=_z_check(label, ref.adjacent(5, H)))
    rec.call("probe pullback", quadrature.l_pullback_mc, parse_pairs("1-2"), H,
             samples=10_000, seed=1, check=_z_check("probe pullback", ref.pair_k1(H)))
    rec.call("probe mean-sig", signature.mean_iterated_integral, Word([1, 1]), H,
             evaluator="direct-mc", samples=100_000, seed=1,
             check=_z_check("probe mean-sig", ref.moment_identity(1)))
    rec.call("probe gamma-table", signature.gamma_table, 1, 2, H, evaluator="closed-form")
    rec.call("probe adaptive", quadrature.l_adaptive, parse_pairs("1-2"), H, tol=K1_TOL,
             check=lambda r: ref.abs_failures("probe adaptive", r.value, ref.pair_k1(H),
                                              K1_TOL * ref.pair_k1(H)))
    rec.call("probe wick", quadrature.wick_grid_oracle, Word([1, 1]), H, m=16)
    rec.call("probe closed-form", quadrature.l_closed_form, _adjacent(1), H)
    for suite in ("combinatorics", "poles", "blowup"):
        rec.call(f"probe verify {suite}", verify.run_suite, suite, quick=True,
                 check=lambda rs: [f"verify {r.suite}.{r.name}: {r.detail}"
                                   for r in rs if not r.ok])
    argv = ["poles", "--pairs", "1-2"]
    rec.call("probe cli poles", run_command, argv, cli_env(),
             check=lambda proc: [] if proc.returncode == 0 else ["probe cli: exit code"],
             span="cli.poles")


WORKLOADS = {
    "exact-census": (build_exact_census, run_exact_census),
    "mc-estimates": (build_mc_estimates, run_mc_estimates),
    "adaptive-table": (build_adaptive_table, run_adaptive_table),
    "cli-commands": (build_cli_commands, run_cli_commands),
}
