#!/usr/bin/env python3
"""sigpole benchmark: four workloads, end-to-end metrics, and a traced run
for per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-census --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --check      # reduced sizes; every metric emitted?

With ``--trace 0`` the workload runs closed-loop passes until ``--seconds``
have elapsed and reports the end-to-end metrics.  With ``--trace 1`` it
runs one untraced and one traced pass plus the layer probes and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the full record (machine, configuration, calls, spans) is written
to ``.perfbench_out/``.  See perfbench/README.md for the metric definitions.
"""
from __future__ import annotations

import os

# one BLAS/OpenMP thread in this process and in every interpreter it starts
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = {"full": 5, "check": 1}
IMPORT_REPEATS = {"full": 3, "check": 1}
# About the median calibration_sample() over 3,000 samples on the host the
# benchmark was written on, so that a scaled time reads like a raw one there
CAL_REFERENCE_S = 2.0e-3
CAL_WINDOW_S = 1.0
# Longer calls are not scaled: no sample falls inside them, and samples at their
# ends need not stand for the speed through them.
CAL_MAX_CALL_S = 5.0


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "sigpole" / "__init__.py").is_file():
        _die(f"no sigpole sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import sigpole

    if Path(sigpole.__file__).resolve().parent != (src / "sigpole").resolve():
        _die(f"imported sigpole from {sigpole.__file__}, not from {src}")
    import workloads

    return workloads


# -- measurements outside the workload process ----------------------------------

def setup_times(workload: str, seed: int, scale: str) -> list[float]:
    """Seconds from starting a fresh interpreter until it has imported
    everything and built the inputs, i.e. until it could make its first
    timed call."""
    out = []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
           "--seed", str(seed), "--scale", scale]
    for _ in range(SETUP_REPEATS[scale]):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            _die(f"setup probe failed with exit code {code}")
        out.append(elapsed)
    return out


def _run_python(args: list[str], env: dict) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        _die(f"python {' '.join(args)} failed: {proc.stderr.strip()[-300:]}")
    return elapsed, proc.stderr


def _scipy_import_s(log: str) -> float:
    """Cumulative import time of every scipy subtree whose importer is not
    scipy itself, from ``-X importtime`` output (children precede parents;
    indentation gives the depth)."""
    rows = []
    for line in log.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            name = fields[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(fields[1])))
    micros = 0
    for i, (depth, name, cumulative) in enumerate(rows):
        if name.split(".")[0] != "scipy":
            continue
        parent = next((n for d, n, _ in rows[i + 1:] if d < depth), "")
        if parent.split(".")[0] != "scipy":
            micros += cumulative
    return micros / 1e6


def import_metrics(scale: str, env: dict) -> dict[str, float]:
    """CLI cold-start costs: the import, its scipy share, and a bare interpreter."""
    bare, cli, scipy_share = [], [], []
    for _ in range(IMPORT_REPEATS[scale]):
        bare.append(_run_python(["-c", "pass"], env)[0])
        cli.append(_run_python(["-c", "import sigpole.cli"], env)[0])
        _, log = _run_python(["-X", "importtime", "-c", "import sigpole.cli"], env)
        scipy_share.append(_scipy_import_s(log))
    return {"cli.import_s": statistics.median(cli),
            "cli.import_scipy_s": statistics.median(scipy_share),
            "cli.bare_python_s": statistics.median(bare)}


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def machine_record(args) -> dict:
    from sigpole import _accel

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "jsonschema": importlib.metadata.version("jsonschema"),
        "backend": _accel.backend_name(),
        "thread_limits": {var: os.environ[var] for var in THREAD_VARS},
    }


# -- per-layer metrics from spans -------------------------------------------------

def _total(spans, prefix: str, key: str = "self", where=lambda s: True):
    hits = [s for s in spans if s["name"].startswith(prefix) and where(s)]
    if not hits:
        return None
    if key in ("self", "duration"):
        return sum(s[key] for s in hits)
    return sum(s["attrs"][key] for s in hits)


def _ratio(num, den):
    return None if num is None or not den else num / den


def _cost(spans, names, top_only: bool = False):
    """Seconds to bring each stochastic estimate to 0.1% relative stderr:
    wall time x (relative stderr / 1e-3)^2, summed."""
    hits = [s for s in spans if s["name"] in names and s["attrs"].get("stderr")
            and (s["parent"] is None or not top_only)]
    if not hits:
        return None
    return sum(s["duration"] * (s["attrs"]["stderr"] / abs(s["attrs"]["value"]) / 1e-3) ** 2
               for s in hits)


def _command_quantile(spans, q: int):
    """The q-th percentile of CLI command wall times."""
    times = [s["duration"] for s in spans if s["name"].startswith("cli.")]
    if len(times) < 2:
        return times[0] if times else None
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1]


def _report_reuse(spans):
    """Share of refining matchings in pole reports already seen in an earlier report."""
    seen, total, reused = set(), 0, 0
    for s in spans:
        if s["name"] == "signature.candidate_pole_report":
            for p in s["attrs"]["refining"]:
                total += 1
                reused += p in seen
                seen.add(p)
    return _ratio(reused, total) if total else None


def span_metrics(spans: list[dict]) -> dict[str, float | None]:
    """Per-layer values from one set of spans; None where no span applies."""
    dmc = "quadrature.l_direct_mc"
    small = lambda s: s["attrs"]["size"] <= 16  # noqa: E731
    k5 = lambda w: lambda s: s["attrs"]["size"] == 10 and s["attrs"]["workers"] == w  # noqa: E731
    return {
        "pairings.enumerate_s": _total(spans, "pairings."),
        "pairings.matchings": _total(spans, "pairings.", "matchings"),
        "poles.census_s": _total(spans, "poles.", where=small),
        "poles.large_s": _total(spans, "poles.", where=lambda s: not small(s)),
        "poles.progressions": _total(spans, "poles.candidate_poles", "progressions",
                                     where=lambda s: s["name"] == "poles.candidate_poles"),
        "signature.pole_report_s": _total(spans, "signature.candidate_pole_report"),
        "signature.report_reuse": _report_reuse(spans),
        "signature.mean_sig_s": _total(spans, "signature.mean_iterated_integral"),
        "signature.gamma_table_s": _total(spans, "signature.gamma_table"),
        "blowup.inverse_float_s": _total(spans, "blowup.F_inverse_batch"),
        "blowup.inverse_exact_s": _total(spans, "blowup.F_inverse_exact_batch"),
        "blowup.flag_ranges_s": _total(spans, "blowup.flag_ranges"),
        "quadrature.direct_mc_s": _total(spans, dmc),
        "quadrature.direct_mc_samples_per_s": _ratio(_total(spans, dmc, "samples"),
                                                     _total(spans, dmc)),
        "quadrature.direct_mc_cost_s": _cost(spans, {dmc}),
        "quadrature.worker_scaling": _ratio(_total(spans, dmc, "duration", k5(1)),
                                            _total(spans, dmc, "duration", k5(2))),
        "quadrature.pullback_mc_s": _total(spans, "quadrature.l_pullback_mc"),
        "quadrature.pullback_accept_ratio": _ratio(
            _total(spans, "quadrature.l_pullback_mc", "accepted"),
            _total(spans, "quadrature.l_pullback_mc", "samples")),
        "quadrature.pullback_cost_s": _cost(spans, {"quadrature.l_pullback_mc"}),
        "quadrature.adaptive_s": _total(spans, "quadrature.l_adaptive"),
        "quadrature.adaptive_cells": _total(spans, "quadrature.l_adaptive", "cells"),
        "quadrature.wick_s": _total(spans, "quadrature.wick_grid_oracle"),
        "quadrature.closed_form_s": _total(spans, "quadrature.l_closed_form"),
        "mc_cost_s": _cost(spans, {dmc, "signature.mean_iterated_integral"}, top_only=True),
        "verify.quick_s": _total(spans, "verify.run_suite"),
        "cli.command_s": _total(spans, "cli."),
        "cli.cmd_p50_s": _command_quantile(spans, 50),
        "cli.cmd_p90_s": _command_quantile(spans, 90),
    }


# -- the two kinds of run ----------------------------------------------------------

def host_speed(calibration: list[tuple[float, float]], start: float, end: float) -> float:
    """CAL_REFERENCE_S over the median calibration sample taken from
    CAL_WINDOW_S before ``start`` to CAL_WINDOW_S after ``end``, or over the
    three samples nearest the interval when that window holds fewer."""
    near = [c for t, c in calibration if start - CAL_WINDOW_S <= t <= end + CAL_WINDOW_S]
    if len(near) < 3:
        mid = (start + end) / 2
        near = [c for _, c in sorted(calibration, key=lambda s: abs(s[0] - mid))[:3]]
    return CAL_REFERENCE_S / statistics.median(near)


def run_untraced(wl, args, inp) -> tuple[dict, list, dict]:
    """Closed-loop passes until --seconds have elapsed.  Every pass makes the
    same calls in the same order.  Each call's time, unless longer than
    CAL_MAX_CALL_S, is scaled to the reference host speed measured around it;
    wall_s is the sum over calls of their median scaled time over the passes."""
    _, run = wl.WORKLOADS[args.workload]
    rec = wl.Recorder()
    passes: list[list] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        mark = len(rec.calls)
        run(rec, inp)
        passes.append(rec.calls[mark:])
    rss = peak_rss_mb()
    setups = setup_times(args.workload, args.seed, args.scale)
    cal = rec.calibration
    raw_times = [[c.wall for c in calls] for calls in passes]
    scaled_times = [[c.wall if c.wall > CAL_MAX_CALL_S
                     else c.wall * host_speed(cal, c.start, c.start + c.wall) for c in calls]
                    for calls in passes]
    metrics = {
        "wall_s": sum(statistics.median(times) for times in zip(*scaled_times)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "ok_ratio": 1.0 - rec.failed / rec.attempted,
    }
    detail = {"passes": len(passes), "digests": rec.digests,
              "wall_raw_s": sum(statistics.median(times) for times in zip(*raw_times)),
              "host_speed": CAL_REFERENCE_S / statistics.median(c for _, c in cal),
              "setup_times": setups, "calibration": cal,
              "call_labels": [c.label for c in passes[0]],
              "call_times": raw_times, "call_times_scaled": scaled_times}
    return metrics, [rec], detail


def run_traced(wl, args, inp) -> tuple[dict, list, dict]:
    from tracer import Tracer

    _, run = wl.WORKLOADS[args.workload]
    plain = wl.Recorder()
    run(plain, inp)
    tracer = Tracer()
    tracer.install()
    try:
        traced = wl.Recorder(tracer)
        run(traced, inp)
        split = len(tracer.spans)
        probes = wl.Recorder(tracer)
        wl.run_probes(probes)
    finally:
        tracer.uninstall()
    records = tracer.records()
    ids = {s.id for s in tracer.spans[:split]}
    from_workload = span_metrics([r for r in records if r["id"] in ids])
    from_probes = span_metrics([r for r in records if r["id"] not in ids])
    metrics, source = {}, {}
    for name, value in from_workload.items():
        source[name] = "workload" if value is not None else "probe"
        metrics[name] = value if value is not None else from_probes[name]
    metrics.update(import_metrics(args.scale, wl.cli_env()))
    metrics["trace.overhead_s"] = traced.wall() - plain.wall()
    detail = {"untraced_wall_s": plain.wall(), "traced_wall_s": traced.wall(),
              "source": source, "spans": records}
    return metrics, [plain, traced, probes], detail


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def main_run(args) -> int:
    wl = _load_program()
    build, _ = wl.WORKLOADS[args.workload]
    inp = build(args.seed, args.scale)
    config = machine_record(args)
    print("config " + json.dumps(config, sort_keys=True), flush=True)
    runner = run_traced if args.trace else run_untraced
    values, recorders, detail = runner(wl, args, inp)
    values = {name: float(v) for name, v in values.items()}
    attempted = sum(r.attempted for r in recorders)
    failed = sum(r.failed for r in recorders)
    failures = [m for r in recorders for m in r.failures]
    units = _units("per_layer" if args.trace else "end_to_end")
    for name in sorted(values):
        print(f"{name:40s} {values[name]!r:>24} {units.get(name, '?')}")
    for name in ("wall_raw_s", "host_speed"):
        if name in detail:
            print(f"{name:40s} {detail[name]!r:>24} (record only)")
    for message in failures:
        print(f"FAILED {message}")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"config": config, "metrics": values, "attempted": attempted,
              "failed": failed, "failures": failures, **detail}
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}.json"
    path.write_text(json.dumps(record, default=str, indent=1))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units.get(name, "?")}
                    for name, v in values.items()},
    }
    print(json.dumps(result))
    return 0


def main_setup_probe(args) -> int:
    wl = _load_program()
    build, _ = wl.WORKLOADS[args.workload]
    build(args.seed, args.scale)
    print("ready", flush=True)
    return 0


def main_check() -> int:
    """Every workload at reduced size, untraced and traced: each named metric
    must be emitted once, with its unit and a finite value, and every item
    must pass its correctness check."""
    problems = []
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--scale", "check"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            tag = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: {result['failed']} of {result['attempted']} failed")
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics {got} != {want}")
            for name, m in result["metrics"].items():
                if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
                    problems.append(f"{tag}: {name} = {m['value']!r}")
            print(f"{tag}: {len(got)} metrics, {result['attempted']} attempted", flush=True)
    for p in problems:
        print(f"PROBLEM {p}")
    print("check ok" if not problems else f"check failed: {len(problems)} problems")
    return 0 if not problems else 1


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=["exact-census", "mc-estimates", "adaptive-table",
                                           "cli-commands"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "check"], default="full",
                    help="input sizes; 'check' is the reduced smoke-test size")
    ap.add_argument("--check", action="store_true",
                    help="run every workload at reduced size and validate the output")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.check and args.workload is None:
        ap.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.check:
        return main_check()
    if args.setup_probe:
        return main_setup_probe(args)
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
