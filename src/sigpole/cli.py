"""Command-line front end, on argparse from the standard library.

Subcommands: poles, eval, mean-sig, gamma-table, verify; ``sigpole <command>
--help`` lists the options of each.  Output is JSON by default (csv/text
where meaningful); every payload embeds the package version, the run
configuration and the provenance of each number.  Exit codes: 0 success, 1
verification failure, 2 usage or parse error, 3 domain error (for instance a
Hurst parameter outside the convergent region).  No option name may be
abbreviated, and a number after an option name is its value even when it
starts with "-" (``--tol -1e-3``).

eval, mean-sig and gamma-table share one option set (--H, --method,
--samples, --seed, --tol, --workers) and one runner.  The seed is --seed,
else SIGPOLE_SEED, else the FBM0 default; every integer option and
SIGPOLE_SEED read by ``integer``.  Every payload echoes all four, so
``check_route_args`` checks them for every method; a route gets those its
keyword-only parameters name.  Identical configurations (seed and worker
count included) produce byte identical output.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import DimensionError, DomainError, NumericError, ParseError, SizeError
from .pairings import (
    format_position_set,
    parse_decimal,
    parse_pairs,
    parse_position_set,
    parse_word,
)
from .poles import candidate_poles, progression_of_set
from .quadrature import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    DEFAULT_TOL,
    MAX_SAMPLES,
    MAX_WORKERS,
    ROUTES,
    check_route_args,
)
from .signature import (
    DEFAULT_MODE,
    NORMALIZATION_MODES,
    candidate_pole_report,
    gamma_table,
    mean_iterated_integral,
)

EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 3

_SHOW_DEFAULT = "default: %(default)s"


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(EXIT_DOMAIN)


def integer(text: str) -> int:
    """An integer option or SIGPOLE_SEED: surrounding whitespace allowed, one
    optional leading "-", then ASCII digits, as the spec parsers read
    numbers; "1_0", "+1" and other scripts' digits raise ValueError."""
    text = text.strip()
    if text.startswith("-"):
        return -parse_decimal(text[1:])
    return parse_decimal(text)


def _emit(payload: dict, output: str) -> None:
    payload = {"version": __version__, **payload}
    if output == "text":
        for key, value in payload.items():
            print(f"{key}: {value}")
        return
    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError:  # NaN or an infinity somewhere in the payload
        _fail("result is not a finite number")
    print(text)


def _compute(fn, *args, **kwargs):
    """fn(*args, **kwargs), exiting with EXIT_DOMAIN on a domain, size or
    numeric error."""
    try:
        return fn(*args, **kwargs)
    except (DomainError, SizeError, NumericError) as exc:
        _fail(str(exc))


def _provenance(results) -> str:
    stochastic = any(r.stderr is not None for r in results)
    return "stochastic" if stochastic else "deterministic"


def _evaluate(fn, inputs, config, args):
    """fn(*inputs, **route kwargs) through _compute, with the run
    configuration: config followed by the shared route options."""
    seed = args.seed
    if seed is None:
        env = os.environ.get("SIGPOLE_SEED")
        try:
            seed = DEFAULT_SEED if env is None else integer(env)
        except ValueError:
            args.parser.error(f"SIGPOLE_SEED={env!r} is not an integer")
    options = {"samples": args.samples, "seed": seed, "tol": args.tol, "workers": args.workers}
    _compute(check_route_args, args.hurst, **options)
    route = ROUTES[args.method].__kwdefaults__ or {}
    result = _compute(fn, *inputs, **{key: v for key, v in options.items() if key in route})
    return result, {**config, "method": args.method, **options}


def cmd_poles(args) -> None:
    """Exact candidate pole report for a partition or a word.

    With --set (and --pairs), reports the single progression contributed by
    that position set.  Rationals print as p/q, never as floats.
    """
    if args.word is not None:
        if args.set is not None:
            args.parser.error("--set needs --pairs")
        # a word with more refining matchings than are enumerated exits 3
        report = _compute(candidate_pole_report, parse_word(args.word))
        payload = {
            "config": {"word": args.word},
            "refining_partitions": report["refining_count"],
            "progressions": report["union"].as_records(),
            "contributions": report["contributions"],
            "note": report["note"],
            "provenance": "exact-rational",
        }
    elif args.set is not None:
        partition = parse_pairs(args.pairs)
        s = parse_position_set(args.set)
        pr = progression_of_set(partition, s)
        payload = {
            "config": {"pairs": args.pairs, "set": args.set},
            "set": format_position_set(s),
            "set_size": len(s),
            "progression": None if pr is None else pr.as_record(),
            "note": "zero bracket count" if pr is None else None,
        }
    else:
        # a partition of more than 128 positions exits 3
        ps = _compute(candidate_poles, parse_pairs(args.pairs))
        payload = {
            "config": {"pairs": args.pairs},
            "progressions": ps.as_records(),
            "contributions": ps.contribution_records(),
            "max_offset": None if ps.max_offset is None else str(ps.max_offset),
            "provenance": "exact-rational",
        }
    _emit(payload, args.output)


def cmd_eval(args) -> None:
    """Numerically evaluate the integral attached to one pair partition."""
    result, config = _evaluate(ROUTES[args.method], (parse_pairs(args.pairs), args.hurst),
                               {"pairs": args.pairs, "H": args.hurst}, args)
    _emit({"config": config, "result": result.to_json_dict(),
           "provenance": _provenance([result])}, args.output)


def cmd_mean_sig(args) -> None:
    """Mean iterated integral of a word (prefactor times the partition sum), 1/2 < H <= 1."""
    word = parse_word(args.word)
    result, config = _evaluate(mean_iterated_integral,
                               (word, args.hurst, args.mode, args.method),
                               {"word": args.word, "H": args.hurst, "mode": args.mode},
                               args)
    _emit({"config": config, "result": result.to_json_dict(), "mode": args.mode,
           "provenance": _provenance([result])}, args.output)


def cmd_gamma_table(args) -> None:
    """Coefficient table over all words of length 2k on d letters, 1/2 < H <= 1."""
    table, config = _evaluate(gamma_table, (args.k, args.d, args.hurst, args.mode, args.method),
                              {"k": args.k, "d": args.d, "H": args.hurst, "mode": args.mode},
                              args)
    if args.output == "csv":
        print(table.to_csv(), end="")
        return
    _emit({"config": config, "table": table.to_json_dict(),
           "provenance": _provenance(table.entries.values())}, "json")


def cmd_verify(args) -> None:
    """Run a module's invariant suite (or all of them)."""
    from .verify import available_suites, run_suite

    if args.suite not in available_suites():
        args.parser.error(f"unknown suite {args.suite!r}; choose from {available_suites()}")
    results = run_suite(args.suite, quick=args.quick)
    failed = [r for r in results if not r.ok]
    if args.output == "json":
        payload = {
            "config": {"suite": args.suite, "quick": args.quick},
            "checks": [
                {"suite": r.suite, "name": r.name, "ok": r.ok, "detail": r.detail}
                for r in results
            ],
            "passed": len(results) - len(failed),
            "failed": len(failed),
        }
        _emit(payload, "json")
    else:
        for r in results:
            print(f"[{'PASS' if r.ok else 'FAIL'}] {r.suite}.{r.name}: {r.detail}")
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        sys.exit(EXIT_VERIFY_FAILED)


def add_route_options(parser: argparse.ArgumentParser, methods: list[str]) -> None:
    """The options of eval, mean-sig and gamma-table, declared once."""
    parser.add_argument("--H", dest="hurst", type=float, required=True)
    parser.add_argument("--method", choices=methods, default="adaptive", help=_SHOW_DEFAULT)
    parser.add_argument("--samples", type=integer, default=DEFAULT_SAMPLES,
                        help=f"2 to {MAX_SAMPLES} (2^28), exit 3 otherwise; " + _SHOW_DEFAULT)
    parser.add_argument("--seed", type=integer,
                        help="RNG seed (default SIGPOLE_SEED, else FBM0 bytes)")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="0 <= tol < inf, exit 3 otherwise; stop rule: level "
                        "change <= max(tol, tol*|L|) or the rounding bound, so tol is "
                        "absolute when |L| < 1; " + _SHOW_DEFAULT)
    parser.add_argument("--workers", type=integer, default=1,
                        help=f"1 to --samples and at most {MAX_WORKERS} (2^10) seed streams, "
                        "exit 3 otherwise; " + _SHOW_DEFAULT)


def build_parser() -> argparse.ArgumentParser:
    """The parser of the five commands; each sets ``run`` to its command
    function and ``parser`` to its own parser, for usage errors."""
    parser = argparse.ArgumentParser(
        prog="sigpole", allow_abbrev=False,
        description="Candidate pole sets and numeric evaluation for pair-partition "
        "simplex integrals.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(title="commands", dest="command", required=True)

    def command(name, run, outputs=("json", "text")) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, allow_abbrev=False, help=run.__doc__.splitlines()[0],
                                  description=run.__doc__)
        sub.set_defaults(run=run, parser=sub)
        sub.add_argument("--output", choices=outputs, default="json", help=_SHOW_DEFAULT)
        return sub

    poles = command("poles", cmd_poles)
    source = poles.add_mutually_exclusive_group(required=True)
    source.add_argument("--pairs", help="pair partition, e.g. '1-2,3-4'")
    source.add_argument("--word", help="word, e.g. '1,2,1,2'")
    poles.add_argument("--set", help="position set, e.g. '2-8,10-11'")

    evaluate = command("eval", cmd_eval)
    evaluate.add_argument("--pairs", required=True)
    add_route_options(evaluate, list(ROUTES))

    mean_sig = command("mean-sig", cmd_mean_sig)
    mean_sig.add_argument("--word", required=True)
    add_route_options(mean_sig, list(ROUTES))

    table = command("gamma-table", cmd_gamma_table, outputs=("json", "csv"))
    table.add_argument("--k", type=integer, required=True)
    table.add_argument("--d", type=integer, required=True)
    add_route_options(table, [m for m in ROUTES if m != "pullback-mc"])

    for sub in (mean_sig, table):
        sub.add_argument("--mode", choices=NORMALIZATION_MODES, default=DEFAULT_MODE,
                         help=_SHOW_DEFAULT)

    verify = command("verify", cmd_verify)
    verify.add_argument("suite", nargs="?", default="all")
    verify.add_argument("--quick", action="store_true", help="reduced sizes for a fast pass")
    return parser


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _attach_numbers(argv: list[str]) -> list[str]:
    """argv with each number that starts with "-" attached to the option
    name before it, ``--tol -1e-3`` as ``--tol=-1e-3``: argparse takes a
    token such as -1e-3 or -inf for an option name, not a value."""
    out: list[str] = []
    for arg in argv:
        if (arg.startswith("-") and _is_number(arg) and out and out[-1].startswith("--")
                and "=" not in out[-1]):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> None:
    """Run the command in argv (default ``sys.argv[1:]``)."""
    args = build_parser().parse_args(_attach_numbers(sys.argv[1:] if argv is None else argv))
    try:
        args.run(args)
    except (ParseError, DimensionError) as exc:
        args.parser.error(str(exc))


if __name__ == "__main__":
    main()
