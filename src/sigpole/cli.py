"""Command-line front end.

Subcommands: poles, eval, mean-sig, gamma-table, verify.  Output is JSON by
default (csv/text where meaningful); every payload embeds the package
version, the run configuration and the provenance of each number.  Exit
codes: 0 success, 1 verification failure, 2 usage or parse error, 3 domain
error (for instance a Hurst parameter outside the convergent region).

eval, mean-sig and gamma-table share one option set (--H, --method,
--samples, --seed, --tol, --workers) and one runner.  The seed is --seed,
else SIGPOLE_SEED, else the FBM0 default; a stochastic route gets the
samples, seed and workers, adaptive gets tol.  Identical configurations (seed
and worker count included) produce byte identical output.
"""
from __future__ import annotations

import json
import os
import sys

import click

from . import __version__
from .errors import DimensionError, DomainError, NumericError, ParseError, SizeError
from .pairings import format_position_set, parse_pairs, parse_position_set, parse_word
from .poles import candidate_poles, progression_of_set
from .quadrature import DEFAULT_SEED, ROUTES, STOCHASTIC_METHODS
from .signature import (
    DEFAULT_MODE,
    NORMALIZATION_MODES,
    candidate_pole_report,
    gamma_table,
    mean_iterated_integral,
)

EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _emit(payload: dict, output: str) -> None:
    payload = {"version": __version__, **payload}
    if output == "json":
        try:
            text = json.dumps(payload, sort_keys=True, allow_nan=False)
        except ValueError:  # NaN or an infinity somewhere in the payload
            click.echo("error: result is not a finite number", err=True)
            sys.exit(EXIT_DOMAIN)
        click.echo(text)
    elif output == "text":
        for key, value in payload.items():
            click.echo(f"{key}: {value}")
    else:
        raise click.UsageError(f"unsupported output format {output!r}")


def _compute(fn, *args, **kwargs):
    """fn(*args, **kwargs), exiting with EXIT_DOMAIN on a domain, size or
    numeric error."""
    try:
        return fn(*args, **kwargs)
    except (DomainError, SizeError, NumericError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_DOMAIN)


def _provenance(results) -> str:
    stochastic = any(r.stderr is not None for r in results)
    return "stochastic" if stochastic else "deterministic"


def _parse(parse, spec: str):
    try:
        return parse(spec)
    except ParseError as exc:
        raise click.UsageError(str(exc))


def _evaluate(fn, args, config, method, samples, seed, tol, workers):
    """fn(*args, **route kwargs) through _compute, with the run
    configuration: config followed by the shared route options."""
    if seed is None:
        env = os.environ.get("SIGPOLE_SEED")
        try:
            seed = DEFAULT_SEED if env is None else int(env, 0)
        except ValueError:
            raise click.UsageError(f"SIGPOLE_SEED={env!r} is not an integer")
    if method in STOCHASTIC_METHODS:
        kwargs = {"samples": samples, "seed": seed, "workers": workers}
    else:
        kwargs = {"tol": tol} if method == "adaptive" else {}
    result = _compute(fn, *args, **kwargs)
    config = {**config, "method": method, "samples": samples, "seed": seed,
              "tol": tol, "workers": workers}
    return result, config


def route_options(methods):
    """The options of eval, mean-sig and gamma-table, declared once."""
    options = [
        click.option("--H", "hurst", type=float, required=True),
        click.option("--method", type=click.Choice(methods), default="adaptive",
                     show_default=True),
        click.option("--samples", type=int, default=1_000_000, show_default=True),
        click.option("--seed", type=int, default=None,
                     help="RNG seed (default SIGPOLE_SEED, else FBM0 bytes)"),
        click.option("--tol", type=float, default=1e-8, show_default=True,
                     help="adaptive stop rule: level change <= max(tol, tol*|L|) "
                     "or the rounding bound, so tol is absolute when |L| < 1"),
        click.option("--workers", type=int, default=1, show_default=True),
    ]

    def decorate(f):
        for option in reversed(options):
            f = option(f)
        return f

    return decorate


output_option = click.option(
    "--output", type=click.Choice(["json", "text"]), default="json", show_default=True
)
mode_option = click.option(
    "--mode", type=click.Choice(NORMALIZATION_MODES), default=DEFAULT_MODE,
    show_default=True,
)


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Candidate pole sets and numeric evaluation for pair-partition
    simplex integrals."""


@main.command("poles")
@click.option("--pairs", "pairs_spec", default=None, help="pair partition, e.g. '1-2,3-4'")
@click.option("--word", "word_spec", default=None, help="word, e.g. '1,2,1,2'")
@click.option("--set", "set_spec", default=None, help="position set, e.g. '2-8,10-11'")
@output_option
def cmd_poles(pairs_spec, word_spec, set_spec, output) -> None:
    """Exact candidate pole report for a partition or a word.

    With --set (and --pairs), reports the single progression contributed by
    that position set.  Rationals print as p/q, never as floats.
    """
    if (pairs_spec is None) == (word_spec is None):
        raise click.UsageError("give exactly one of --pairs or --word")
    if set_spec is not None and pairs_spec is None:
        raise click.UsageError("--set needs --pairs")
    try:
        if pairs_spec is not None:
            partition = parse_pairs(pairs_spec)
            if set_spec is not None:
                s = parse_position_set(set_spec)
                pr = progression_of_set(partition, s)
                payload = {
                    "config": {"pairs": pairs_spec, "set": set_spec},
                    "set": format_position_set(s),
                    "set_size": len(s),
                    "progression": None if pr is None else pr.as_record(),
                    "note": "zero bracket count" if pr is None else None,
                }
                _emit(payload, output)
                return
            # a partition of more than 128 positions exits 3
            ps = _compute(candidate_poles, partition)
            payload = {
                "config": {"pairs": pairs_spec},
                "progressions": ps.as_records(),
                "contributions": ps.contribution_records(),
                "max_offset": None if ps.max_offset is None else str(ps.max_offset),
                "provenance": "exact-rational",
            }
            _emit(payload, output)
            return
        word = parse_word(word_spec)
        # a word with more refining matchings than are enumerated exits 3
        report = _compute(candidate_pole_report, word)
        payload = {
            "config": {"word": word_spec},
            "refining_partitions": report["refining_count"],
            "progressions": report["union"].as_records(),
            "contributions": report["contributions"],
            "note": report["note"],
            "provenance": "exact-rational",
        }
        _emit(payload, output)
    except (ParseError, DimensionError) as exc:
        raise click.UsageError(str(exc))


@main.command("eval")
@click.option("--pairs", "pairs_spec", required=True)
@route_options(list(ROUTES))
@output_option
def cmd_eval(pairs_spec, hurst, method, output, **route) -> None:
    """Numerically evaluate the integral attached to one pair partition."""
    partition = _parse(parse_pairs, pairs_spec)
    result, config = _evaluate(ROUTES[method], (partition, hurst),
                               {"pairs": pairs_spec, "H": hurst}, method, **route)
    _emit({"config": config, "result": result.to_json_dict(),
           "provenance": _provenance([result])}, output)


@main.command("mean-sig")
@click.option("--word", "word_spec", required=True)
@mode_option
@route_options(list(ROUTES))
@output_option
def cmd_mean_sig(word_spec, hurst, mode, method, output, **route) -> None:
    """Mean iterated integral of a word (prefactor times the partition sum)."""
    word = _parse(parse_word, word_spec)
    result, config = _evaluate(mean_iterated_integral, (word, hurst, mode, method),
                               {"word": word_spec, "H": hurst, "mode": mode},
                               method, **route)
    _emit({"config": config, "result": result.to_json_dict(), "mode": mode,
           "provenance": _provenance([result])}, output)


@main.command("gamma-table")
@click.option("--k", "order", type=int, required=True)
@click.option("--d", "alphabet", type=int, required=True)
@mode_option
@route_options([m for m in ROUTES if m != "pullback-mc"])
@click.option(
    "--output", type=click.Choice(["json", "csv"]), default="json", show_default=True
)
def cmd_gamma_table(order, alphabet, hurst, mode, method, output, **route) -> None:
    """Coefficient table over all words of length 2k on d letters."""
    table, config = _evaluate(gamma_table, (order, alphabet, hurst, mode, method),
                              {"k": order, "d": alphabet, "H": hurst, "mode": mode},
                              method, **route)
    if output == "csv":
        click.echo(table.to_csv(), nl=False)
        return
    _emit({"config": config, "table": table.to_json_dict(),
           "provenance": _provenance(table.entries.values())}, "json")


@main.command("verify")
@click.argument("suite", default="all")
@click.option("--quick", is_flag=True, help="reduced sizes for a fast pass")
@output_option
def cmd_verify(suite, quick, output) -> None:
    """Run a module's invariant suite (or all of them)."""
    from .verify import available_suites, run_suite

    if suite not in available_suites():
        raise click.UsageError(
            f"unknown suite {suite!r}; choose from {available_suites()}"
        )
    results = run_suite(suite, quick=quick)
    failed = [r for r in results if not r.ok]
    if output == "json":
        payload = {
            "config": {"suite": suite, "quick": quick},
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
            click.echo(f"[{'PASS' if r.ok else 'FAIL'}] {r.suite}.{r.name}: {r.detail}")
        click.echo(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        sys.exit(EXIT_VERIFY_FAILED)


if __name__ == "__main__":
    main()
