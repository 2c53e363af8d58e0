"""Command-line front end.

Subcommands: poles, eval, mean-sig, gamma-table, verify.  Output is JSON by
default (csv/text where meaningful); every payload embeds the package
version, the run configuration and the provenance of each number.  Exit
codes: 0 success, 1 verification failure, 2 usage or parse error, 3 domain
error (for instance a Hurst parameter outside the convergent region).

Identical configurations (seed and worker count included) produce byte
identical output; the default seed can be overridden with SIGPOLE_SEED.
"""
from __future__ import annotations

import json
import os
import sys

import click

from . import __version__
from .blowup import BlowupChart, GapFunction
from .errors import DimensionError, DomainError, NumericError, ParseError, SizeError
from .pairings import format_position_set, parse_pairs, parse_position_set, parse_word
from .poles import candidate_poles, progression_of_set
from .quadrature import DEFAULT_SEED, STOCHASTIC_METHODS, evaluator_by_name
from .signature import (
    DEFAULT_MODE,
    NORMALIZATION_MODES,
    candidate_pole_report,
    gamma_table,
    mean_iterated_integral,
)
from .verify import available_suites, run_suite

EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _default_seed() -> int:
    env = os.environ.get("SIGPOLE_SEED")
    if env is not None:
        try:
            return int(env, 0)
        except ValueError:
            raise click.UsageError(f"SIGPOLE_SEED={env!r} is not an integer")
    return DEFAULT_SEED


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


def _evaluator_kwargs(
    method: str, samples: int, seed: int, tol: float, workers: int
) -> dict:
    if method in STOCHASTIC_METHODS:
        return {"samples": samples, "seed": seed, "workers": workers}
    if method == "adaptive":
        return {"tol": tol}
    return {}


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


def _parse_gap(qspec: str, n: int) -> GapFunction | None:
    if qspec == "3^r":
        return None  # chart default
    try:
        values = [int(tok) for tok in qspec.split(",")]
        return GapFunction(values[: n + 1])
    except (ValueError, DomainError) as exc:
        raise click.UsageError(f"bad gap function spec {qspec!r}: {exc}")


output_option = click.option(
    "--output", type=click.Choice(["json", "text"]), default="json", show_default=True
)
tol_option = click.option(
    "--tol", type=float, default=1e-8, show_default=True,
    help="adaptive stop rule: level change <= max(tol, tol*|L|), "
    "so tol is absolute when |L| < 1",
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
            ps = candidate_poles(partition)
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
@click.option("--H", "hurst", type=float, required=True)
@click.option(
    "--method",
    type=click.Choice(["adaptive", "direct-mc", "pullback-mc", "closed-form"]),
    default="adaptive",
    show_default=True,
)
@click.option("--samples", type=int, default=1_000_000, show_default=True)
@click.option("--seed", type=int, default=None, help="RNG seed (default FBM0 bytes)")
@tol_option
@click.option("--workers", type=int, default=1, show_default=True)
@click.option("--q", "qspec", default="3^r", show_default=True,
              help="gap weights for the pullback route: '3^r' or a comma list")
@output_option
def cmd_eval(
    pairs_spec, hurst, method, samples, seed, tol, workers, qspec, output
) -> None:
    """Numerically evaluate the integral attached to one pair partition."""
    try:
        partition = parse_pairs(pairs_spec)
    except ParseError as exc:
        raise click.UsageError(str(exc))
    seed = _default_seed() if seed is None else seed
    kwargs = _evaluator_kwargs(method, samples, seed, tol, workers)
    chart_info = None
    if method == "pullback-mc":
        gap = _parse_gap(qspec, partition.size)
        try:
            chart = BlowupChart(partition.size, gap)
        except (DomainError, SizeError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_DOMAIN)
        kwargs["chart"] = chart
        chart_info = chart.descriptor()
    result = _compute(evaluator_by_name(method), partition, hurst, **kwargs)
    payload = {
        "config": {
            "pairs": pairs_spec, "H": hurst, "method": method, "samples": samples,
            "seed": seed, "tol": tol, "workers": workers, "q": qspec,
        },
        "result": result.to_json_dict(),
        "provenance": _provenance([result]),
    }
    if chart_info is not None:
        payload["chart"] = chart_info
    _emit(payload, output)


@main.command("mean-sig")
@click.option("--word", "word_spec", required=True)
@click.option("--H", "hurst", type=float, required=True)
@click.option(
    "--mode",
    type=click.Choice(list(NORMALIZATION_MODES)),
    default=DEFAULT_MODE,
    show_default=True,
)
@click.option(
    "--method",
    type=click.Choice(["adaptive", "direct-mc", "pullback-mc", "closed-form"]),
    default="adaptive",
    show_default=True,
)
@click.option("--samples", type=int, default=1_000_000, show_default=True)
@click.option("--seed", type=int, default=None)
@tol_option
@click.option("--workers", type=int, default=1, show_default=True)
@output_option
def cmd_mean_sig(
    word_spec, hurst, mode, method, samples, seed, tol, workers, output
) -> None:
    """Mean iterated integral of a word (prefactor times the partition sum)."""
    try:
        word = parse_word(word_spec)
    except ParseError as exc:
        raise click.UsageError(str(exc))
    seed = _default_seed() if seed is None else seed
    kwargs = _evaluator_kwargs(method, samples, seed, tol, workers)
    result = _compute(mean_iterated_integral, word, hurst, mode, method, **kwargs)
    payload = {
        "config": {
            "word": word_spec, "H": hurst, "mode": mode, "method": method,
            "samples": samples, "seed": seed, "tol": tol, "workers": workers,
        },
        "result": result.to_json_dict(),
        "mode": mode,
        "provenance": _provenance([result]),
    }
    _emit(payload, output)


@main.command("gamma-table")
@click.option("--k", "order", type=int, required=True)
@click.option("--d", "alphabet", type=int, required=True)
@click.option("--H", "hurst", type=float, required=True)
@click.option(
    "--mode",
    type=click.Choice(list(NORMALIZATION_MODES)),
    default=DEFAULT_MODE,
    show_default=True,
)
@click.option(
    "--method",
    type=click.Choice(["adaptive", "direct-mc", "closed-form"]),
    default="adaptive",
    show_default=True,
)
@click.option("--samples", type=int, default=1_000_000, show_default=True)
@click.option("--seed", type=int, default=None)
@tol_option
@click.option("--workers", type=int, default=1, show_default=True)
@click.option(
    "--output", type=click.Choice(["json", "csv"]), default="json", show_default=True
)
def cmd_gamma_table(
    order, alphabet, hurst, mode, method, samples, seed, tol, workers, output
) -> None:
    """Coefficient table over all words of length 2k on d letters."""
    seed = _default_seed() if seed is None else seed
    kwargs = _evaluator_kwargs(method, samples, seed, tol, workers)
    table = _compute(gamma_table, order, alphabet, hurst, mode, method, **kwargs)
    if output == "csv":
        click.echo(table.to_csv(), nl=False)
        return
    payload = {
        "config": {
            "k": order, "d": alphabet, "H": hurst, "mode": mode, "method": method,
            "samples": samples, "seed": seed, "tol": tol, "workers": workers,
        },
        "table": table.to_json_dict(),
        "provenance": _provenance(table.entries.values()),
    }
    _emit(payload, "json")


@main.command("verify")
@click.argument("suite", default="all")
@click.option("--quick", is_flag=True, help="reduced sizes for a fast pass")
@output_option
def cmd_verify(suite, quick, output) -> None:
    """Run a module's invariant suite (or all of them)."""
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
