"""Numeric evaluation of the pair-partition simplex integrals.

Four routes are provided and cross-checked against each other:

- ``l_direct_mc``: sorted-uniform Monte Carlo on the increasing simplex,
  sorted by a Batcher merge network in cache-sized batches and reduced to
  the moments of fixed blocks of samples, with an exact finite-variance
  flag (H > 3/4);
- ``l_pullback_mc``: rejection sampling of the blown-up domain, averaging the
  pulled-back integrand (a working check of the change of variables), with
  the proposals evaluated in row chunks;
- ``l_closed_form``: the exact gamma product of a non-crossing P, from the
  factorization over the nesting forest of P's crossing components;
- ``l_adaptive``: that product times each crossing component of up to 5
  pairs as a signed sum of gamma-product terms; only a term whose
  intervals cross runs nested double-exponential quadrature, with level
  doubling, on a grid of at most 4 dimensions.

The exact side of the last two, the factorization, the term sums and their
gamma arguments, is ``gammaterms``; this module keeps the grids, the level
loop and the rounding bounds.

``ROUTES`` maps the route names ``adaptive``, ``direct-mc``, ``pullback-mc``
and ``closed-form`` to these functions; it is the only place a name is
resolved.

``wick_grid_oracle`` is the independent deterministic oracle for mean
iterated integrals: a Riemann sum over strictly increasing grid indices of
pair-covariance products of fractional Gaussian increments.  Their
covariance depends on the lag alone, and a pair closed right after an open
is summed out by one BLAS matrix product.  It shares no evaluation logic
with the routes above.

All stochastic estimators split their sample budget over workers with seeds
``SeedSequence(entropy=seed, spawn_key=(w,))`` and reduce in worker order,
so results are reproducible for a fixed (seed, workers) pair.  ``workers``
picks only that stream layout, not the parallelism: ``l_direct_mc`` runs its
batches on threads, one per CPU in the process's affinity set and at most
one per batch, and its output is identical for any thread count.
``l_pullback_mc`` runs in the calling thread.  Direct MC keeps three floats
per block of 2^10 samples and pullback no array beyond its draw batch, so
neither keeps a value per sample; both report Kish's effective sample size
``extra["ess"]`` = (sum w)^2 / sum w^2 of their per-sample weights.

Only the functions that build arrays import numpy, each where it runs: the
two Monte Carlo routes and their sort network, the double-exponential grid
of a crossing term, the Wick oracle, ``FbmCovariance`` and
``worker_seeds``; ``l_pullback_mc`` alone imports ``blowup``.  The gamma
product of a non-crossing matching and the terms whose intervals nest are
pure ``math`` in ``gammaterms``, so the CLI commands that need no array
start without loading numpy.
"""
from __future__ import annotations

import math
import numbers
import os
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import DimensionError, DomainError, NumericError, SizeError
from .gammaterms import crossing_terms, factorize, gamma_product, grid_exponents
from .pairings import PairPartition, Word, enumerate_refining, format_pairs

if TYPE_CHECKING:
    import numpy as np

    from .blowup import BlowupChart

__all__ = [
    "DEFAULT_SAMPLES",
    "DEFAULT_SEED",
    "DEFAULT_TOL",
    "ROUTES",
    "EvalResult",
    "FbmCovariance",
    "worker_seeds",
    "l_direct_mc",
    "l_pullback_mc",
    "l_adaptive",
    "l_closed_form",
    "wick_grid_oracle",
]

# default RNG seed: the bytes "FBM0" read as a big-endian integer
DEFAULT_SEED = int.from_bytes(b"FBM0", "big")

STOCHASTIC_METHODS = frozenset({"direct-mc", "pullback-mc"})
DETERMINISTIC_METHODS = frozenset({"adaptive", "closed-form", "wick-grid"})
# default sample count of the Monte Carlo routes and tolerance of l_adaptive
DEFAULT_SAMPLES = 1_000_000
DEFAULT_TOL = 1e-8
# most samples per Monte Carlo call, a bound on the run time of one call:
# direct MC takes about 3 s at 2k = 2 and 12 s at 2k = 10 for 2^28 samples
# on one core, and keeps 24 B per 2^10 samples, 6 MB at the cap
MAX_SAMPLES = 1 << 28
# most worker streams per call: each stream has a fixed setup cost whatever
# its size, and every stream's SeedSequence is built before the first draw
MAX_WORKERS = 1 << 10
_MC_BATCH = 1 << 18
# direct-MC rows per batch, so the (n, batch) working set stays in cache,
# and pullback rows per evaluation chunk, so its temporaries stay bounded
_DIRECT_BATCH = 1 << 13
_GRID_CHUNK = 1 << 19  # grid nodes per slab, and at least one last-axis slice
# largest Wick oracle array, 128 MiB of float64; a contraction over a pair
# axis that is not the last makes tensordot copy the state transposed, so the
# old state, the copy and the result peak at three such arrays, 384 MiB
_WICK_MAX_ENTRIES = 1 << 24


@dataclass(frozen=True)
class EvalResult:
    """A numeric value with method tag and its uncertainty bookkeeping.

    Stochastic methods carry ``stderr``, ``samples`` and ``seed``;
    deterministic methods carry ``tol`` and ``cells``.  The result rule: a
    value that is not finite, or whose error (``stderr`` or ``tol``) is not
    below |value|, raises NumericError, unless ``extra["exact_zero"]`` marks 0 ± 0.
    """

    value: float
    method: str
    stderr: float | None = None
    tol: float | None = None
    samples: int | None = None
    cells: int | None = None
    seed: int | None = None
    h: float | None = None
    partition: str | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.method in STOCHASTIC_METHODS:
            if self.stderr is None or self.samples is None:
                raise DomainError(f"{self.method} results need stderr and samples")
        elif self.method in DETERMINISTIC_METHODS:
            if self.tol is None:
                raise DomainError(f"{self.method} results need a tolerance")
        else:
            raise DomainError(f"unknown method {self.method!r}")
        # L(P; H) > 0 for H > 1/2, and a word's value is a positive prefactor
        # times a sum of them: an error of at least |value| leaves no digit
        name = "stderr" if self.method in STOCHASTIC_METHODS else "tol"
        error = getattr(self, name)
        if not (0 <= error < abs(self.value) < math.inf
                or self.extra.get("exact_zero") and self.value == error == 0):
            raise NumericError(f"no correct digit at H={self.h}: {self.method} gave "
                               f"{self.value:.6g} with {name} {error:.3g}",
                               best=self.value, **{name: error})

    def to_json_dict(self) -> dict:
        out: dict = {"value": _json_value(self.value), "method": self.method}
        if self.method in STOCHASTIC_METHODS:
            out["stderr"] = self.stderr
            out["samples"] = self.samples
            out["seed"] = self.seed
        else:
            out["tol"] = self.tol
            out["cells"] = self.cells
        if self.h is not None:
            out["H"] = self.h
        if self.partition is not None:
            out["partition"] = self.partition
        if self.extra:
            out["extra"] = {k: _json_value(v) for k, v in sorted(self.extra.items())}
        return out


def _json_value(v):
    # a numpy scalar exists only once numpy is loaded
    np = sys.modules.get("numpy")
    if np is not None and isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


@dataclass(frozen=True)
class FbmCovariance:
    """Fractional Brownian covariance (s^2H + t^2H - |s-t|^2H) / 2."""

    h: float

    def __post_init__(self) -> None:
        if not 0 < self.h <= 1:
            raise DomainError(f"Hurst parameter must lie in (0, 1], got {self.h}")

    def cov(self, s, t):
        h2 = 2 * self.h
        return 0.5 * (abs(s) ** h2 + abs(t) ** h2 - abs(s - t) ** h2)

    def increment_cov(self, m: int) -> np.ndarray:
        """Covariance matrix of the m unit-grid increments on [0, 1].

        The increments are stationary, so entry (i, j) depends on the lag
        d = |i - j| alone: r(d) = (|d+1|^2H - 2|d|^2H + |d-1|^2H) / (2 m^2H).
        That takes m + 2 powers, and at H = 1 every entry is exactly 1/m^2.
        """
        import numpy as np

        p = np.abs(np.arange(-1, m + 1)) ** (2 * self.h)  # |d|^2H, d = -1..m
        r = (p[2:] - 2 * p[1:-1] + p[:-2]) / (2 * m ** (2 * self.h))
        i = np.arange(m)
        return r[np.abs(i[:, None] - i)]


def worker_seeds(seed: int, workers: int) -> list[np.random.SeedSequence]:
    """Per-worker seed sequences: SeedSequence(entropy=seed, spawn_key=(w,))."""
    import numpy as np

    return [
        np.random.SeedSequence(entropy=seed, spawn_key=(w,)) for w in range(workers)
    ]


def _worker_counts(samples: int, workers: int) -> list[int]:
    base, rem = divmod(samples, workers)
    return [base + (1 if w < rem else 0) for w in range(workers)]


def _effective_samples(samples: int, mean: float, var: float) -> float:
    """Kish's effective sample size (sum w)^2 / sum w^2 of nonnegative
    weights, from their mean and variance (ddof 0): sum w^2 is
    samples * (var + mean^2), so it is samples / (1 + var / mean^2), which
    no overflow of sum w^2 can turn into NaN.  0 when every weight is 0.
    """
    if mean == 0:
        return 0.0
    cv = math.sqrt(var) / mean
    return samples / (1 + cv * cv)


def _merge_network(n: int) -> list[tuple[int, int]]:
    """Batcher's odd-even merge sort on n wires, as (low, high) comparators.

    The network for the next power of two is pruned to the first n wires:
    padding wires would hold +inf, so no comparator touching one moves a
    value.
    """
    size = 1
    while size < n:
        size *= 2
    net = []
    p = 1
    while p < size:
        k = p
        while k >= 1:
            for j in range(k % p, size - k, 2 * k):
                for i in range(min(k, size - j - k)):
                    lo, hi = i + j, i + j + k
                    if lo // (2 * p) == hi // (2 * p) and hi < n:
                        net.append((lo, hi))
            k //= 2
        p *= 2
    return net


def _sorted_rows(
    cols: np.ndarray, network: list[tuple[int, int]], spare: np.ndarray
) -> list[np.ndarray]:
    """Sort each column of ``cols`` by the comparator ``network``.

    Returns the rows in increasing order; they are the rows of ``cols`` and
    ``spare`` (a scratch row of the same length), permuted.  Min and max
    move values without arithmetic, so the result is exactly the sorted
    columns.
    """
    import numpy as np

    rows = list(cols)
    for i, j in network:
        np.minimum(rows[i], rows[j], out=spare)
        np.maximum(rows[i], rows[j], out=rows[j])
        rows[i], spare = spare, rows[i]
    return rows


def check_route_args(h: float, *, tol: float = DEFAULT_TOL,
                     samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED,
                     workers: int = 1) -> None:
    """Every argument rule of the numeric routes, stated once for every
    method and run first by the routes, the Wick oracle, the word layer and
    the CLI: real H and tol, integer samples, seed and workers (a bool is
    neither); a finite H > 1/2, where L(P; H) converges; 0 <= tol < inf;
    2 <= samples <= ``MAX_SAMPLES`` = 2^28 (one sample has no error
    estimate) and 1 <= workers <= min(samples, ``MAX_WORKERS`` = 2^10), both
    SizeError; a nonnegative seed.  The rest raise DomainError, and the CLI exits 3 on either.  A
    route passes the options it reads; for the others its defaults pass.
    """
    for name, value in (("H", h), ("tol", tol)):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise DomainError(f"{name} must be a real number, got {name}={value!r}")
    if not (h > 0.5 and math.isfinite(h)):
        raise DomainError(
            f"H={h} is outside convergent region (need finite H > 1/2); "
            "use poles for the continuation"
        )
    if not 0 <= tol < math.inf:  # NaN fails too
        raise DomainError(f"tolerance must be a nonnegative number below inf, got tol={tol}")
    for name, value in (("samples", samples), ("seed", seed), ("workers", workers)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DomainError(f"{name} must be an integer, got {name}={value!r}")
    if not 2 <= samples <= MAX_SAMPLES:
        raise SizeError(f"{samples} samples refused: need 2 to {MAX_SAMPLES} per call")
    if not 1 <= workers <= min(samples, MAX_WORKERS):
        raise SizeError(f"{workers} workers refused for {samples} samples: "
                        f"need 1 to the samples, at most {MAX_WORKERS}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")


def _thread_count() -> int:
    """The CPUs this process may run on: its affinity set, else cpu_count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def l_direct_mc(
    partition: PairPartition,
    h: float,
    *,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> EvalResult:
    """Monte Carlo estimate of the pair-partition integral for H > 1/2.

    Uniform points on the cube are sorted into the increasing simplex
    (sampling density (2k)!), so the estimator is the sample mean of the
    integrand divided by (2k)!.  Points are drawn in C order in fixed-size
    batches and sorted by a Batcher merge network on column rows; the batch
    size changes no sample.  Each batch is cut, from its start, into blocks
    of 2^10 samples, and each block is reduced to its sum and its sum of
    squared deviations from its own mean.  The blocks are combined once at
    the end (Chan's pairwise update), so memory holds three floats per
    block, not one per sample.  With a batch size that is a multiple of
    2^10, as ``_DIRECT_BATCH`` is, the blocks are cut from the start of each
    worker stream, and the batch size changes no output bit.  The integrand
    has integrable spikes where paired coordinates collide.  Its square is
    the same integrand at H' = 2H - 1, so the variance is finite exactly
    when H > 3/4, for every matching; ``extra["finite_variance"]`` reports
    this, and below it the plain standard error is not a reliable error.
    ``extra["ess"]``, the effective sample size, falls toward 1 as a few
    samples carry the mass.

    The batches are cut into contiguous shares, as many as the CPUs in the
    process's affinity set and at most one per batch.  The calling thread
    runs the first share and one started thread each of the others, so a
    single batch or a single CPU starts no thread.  Each share starts each
    worker stream it meets by advancing that stream's PCG64 state to its
    first batch, so every sample, and every output bit, is the same for any
    thread count.  ``workers`` picks only the stream layout.
    """
    check_route_args(h, samples=samples, seed=seed, workers=workers)
    import numpy as np

    n = partition.size
    pairs = [(a - 1, b - 1) for a, b in partition.pairs]
    network = _merge_network(n)
    alpha = 2 * h - 2
    batch = min(_DIRECT_BATCH, samples)
    # the moments are kept per block of 2^10 samples, cut from the start of
    # each batch; the last block of a batch may be shorter
    block = 1 << 10
    # every batch of every worker's stream: (seed, index in the stream, index
    # of its first block, rows), in the order of the serial loop
    batches = []
    blocks = 0
    for seq, count in zip(worker_seeds(seed, workers), _worker_counts(samples, workers)):
        for i, first in enumerate(range(0, count, batch)):
            b = min(batch, count - first)
            batches.append((seq, i, blocks, b))
            blocks += -(-b // block)
    threads = min(_thread_count(), len(batches))
    # one scratch set per thread, owned by it for the call; allocated here,
    # since allocations in the threads would grow per-thread malloc arenas
    scratch = [
        (np.empty((batch, n)), np.empty((n, batch)), np.empty(batch), np.empty(batch),
         np.empty(batch))
        for _ in range(threads)
    ]
    # per block: the sum of its values, the sum of their squared deviations
    # from the block mean, and its size
    sums, m2s, counts = np.empty(blocks), np.empty(blocks), np.empty(blocks)

    errors: list[BaseException] = []

    def run(share, buffers) -> None:
        """Fill the block moments of a contiguous run of batches; an error is
        kept for the caller, which raises the first once every thread has ended."""
        try:
            draws, cols, spare, diff, row = buffers
            stream = None
            for seq, i, at, b in share:
                if seq is not stream:
                    # PCG64 spends one 64-bit step per double, so the advanced
                    # generator's first draw is the one the serial loop makes here
                    stream = seq
                    rng = np.random.Generator(np.random.PCG64(seq))
                    rng.bit_generator.advance(i * batch * n)
                u = rng.random((b, n), out=draws[:b])
                np.copyto(cols[:, :b], u.T)
                rows = _sorted_rows(cols[:, :b], network, spare[:b])
                # sorted rows give s_hi - s_lo >= 0, bit for bit |s_lo - s_hi|
                out, gap = row[:b], diff[:b]
                np.subtract(rows[pairs[0][1]], rows[pairs[0][0]], out=out)
                for lo, hi in pairs[1:]:
                    np.subtract(rows[hi], rows[lo], out=gap)
                    out *= gap
                # one power per sample on the product of the pair gaps
                out **= alpha
                # the whole blocks as the rows of one array, then the short one
                whole = b - b % block
                for lo, hi, width in ((0, whole, block), (whole, b, b - whole)):
                    if lo == hi:
                        continue
                    vals = out[lo:hi].reshape(-1, width)
                    dev = gap[lo:hi].reshape(-1, width)
                    span = slice(at, at + len(vals))
                    vals.sum(axis=1, out=sums[span])
                    np.subtract(vals, sums[span, None] / width, out=dev)
                    np.einsum("ij,ij->i", dev, dev, out=m2s[span])
                    counts[span] = width
                    at += len(vals)
        except BaseException as exc:
            errors.append(exc)

    import threading

    # contiguous, near-equal shares of the batches; the caller runs the first
    cuts = [len(batches) * t // threads for t in range(threads + 1)]
    shares = [batches[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    started = []
    try:
        for share, buffers in zip(shares[1:], scratch[1:]):
            thread = threading.Thread(target=run, args=(share, buffers))
            thread.start()
            started.append(thread)
        run(shares[0], scratch[0])
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    # Chan's pairwise update: the squared deviations from the overall mean
    # are those from each block mean plus each block's size times its mean's
    # squared distance from the overall mean
    mean = float(sums.sum() / samples)
    var = float(m2s.sum() + (counts * (sums / counts - mean) ** 2).sum()) / samples
    factorial = math.factorial(n)
    return EvalResult(
        value=mean / factorial,
        method="direct-mc",
        stderr=math.sqrt(var) / math.sqrt(samples) / factorial,
        samples=samples,
        seed=seed,
        h=h,
        partition=format_pairs(partition),
        extra={"finite_variance": h > 0.75, "workers": workers,
               "ess": _effective_samples(samples, mean, var)},
    )


def l_pullback_mc(
    partition: PairPartition,
    h: float,
    *,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
    chart: BlowupChart | None = None,
) -> EvalResult:
    """The same integral through the blowup chart, by rejection sampling.

    Agreement with the direct route is the working check of the change of
    variables.  Proposals are drawn from a box in log flag coordinates (the
    sorted coordinate prefix forms): an axis-aligned coordinate box would
    have vanishing acceptance because the pulled-back region hugs the
    top-form boundary exponentially tightly.  A proposal fixes the sorted
    point; a uniform random slot permutation then covers the whole region,
    and all affine forms are evaluated from the flag data so that forms far
    below the coordinate scale keep full relative accuracy.  The integrand
    at the accepted points is ``BlowupChart.log_pullback_batch`` with
    exponent 2H - 2 on the interval image, the method that the pullback
    identity check (criterion 6) covers.  A pilot without finite mass raises
    NumericError; no accepted proposal gives 0 ± 0, which ``EvalResult`` refuses.

    The proposals are drawn in batches of ``_MC_BATCH`` rows and evaluated,
    pilot included, in chunks of ``_DIRECT_BATCH`` rows, so the temporaries
    of the evaluation do not grow with the draw batch.  Each value is
    computed from its own row alone, so the chunks change no value.
    """
    check_route_args(h, samples=samples, seed=seed, workers=workers)
    import numpy as np

    from .blowup import EXACT_R_MAX_DIM, BlowupChart

    n = partition.size
    if n > EXACT_R_MAX_DIM:
        # the limit of flag-range probing, checked before any probing
        raise SizeError(f"pullback route limited to 2k <= {EXACT_R_MAX_DIM}")
    chart = chart if chart is not None else BlowupChart(n)
    if chart.n != n:
        raise DimensionError(f"chart has n={chart.n}, the matching has 2k={n}")
    lo, hi = chart.flag_ranges()
    xi_lo, xi_hi = np.log(lo), np.log(hi)
    widths = xi_hi - xi_lo
    # exponent 2H - 2 on each interval of the interval image, in mask order
    lam = np.zeros(len(chart.masks))
    for iv in partition.interval_image:
        lam[iv.mask - 1] += 2 * h - 2

    # 2H - 2 near the float limit overflows the log integrand; refused below
    @np.errstate(over="ignore", invalid="ignore")
    def evaluate(
        xi: np.ndarray, perms: np.ndarray, log_density: Callable[[np.ndarray], np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Integrand-over-density values for proposals; zero when rejected.

        Returns the value array (aligned with the proposals) and the mask of
        accepted rows; ``log_density`` maps a chunk of rows to their log
        proposal density.
        """
        out = np.zeros(len(xi))
        mask = np.zeros(len(xi), bool)
        for lo in range(0, len(xi), _DIRECT_BATCH):
            rows = slice(lo, lo + _DIRECT_BATCH)
            x = xi[rows]
            ff = np.exp(x)
            levels = chart.qranks + ff
            d = np.diff(levels, prepend=0.0, axis=1)
            ok = (np.diff(d, axis=1) >= 0).all(axis=1) if n > 1 else np.ones(len(x), bool)
            ok &= (x >= xi_lo).all(axis=1) & (x <= xi_hi).all(axis=1)
            if not ok.any():
                continue
            f = chart.forms_from_flag(perms[rows][ok], ff[ok])
            pos = (f > 0).all(axis=1)
            fo = f[pos]
            # inside the pulled-back simplex: the coordinates of F sum below 1
            inside = np.exp(np.log(fo) @ chart.M).sum(axis=1) < 1
            log_g, usable = chart.log_pullback_batch(fo[inside], lam)
            keep = x[ok][pos][inside][usable]
            log_g += keep.sum(axis=1) + math.log(math.factorial(n))
            log_g -= log_density(x)[ok][pos][inside][usable]
            sel = lo + np.nonzero(ok)[0][pos][inside][usable]
            out[sel] = np.exp(log_g)
            mask[sel] = True
        return out, mask

    log_box = float(np.log(widths).sum())

    def pilot(count: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(workers,))
        )
        xi = xi_lo + rng.random((count, n)) * widths
        perms = rng.permuted(np.tile(np.arange(n), (count, 1)), axis=1)
        vals, mask = evaluate(xi, perms, lambda x: np.full(len(x), -log_box))
        return xi[mask], vals[mask]

    pilot_n = max(min(samples // 4, 100_000), 4_096)
    pxi, pvals = pilot(pilot_n)
    if not 0 < pvals.sum() < math.inf:  # no rows, all zero, or NaN
        raise NumericError(
            "pilot sampling found no mass in the pulled-back region",
            pilot=pilot_n,
        )
    w = pvals / pvals.sum()
    mu = w @ pxi
    centered = pxi - mu
    cov = (centered * w[:, None]).T @ centered
    cov *= 2.0  # inflate for tail coverage
    cov += np.diag(np.full(n, 1e-3 * float(widths.min()) ** 2))
    chol = np.linalg.cholesky(cov)
    inv_chol = np.linalg.inv(chol)
    log_norm = -0.5 * n * math.log(2 * math.pi) - float(
        np.log(np.diag(chol)).sum()
    )

    def mix_log_density(xi: np.ndarray) -> np.ndarray:
        z = (xi - mu) @ inv_chol.T
        log_gauss = log_norm - 0.5 * (z * z).sum(axis=1)
        in_box = (xi >= xi_lo).all(axis=1) & (xi <= xi_hi).all(axis=1)
        log_uniform = np.where(in_box, -log_box, -np.inf)
        return np.logaddexp(log_gauss + math.log(0.9), log_uniform + math.log(0.1))

    total = 0.0
    total_sq = 0.0
    accepted = 0
    for seq, count in zip(worker_seeds(seed, workers), _worker_counts(samples, workers)):
        rng = np.random.default_rng(seq)
        done = 0
        while done < count:
            b = min(_MC_BATCH, count - done)
            done += b
            pick = rng.random(b) < 0.9
            xi = np.empty((b, n))
            z = rng.standard_normal((b, n))
            xi[pick] = mu + z[pick] @ chol.T
            xi[~pick] = xi_lo + rng.random(((~pick).sum(), n)) * widths
            perms = rng.permuted(np.tile(np.arange(n), (b, 1)), axis=1)
            vals, mask = evaluate(xi, perms, mix_log_density)
            accepted += int(mask.sum())
            total += vals.sum()
            total_sq += (vals * vals).sum()
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return EvalResult(
        value=float(mean),
        method="pullback-mc",
        stderr=math.sqrt(var / samples),
        samples=samples,
        seed=seed,
        h=h,
        partition=format_pairs(partition),
        extra={"accepted": accepted, "workers": workers, "pilot": pilot_n,
               "ess": _effective_samples(samples, float(mean), var)},
    )


# ---------------------------------------------------------------------------
# Deterministic routes: nested quadrature on the gammaterms factorization

def _de_nodes(m: int, worst: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Double-exponential nodes on (0, 1) in log form.

    Returns (log t, log(1 - t), log weight).  The node range is wide enough
    that the truncated tail of the worst endpoint singularity (exponent
    ``worst``, 2H - 2 for the pair factors) sits below 1e-13; it grows like
    asinh(1/(2H-1)) as H approaches 1/2 from above.  Carrying the node
    values and their complements as logs keeps extreme nodes off the
    endpoints for any range, which the near-convergence-boundary exponents
    need.
    """
    import numpy as np

    expo = max(worst + 1, 1e-4)
    span = float(np.arcsinh(150.0 / (np.pi * expo)))
    x = np.linspace(-span, span, m)
    z = 0.5 * np.pi * np.sinh(x)
    logt = -np.logaddexp(0.0, -2.0 * z)
    logtc = -np.logaddexp(0.0, 2.0 * z)
    # dt/dx = (pi/4) cosh(x) sech^2(z); log cosh(z) = logaddexp(z, -z) - log 2
    logw = (
        np.log(np.pi)
        + np.log(np.cosh(x))
        - 2.0 * np.logaddexp(z, -z)
        + np.log(2.0 * span / (m - 1))
    )
    return logt, logtc, logw


def _reduced_level_sum(
    factors: Sequence[tuple[int, int, float]], n: int, m: int
) -> float:
    """One tensor level of the nested rule for a term whose intervals cross:
    the integral of the product of (s_b - s_a)^e over the factors (a, b, e)
    on positions 1..n, with s_1 = 0 and s_n = 1 pinned.

    With r_i = s_{i+1}, the substitution r_i = u_i * r_{i+1} maps the cube
    of the n - 2 inner variables onto them with Jacobian r_2 ... r_{n-1}; a
    factor (1, b) becomes r_{b-1}, any other r_{b-1} (1 - prod of u over
    [a-1, b-2]).  As r_i = u_i ... u_{n-2}, all but the gaps over two or
    more variables are powers of one u_j or 1 - u_j and fold into one
    log-weight vector per variable; only those gaps are evaluated on the
    grid, in log space.
    """
    import numpy as np

    d = n - 2
    logu, logtc, logw = _de_nodes(m, min(e for *_, e in factors))
    axis_logs = []
    for j in range(1, d + 1):
        # u_j is a factor of r_i for i <= j: of the Jacobian terms r_2 .. r_j
        # and of every r_{b-1} with b - 1 <= j; a factor on (j+1, j+2) adds
        # the one-variable gap 1 - u_j
        power = j - 1 + sum(e for _, b, e in factors if b - 1 <= j)
        gap = sum(e for a, b, e in factors if (a, b) == (j + 1, j + 2))
        axis_logs.append(logw + power * logu + gap * logtc)
    spans = [(range(a - 1, b - 1), e) for a, b, e in factors if a > 1 and b - a > 1]
    step = max(1, _GRID_CHUNK // m ** (d - 1))
    total = 0.0
    # slabs over the last variable u_d bound memory; axis j - 1 holds u_j
    for start in range(0, m, step):
        sl = slice(start, start + step)

        def on_axis(vec: np.ndarray, j: int) -> np.ndarray:
            v = vec[sl] if j == d else vec
            return v.reshape([-1 if ax == j - 1 else 1 for ax in range(d)])

        acc = sum(on_axis(v, j) for j, v in enumerate(axis_logs, start=1))
        for span, e in spans:
            lp = sum(on_axis(logu, j) for j in span)
            # where the log-product underflows to -0, the complement is the
            # sum of the node complements to leading order
            log_gap = np.log(-np.expm1(np.minimum(lp, -1e-300)))
            tiny = lp > -1e-12
            if tiny.any():
                alt = on_axis(logtc, span[0])
                for j in span[1:]:
                    alt = np.logaddexp(alt, on_axis(logtc, j))
                log_gap = np.where(tiny, alt, log_gap)
            acc = acc + e * log_gap
        total += float(np.exp(acc).sum())
    return total


# the largest crossing component evaluated: at 2k <= 10 no term leaves a
# grid of more than 4 dimensions
_MAX_PAIRS = 5


def check_matchings(evaluator, partitions: Sequence[PairPartition]) -> None:
    """The size rule of ``adaptive`` (a route name or a callable evaluator),
    for each of ``partitions`` before any is evaluated: SizeError for a
    crossing component of more than ``_MAX_PAIRS`` pairs, which needs k > 5."""
    for p in partitions if evaluator == "adaptive" else ():
        if p.k > _MAX_PAIRS:
            crossing = factorize(p)[3]
            if any(count > _MAX_PAIRS for _, count, _ in crossing):
                raise SizeError(
                    f"adaptive route limited to crossing components of at most {_MAX_PAIRS} "
                    f"pairs; crossing pairs {'; '.join(label for label, _, _ in crossing)}"
                )


# nodes a side at each level; a d-dimensional grid runs the first 8 - d, up
# to 513 nodes a side on 2-D grids, 257 on 3-D and 129 on 4-D
_LEVELS = (17, 33, 65, 129, 257, 513)


def _factored(partition: PairPartition, h: float, method: str, tol: float) -> EvalResult:
    """The gamma product of ``factorize`` times the J_C of its crossing
    components as sums of terms, level by level (see ``l_adaptive``)."""
    check_route_args(h, tol=tol)
    check_matchings(method, [partition])
    tree, numer, denom, crossing = factorize(partition)
    if crossing and method == "closed-form":
        labels = "; ".join(label for label, _, _ in crossing)
        raise DomainError(f"no closed form for crossing pairs {labels}")
    exact, err = gamma_product(numer, denom, h)
    # per component, (signed value, rounding bound, grid key or None) per
    # term; each distinct grid (factors, n) is evaluated once per level
    comps, grids = [], {}
    for _, count, factors in crossing:
        terms = []
        for sign, tn, td, grid in crossing_terms(factors, 2 * count):
            value, bound = gamma_product(tn, td, h)
            if grid is not None:
                f, n = grid
                grid = (tuple(f), n)
                grids[grid] = (grid_exponents(f, h), n)
            terms.append((sign * value, bound, grid))
        comps.append(terms)
    dims = [n - 2 for _, n in grids]

    def level(m: int | None) -> tuple[float, float, list[float | None]]:
        """L with every leftover grid at m nodes a side, its rounding bound
        and the cancellation ratio sum |term| / |J_C| of each component
        (None where the terms sum to 0: all underflow, or all cancel).
        The bound is err for the gamma product plus, per component, the sum
        over its terms of |term| times the term's own rounding bound."""
        scales = {key: _reduced_level_sum(*grid, m) for key, grid in grids.items()}
        sums, floors, ratios = [], [], []
        for terms in comps:
            vals, bounds = [], []
            for value, bound, grid in terms:
                scale = 1.0 if grid is None else scales[grid]
                vals.append(value * scale)
                bounds.append(bound * scale)
            sums.append(math.fsum(vals))
            floors.append(math.fsum(bounds))
            ratios.append(math.fsum(map(abs, vals)) / abs(sums[-1]) if sums[-1] else None)
        mags = [abs(j) for j in sums]
        rounding = err * math.prod(mags) + abs(exact) * sum(
            f * math.prod(mags[:i] + mags[i + 1:]) for i, f in enumerate(floors)
        )
        return exact * math.prod(sums), rounding, ratios

    levels = list(_LEVELS[: 8 - max(dims)]) if dims else []
    values, cells, change, done = [], 0, 0.0, not dims
    if done:
        value, rounding, ratios = level(None)
    for m in levels:
        value, rounding, ratios = level(m)
        values.append(value)
        cells += sum(m ** d for d in dims)
        if len(values) > 1:
            change = abs(values[-1] - values[-2])
            done = change <= max(tol, tol * abs(value), rounding)
            if done:
                break
    if not done:
        raise NumericError("quadrature tolerance not reached within the level budget",
                           best=values[-1] if values else None, tol=tol, levels=levels)
    reported = max(change, rounding)
    extra = {"factor_tree": tree}
    if method == "adaptive":
        extra.update(levels=levels[: len(values)], level_values=values)
    if comps:
        extra.update(terms=[len(terms) for terms in comps], grid_dims=dims,
                     cancellation=ratios)
    return EvalResult(value=value, method=method, tol=reported, cells=cells,
                      h=h, partition=format_pairs(partition), extra=extra)


def l_adaptive(partition: PairPartition, h: float, *, tol: float = DEFAULT_TOL) -> EvalResult:
    """Deterministic evaluation of L: the exact gamma product of
    ``gammaterms.factorize`` times the reduced integral J_C of each crossing
    component C (none for a non-crossing P, which gives the float of
    ``l_closed_form``).  Each J_C is a signed sum of terms
    (``gammaterms.crossing_terms``): one-factor positions integrate out in
    closed form, and a term whose intervals nest is a gamma product.  A term
    whose intervals cross runs a nested rule on a grid of at most 4
    dimensions, node counts doubling per level (``_LEVELS``, from 17 to at
    most 513 nodes a side, fewer on grids of 3 and 4 dimensions); the error
    estimate is the change of L
    between levels, and ``extra["level_values"]`` records L at each.
    Levels stop once that change is at most ``max(tol, tol * |L|)`` or the
    rounding bound, so tol is an absolute bound whenever |L| < 1 (L is
    small from 2k = 8 on).  The rounding bound is the gamma product's plus,
    per component, the sum over its terms of |term| times the term's own
    rounding bound, which carries the cancellation between terms
    (``extra["cancellation"]`` is sum |term| / |J_C|); the reported tol is
    the larger of the last change and that bound, so a tol below the bound
    is reported, not raised.  Terms that leave the same grid share one
    evaluation per level, and ``cells`` and ``extra["grid_dims"]`` count
    each distinct grid once; ``extra`` also holds the term count of each
    component.  ``check_route_args`` and ``check_matchings`` refuse before
    any work; an exhausted level budget raises with the best value.  A
    reported tol of at least |L| (close to H = 1/2, where the terms cancel)
    breaks the result rule of ``EvalResult``, which raises NumericError.
    """
    return _factored(partition, h, "adaptive", tol)


def l_closed_form(partition: PairPartition, h: float) -> EvalResult:
    """The exact gamma product of ``gammaterms.factorize`` for a non-crossing
    matching, gamma(2H-1)^k / gamma(2kH + 1) for the all-adjacent one;
    raises DomainError naming the crossing pairs of any other matching."""
    return _factored(partition, h, "closed-form", 0.0)


# ---------------------------------------------------------------------------
# Wick grid oracle

def _most_open(word: Word) -> int:
    """Most pairs open at once over the pair partitions refining ``word``:
    across a cut, each letter can keep open min(its count before, after)."""
    w = word.letters
    return max(sum(min(w[:c].count(a), w[c:].count(a)) for a in set(w))
               for c in range(1, len(w)))


def _increasing_pair_sum(partition: PairPartition, cov: np.ndarray) -> float:
    """Sum over strictly increasing grid multi-indices of the product of
    cov[t_a, t_b] over the pairs.

    Positions are processed left to right.  The state holds one axis per
    open pair, oldest first, indexed by the grid time the pair opened at.
    Right after an open the newest pair's axis is also the frontier (the
    time of the last processed position); after a close the frontier is one
    more axis at the end.  So no value sits on a diagonal, and the largest
    array has m^(most pairs open at once) entries: m^2 for every k = 2
    matching.

    A close right after an open contracts the closed pair's axis with cov
    (masked to later times when that axis is the frontier) into a new
    time axis at the end: one ``tensordot``, a BLAS matrix product that
    leaves the other axes in order.  A close after a close weighs the
    frontier axis by cov and sums the closed pair's axis, O(state).
    """
    import numpy as np

    m = cov.shape[0]
    after = 1.0 - np.tri(m)  # after[o, t] = [o < t]
    state = np.ones(m)
    opened = [1]  # the position that opened each pair axis
    merged = True  # the last pair axis is the frontier
    for pos in range(2, partition.size + 1):
        if not merged:  # exclusive prefix sum: the new time passes the frontier
            pref = np.zeros_like(state)
            np.cumsum(state[..., :-1], axis=-1, out=pref[..., 1:])
            state = pref
        partner = partition.partner(pos)
        n = state.ndim
        if partner > pos:  # an open: after a close, the frontier axis is its own
            if merged:
                state = state[..., None] * after
            opened.append(pos)
        else:
            ax = opened.index(partner)
            if not merged:  # the summed frontier axis is now the new time
                keep = [a for a in range(n) if a != ax]
                state = np.einsum(state, list(range(n)), cov, [ax, n - 1], keep)
            elif ax == n - 1:  # closes the pair opened just before
                state = np.tensordot(state, cov * after, axes=([ax], [0]))
            else:
                state = np.tensordot(state, cov, axes=([ax], [0]))
                state *= after
            del opened[ax]
        merged = partner > pos
    return float(state.sum())


def wick_grid_oracle(
    word: Word,
    h: float,
    m: int = 64,
) -> EvalResult:
    """Deterministic grid approximation of the mean iterated integral.

    Riemann sum over strictly increasing multi-indices of the Wick expansion
    of the increment moments: for each refining pair partition, the product
    of increment covariances, summed by ``_increasing_pair_sum`` with one
    array axis per open pair, mostly by BLAS matrix products.
    The covariance is the lag-only (Toeplitz) matrix of
    ``FbmCovariance.increment_cov``.  Letters with odd multiplicity give
    exactly 0.  Richardson extrapolation over {m, 2m} removes the leading
    defect, which scales like m^(1-2H).  The largest array has
    (2m)^max(2, p) entries, p the most pairs open at once over the refining
    matchings: 2k = 4 runs at the default m = 64 and 2k = 6 at m = 32 in
    well under a second.  Arrays over ``_WICK_MAX_ENTRIES`` = 2^24 entries
    (128 MiB of float64) raise SizeError before any is built.  H must pass
    ``check_route_args`` (at H = 1/2 the strictly increasing sum misses the
    Ito diagonal, below it the sum diverges like m^(1-2H)) and be at most
    1, where fBm ends, and m must be an integer of at least 8: DomainError
    before any array is built, also for a word with no refining matching.
    """
    check_route_args(h)
    fbm = FbmCovariance(h)  # fBm ends at H = 1
    if not isinstance(m, numbers.Integral) or m < 8:
        raise DomainError(f"grid size must be an integer of at least 8, got {m!r}")
    refining = enumerate_refining(word)
    if not refining:
        return EvalResult(value=0.0, method="wick-grid", tol=0.0, cells=0, h=h,
                          extra={"refining_partitions": 0, "exact_zero": True})
    entries = (2 * m) ** max(2, _most_open(word))
    if entries > _WICK_MAX_ENTRIES:
        raise SizeError(f"Wick grid oracle would build arrays of {entries} entries, "
                        f"over the limit of {_WICK_MAX_ENTRIES}")

    def level(mm: int) -> float:
        cov = fbm.increment_cov(mm)
        return sum(_increasing_pair_sum(p, cov) for p in refining)

    v1 = level(m)
    v2 = level(2 * m)
    theta = 2.0 ** (1 - 2 * h)
    value = (v2 - theta * v1) / (1 - theta)
    return EvalResult(value=value, method="wick-grid", tol=abs(v2 - v1), cells=m, h=h,
                      extra={"refining_partitions": len(refining), "grid_values": [v1, v2],
                             "richardson_theta": theta})


# route name -> evaluator, the one table of the names a caller may pass
ROUTES: dict[str, Callable[..., EvalResult]] = {
    "adaptive": l_adaptive,
    "direct-mc": l_direct_mc,
    "pullback-mc": l_pullback_mc,
    "closed-form": l_closed_form,
}
