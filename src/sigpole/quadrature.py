"""Numeric evaluation of the pair-partition simplex integrals.

Four routes are provided and cross-checked against each other:

- ``l_direct_mc``: sorted-uniform Monte Carlo on the increasing simplex;
- ``l_pullback_mc``: rejection sampling of the blown-up domain, averaging the
  pulled-back integrand (a working check of the change of variables);
- ``l_adaptive`` (2k <= 6): translation invariance and homogeneity of
  degree k(2H - 2) integrate the two outer gaps out exactly, so
  L = J / ((2kH - 1) 2kH) with J a (2k - 2)-dimensional integral over the
  inner points of [0, 1]; J is evaluated by deterministic nested quadrature
  after the iterated substitution that moves all integrand singularities to
  cube faces, with double-exponential nodes and level doubling until the
  tolerance is met;
- ``l_closed_form``: the beta-integral closed form, available whenever the
  interval image consists of pairwise disjoint intervals.

``wick_grid_oracle`` is the independent deterministic oracle for mean
iterated integrals: a Riemann sum over strictly increasing grid indices of
pair-covariance products of fractional Gaussian increments.  It shares no
evaluation logic with the routes above.

All stochastic estimators split their sample budget over workers with seeds
``SeedSequence(entropy=seed, spawn_key=(w,))`` and reduce in worker order,
so results are reproducible for a fixed (seed, workers) pair.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .blowup import EXACT_R_MAX_DIM, BlowupChart
from .errors import DomainError, NumericError, SizeError
from .pairings import PairPartition, Word, enumerate_refining, format_pairs

__all__ = [
    "DEFAULT_SEED",
    "EvalResult",
    "FbmCovariance",
    "worker_seeds",
    "l_direct_mc",
    "l_pullback_mc",
    "l_adaptive",
    "l_closed_form",
    "dirichlet_closed_form",
    "wick_grid_oracle",
]

# default RNG seed: the bytes "FBM0" read as a big-endian integer
DEFAULT_SEED = int.from_bytes(b"FBM0", "big")

STOCHASTIC_METHODS = frozenset({"direct-mc", "pullback-mc"})
DETERMINISTIC_METHODS = frozenset({"adaptive", "closed-form", "wick-grid"})
_MC_BATCH = 1 << 18
_GRID_CHUNK = 1 << 19  # grid nodes per slab, and at least one last-axis slice


@dataclass(frozen=True)
class EvalResult:
    """A numeric value with method tag and its uncertainty bookkeeping.

    Stochastic methods carry ``stderr``, ``samples`` and ``seed``;
    deterministic methods carry ``tol`` and ``cells``.
    """

    value: float | complex
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
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, (np.floating, np.integer)):
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
        return 0.5 * (
            np.abs(s) ** h2 + np.abs(t) ** h2 - np.abs(np.subtract(s, t)) ** h2
        )

    def increment_cov(self, m: int) -> np.ndarray:
        """Covariance matrix of the m unit-grid increments on [0, 1]."""
        edges = np.arange(m + 1) / m
        r = self.cov(edges[:, None], edges[None, :])
        return r[1:, 1:] - r[1:, :-1] - r[:-1, 1:] + r[:-1, :-1]


def worker_seeds(seed: int, workers: int) -> list[np.random.SeedSequence]:
    """Per-worker seed sequences: SeedSequence(entropy=seed, spawn_key=(w,))."""
    return [
        np.random.SeedSequence(entropy=seed, spawn_key=(w,)) for w in range(workers)
    ]


def _worker_counts(samples: int, workers: int) -> list[int]:
    base, rem = divmod(samples, workers)
    return [base + (1 if w < rem else 0) for w in range(workers)]


def _pair_power_product(
    s: np.ndarray, a_idx: np.ndarray, b_idx: np.ndarray, expo: float
) -> np.ndarray:
    """Row-wise product over pairs of |s[:, a] - s[:, b]| ** expo.

    The shared exponent is applied once to the product of the absolute
    differences, saving all but one power evaluation per row.
    """
    out = np.ones(s.shape[0])
    for a, b in zip(a_idx, b_idx):
        out *= np.abs(s[:, a] - s[:, b])
    return out**expo


def _require_convergent(h: float) -> None:
    if not h > 0.5:
        raise DomainError(
            f"H={h} outside the absolutely convergent region (need H > 1/2)"
        )


def l_direct_mc(
    partition: PairPartition,
    h: float,
    samples: int = 1_000_000,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> EvalResult:
    """Monte Carlo estimate of the pair-partition integral for H > 1/2.

    Uniform points on the cube are sorted into the increasing simplex
    (sampling density (2k)!), so the estimator is the sample mean of the
    integrand divided by (2k)!.  The integrand has integrable spikes where
    paired coordinates collide; for H <= 3/4 its variance is unbounded, so a
    quartile-based robust error accompanies the plain standard error.
    """
    _require_convergent(h)
    n = partition.size
    a_idx = np.array([a - 1 for a, _ in partition.pairs])
    b_idx = np.array([b - 1 for _, b in partition.pairs])
    expo = 2 * h - 2
    chunks: list[np.ndarray] = []
    for seq, count in zip(worker_seeds(seed, workers), _worker_counts(samples, workers)):
        rng = np.random.default_rng(seq)
        done = 0
        while done < count:
            b = min(_MC_BATCH, count - done)
            u = np.sort(rng.random((b, n)), axis=1)
            chunks.append(_pair_power_product(u, a_idx, b_idx, expo))
            done += b
    vals = np.concatenate(chunks)
    factorial = math.factorial(n)
    mean = vals.mean()
    stderr = vals.std() / math.sqrt(samples)
    q1, q3 = np.quantile(vals, [0.25, 0.75])
    robust = (q3 - q1) / 1.349 / math.sqrt(samples)
    return EvalResult(
        value=mean / factorial,
        method="direct-mc",
        stderr=stderr / factorial,
        samples=samples,
        seed=seed,
        h=h,
        partition=format_pairs(partition),
        extra={"robust_stderr": robust / factorial, "workers": workers},
    )


def l_pullback_mc(
    partition: PairPartition,
    h: float,
    samples: int = 1_000_000,
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
    below the coordinate scale keep full relative accuracy.
    """
    _require_convergent(h)
    n = partition.size
    if n > EXACT_R_MAX_DIM:
        # the limit of flag-range probing, checked before any probing
        raise SizeError(f"pullback route limited to 2k <= {EXACT_R_MAX_DIM}")
    chart = chart if chart is not None else BlowupChart(n)
    lo, hi = chart.flag_ranges()
    xi_lo, xi_hi = np.log(lo), np.log(hi)
    widths = xi_hi - xi_lo
    qranks = np.array([float(chart.q(j)) for j in range(1, n + 1)])
    # exponent on each affine form: |S| - 1 + 2(H-1)[S|P], plus one for the
    # forms folded out of the positive factor R = det(A) * prod f_S
    iv_masks = [chart.mask_of(iv.members()) for iv in partition.interval_image]
    f_expo = np.empty(len(chart.masks))
    brackets = np.empty(len(chart.masks))
    for j, m in enumerate(chart.masks):
        brackets[j] = sum(1 for t in iv_masks if t & m == t)
        f_expo[j] = chart.sizes[j] - 1 + 2 * (h - 1) * brackets[j] + 1.0
    def evaluate(
        xi: np.ndarray, perms: np.ndarray, log_q: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Integrand-over-density values for proposals; zero when rejected.

        Returns the value array (aligned with the proposals) and the mask of
        accepted rows.
        """
        b = len(xi)
        out = np.zeros(b)
        ff = np.exp(xi)
        levels = qranks + ff
        d = np.diff(levels, prepend=0.0, axis=1)
        ok = (np.diff(d, axis=1) >= 0).all(axis=1) if n > 1 else np.ones(b, bool)
        ok &= (xi >= xi_lo).all(axis=1) & (xi <= xi_hi).all(axis=1)
        if not ok.any():
            return out, ok
        f = chart.forms_from_flag(perms[ok], ff[ok])
        pos = (f > 0).all(axis=1)
        fo = f[pos]
        log_f = np.log(fo) if len(fo) else fo
        inside = (
            np.exp(log_f @ chart.M).sum(axis=1) < 1
            if len(fo)
            else np.zeros(0, bool)
        )
        fi = fo[inside]
        # det(A) loses its sign to roundoff only in the far tail where the
        # integrand mass vanishes; such points contribute zero
        if len(fi):
            sign, log_det = np.linalg.slogdet(chart.gram_batch(fi))
        else:
            sign = log_det = np.zeros(0)
        usable = sign > 0
        fu = fi[usable]
        log_g = log_f[inside][usable] @ f_expo + log_det[usable]
        for iv in partition.interval_image:
            log_g += (2 * h - 2) * np.log(chart.p_s_batch(iv.members(), fu))
        keep = xi[ok][pos][inside][usable]
        log_g += keep.sum(axis=1) + math.log(math.factorial(n))
        log_g -= log_q[ok][pos][inside][usable]
        sel = np.nonzero(ok)[0][pos][inside][usable]
        out[sel] = np.exp(log_g)
        mask = np.zeros(b, bool)
        mask[sel] = True
        return out, mask

    log_box = float(np.log(widths).sum())

    def pilot(count: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(workers,))
        )
        xi = xi_lo + rng.random((count, n)) * widths
        perms = rng.permuted(np.tile(np.arange(n), (count, 1)), axis=1)
        vals, mask = evaluate(xi, perms, np.full(count, -log_box))
        return xi[mask], vals[mask]

    pilot_n = max(min(samples // 4, 100_000), 4_096)
    pxi, pvals = pilot(pilot_n)
    if len(pxi) == 0 or pvals.sum() <= 0:
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
            vals, _mask = evaluate(xi, perms, mix_log_density(xi))
            accepted += int(_mask.sum())
            total += vals.sum()
            total_sq += (vals * vals).sum()
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return EvalResult(
        value=mean,
        method="pullback-mc",
        stderr=math.sqrt(var / samples),
        samples=samples,
        seed=seed,
        h=h,
        partition=format_pairs(partition),
        extra={"accepted": accepted, "workers": workers, "pilot": pilot_n},
    )


# ---------------------------------------------------------------------------
# Deterministic nested quadrature

def _de_span(h: float) -> float:
    """Node range wide enough that the truncated tail of the worst endpoint
    singularity (exponent 2H - 2) sits below 1e-13.  Grows like
    asinh(1/(2H-1)) as H approaches 1/2 from above."""
    expo = max(2 * h - 1, 1e-4)
    return float(np.arcsinh(150.0 / (np.pi * expo)))


def _de_nodes(m: int, span: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Double-exponential nodes on (0, 1) in log form.

    Returns (log t, log(1 - t), log weight).  Carrying the node values and
    their complements as logs keeps extreme nodes off the endpoints for any
    span, which the near-convergence-boundary exponents need.
    """
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


def _reduced_level_sum(partition: PairPartition, h: float, m: int) -> float:
    """One tensor level of the nested rule for the reduced integral J.

    The points 0 = r_0 < r_1 < ... < r_{2k-2} < r_{2k-1} = 1 are pinned at
    both ends.  The substitution r_i = u_i * r_{i+1} maps the cube of the
    2k - 2 inner variables onto them with Jacobian r_2 * ... * r_{2k-1}; a
    pair (1, b) becomes r_{b-1}, any other pair (a, b) becomes
    r_{b-1} * (1 - prod of u over [a-1, b-2]).  Since r_i is the product of
    u_i .. u_{2k-2}, every factor except a gap over two or more variables is
    a power of one u_j or of 1 - u_j; those fold into one log-weight vector
    per variable, and only the multi-variable gaps are evaluated on the grid,
    in log space.
    """
    d = partition.size - 2
    expo = 2 * h - 2
    logu, logtc, logw = _de_nodes(m, _de_span(h))
    pairs = partition.pairs
    axis_logs = []
    for j in range(1, d + 1):
        # u_j is a factor of r_i for i <= j: of the Jacobian terms r_2 .. r_j
        # and of every r_{b-1} with b - 1 <= j; the pair (j+1, j+2) adds the
        # one-variable gap 1 - u_j
        power = j - 1 + expo * sum(1 for _, b in pairs if b - 1 <= j)
        gap = partition.partner(j + 1) == j + 2
        axis_logs.append(logw + power * logu + expo * gap * logtc)
    spans = [range(a - 1, b - 1) for a, b in pairs if a > 1 and b - a > 1]
    step = max(1, _GRID_CHUNK // m ** (d - 1))
    total = 0.0
    # slabs over the last variable u_d bound memory; axis j - 1 holds u_j
    for start in range(0, m, step):
        sl = slice(start, start + step)

        def on_axis(vec: np.ndarray, j: int) -> np.ndarray:
            v = vec[sl] if j == d else vec
            return v.reshape([-1 if ax == j - 1 else 1 for ax in range(d)])

        acc = sum(on_axis(v, j) for j, v in enumerate(axis_logs, start=1))
        for span in spans:
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
            acc = acc + expo * log_gap
        total += float(np.exp(acc).sum())
    return total


def l_adaptive(
    partition: PairPartition,
    h: float,
    tol: float = 1e-8,
    max_level: int = 6,
) -> EvalResult:
    """Deterministic evaluation for 2k <= 6, to absolute/relative tol.

    The integrand is translation invariant and homogeneous of degree
    k(2H - 2), so the two outer gaps integrate out exactly:
    L = J / ((2kH - 1) 2kH), with J the integral over the 2k - 2 inner
    points of [0, 1] (J = 1 for k = 1).  Node counts of the nested rule for
    J double per level; the error estimate is the change of L between
    consecutive levels, and ``extra["level_values"]`` records L at every
    level.  Raises with the best estimate attached when the budget is
    exhausted before the tolerance is met.
    """
    _require_convergent(h)
    n = partition.size
    if n > 6:
        raise SizeError("adaptive route limited to 2k <= 6")
    k = n // 2
    scale = 1.0 / ((2 * k * h - 1) * 2 * k * h)
    if n == 2:
        return EvalResult(
            value=scale,
            method="adaptive",
            tol=2 * math.ulp(scale),  # two roundings in the prefactor
            cells=1,
            h=h,
            partition=format_pairs(partition),
            extra={"levels": [], "level_values": []},
        )
    # per-axis node counts: 2-D grids up to 513, 4-D grids up to 129
    levels = [17, 33, 65, 129, 257, 513] if n == 4 else [17, 33, 65, 129]
    levels = levels[:max_level]
    values: list[float] = []
    cells = 0
    for m in levels:
        cur = scale * _reduced_level_sum(partition, h, m)
        cells += m ** (n - 2)
        values.append(cur)
        if len(values) > 1:
            err = abs(cur - values[-2])
            if err <= max(tol, tol * abs(cur)):
                return EvalResult(
                    value=cur,
                    method="adaptive",
                    tol=err,
                    cells=cells,
                    h=h,
                    partition=format_pairs(partition),
                    extra={"levels": levels[: len(values)], "level_values": values},
                )
    raise NumericError(
        "quadrature tolerance not reached within the level budget",
        best=values[-1] if values else None,
        tol=tol,
        levels=levels,
    )


def dirichlet_closed_form(lams: Sequence[float]) -> float:
    """The simplex moment integral: prod gamma(lam+1) / gamma(n + sum + 1).

    Exponents sit on single coordinates of the solid simplex; each must have
    real part above -1.
    """
    lams = [float(v) for v in lams]
    if any(v <= -1 for v in lams):
        raise DomainError(f"every exponent must exceed -1, got {lams}")
    n = len(lams)
    return math.exp(
        sum(math.lgamma(v + 1) for v in lams) - math.lgamma(n + sum(lams) + 1)
    )


def l_closed_form(partition: PairPartition, h: float) -> EvalResult:
    """Closed form when the interval image is pairwise disjoint.

    Grouping coordinates by the intervals reduces the integral to the beta
    form: prod over groups of gamma(lam_g + m_g) / (m_g - 1)! over the gamma
    of the full parameter sum plus one.  The all-adjacent partition gives
    gamma(2H-1)^k / gamma(2kH + 1).
    """
    _require_convergent(h)
    n = partition.size
    image = partition.interval_image
    covered: set[int] = set()
    for iv in image:
        if covered & set(iv.members()):
            raise DomainError(
                "closed form needs pairwise disjoint interval image, got "
                f"{[str(i) for i in image]}"
            )
        covered |= set(iv.members())
    groups = [(2 * h - 2, len(iv)) for iv in image]
    groups += [(0.0, 1) for p in range(1, n + 1) if p not in covered]
    log_num = 0.0
    for lam, mg in groups:
        log_num += math.lgamma(lam + mg) - math.lgamma(mg)
    total = sum(lam + mg for lam, mg in groups)
    value = math.exp(log_num - math.lgamma(total + 1))
    return EvalResult(
        value=value,
        method="closed-form",
        tol=1e-14,
        cells=1,
        h=h,
        partition=format_pairs(partition),
        extra={"groups": [[lam, mg] for lam, mg in groups]},
    )


# ---------------------------------------------------------------------------
# Wick grid oracle

def _open_close_pattern(partition: PairPartition) -> list[tuple[str, int]]:
    opens: dict[int, int] = {}
    pattern: list[tuple[str, int]] = []
    for p in range(1, partition.size + 1):
        q = partition.partner(p)
        if q > p:
            opens[p] = len(opens)
            pattern.append(("open", p))
        else:
            pattern.append(("close", q))
    return pattern


def _exclusive_prefix(arr: np.ndarray) -> np.ndarray:
    out = np.zeros_like(arr)
    np.cumsum(arr[..., :-1], axis=-1, out=out[..., 1:])
    return out


def _increasing_pair_sum(partition: PairPartition, cov: np.ndarray) -> float:
    """Sum over strictly increasing grid multi-indices of the product of
    cov[t_a, t_b] over the pairs.

    Positions are processed left to right.  The state tensor carries one
    axis per currently open pair (the grid time it opened at) plus a final
    frontier axis (the time of the last processed position); opening a pair
    ties a fresh axis to the frontier, closing one contracts its axis
    against the covariance row at the new frontier.
    """
    m = cov.shape[0]
    idx = np.arange(m)
    state: np.ndarray | None = None
    open_axis: dict[int, int] = {}
    for kind, pos in _open_close_pattern(partition):
        if state is None:
            # first position always opens: open time equals the frontier
            state = np.eye(m)
            open_axis = {pos: 0}
            continue
        pref = _exclusive_prefix(state)  # frontier advances strictly
        if kind == "open":
            new = np.zeros(state.shape + (m,))
            new[..., idx, idx] = pref
            state = new
            open_axis[pos] = state.ndim - 2
        else:
            ax = open_axis.pop(pos)
            moved = np.moveaxis(pref, ax, -2)  # (..., open, frontier)
            state = np.einsum("...of,of->...f", moved, cov)
            open_axis = {p: (a if a < ax else a - 1) for p, a in open_axis.items()}
    assert state is not None and state.ndim == 1
    return float(state.sum())


def wick_grid_oracle(
    word: Word,
    h: float,
    m: int = 64,
) -> EvalResult:
    """Deterministic grid approximation of the mean iterated integral.

    Riemann sum over strictly increasing multi-indices of the Wick expansion
    of the increment moments: for each refining pair partition, the product
    of increment covariances.  Letters with odd multiplicity give exactly 0.
    Richardson extrapolation over {m, 2m} removes the leading defect, which
    scales like m^(1-2H).
    """
    if m < 8:
        raise DomainError(f"grid size must be at least 8, got {m}")
    refining = enumerate_refining(word)
    if not refining:
        return EvalResult(
            value=0.0,
            method="wick-grid",
            tol=0.0,
            cells=0,
            h=h,
            extra={"refining_partitions": 0},
        )

    def level(mm: int) -> float:
        cov = FbmCovariance(h).increment_cov(mm)
        return sum(_increasing_pair_sum(p, cov) for p in refining)

    v1 = level(m)
    v2 = level(2 * m)
    theta = 2.0 ** (1 - 2 * h)
    value = (v2 - theta * v1) / (1 - theta) if theta != 1 else v2
    return EvalResult(
        value=value,
        method="wick-grid",
        tol=abs(v2 - v1),
        cells=m,
        h=h,
        extra={
            "refining_partitions": len(refining),
            "grid_values": [v1, v2],
            "richardson_theta": theta,
        },
    )


def evaluator_by_name(name: str) -> Callable[..., EvalResult]:
    table = {
        "direct-mc": l_direct_mc,
        "pullback-mc": l_pullback_mc,
        "adaptive": l_adaptive,
        "closed-form": l_closed_form,
    }
    if name not in table:
        raise DomainError(f"unknown evaluator {name!r}; pick from {sorted(table)}")
    return table[name]
