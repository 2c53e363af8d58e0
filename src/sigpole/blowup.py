"""Orthant blowup machinery: the gap weights q(r) = 3^r, the region Omega,
the polynomial map F, Jacobian identities, boundary witness points,
numerical inversion and the pulled-back integrand.

The pulled-back integrand has one implementation, the batch method
``BlowupChart.log_pullback_batch``: the pullback Monte Carlo route runs it,
and the pullback identity check (criterion 6) checks it.

Scalar entry points accept plain Python sequences and are generic over the
scalar type, so they run exactly on ``fractions.Fraction`` inputs; sign
statements at boundary points are therefore checked without tolerances.
Batch entry points (``*_batch``) take ``(N, n)`` float arrays and vectorize
over points.  A chart is immutable once built; evaluations are pure.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, NumericError, SizeError
from .pairings import PositionSet

__all__ = [
    "MonotoneList",
    "BlowupChart",
    "all_monotone_lists",
    "exact_det",
]

EXACT_R_MAX_DIM = 4

# Newton step lengths 2^0 ... 2^-39, and the most trial points evaluated at
# once while searching them
_STEP_LADDER = 0.5 ** np.arange(40)
_TRIAL_ROWS = 1 << 16
# float inverse, one schedule for every caller: the homotopy path in floor
# stages of 1/_FLOW_STEPS, the first stage of a row in floor stages, the
# log-residual a stage corrects to, and the Newton iterations of a longer
# stage, of a floor stage and at the target
_FLOW_STEPS = 64
_FIRST_STAGE = 8
_STAGE_TOL = 1e-9
_STAGE_ITER = 6
_FLOOR_ITER = 30
_POLISH_ITER = 200
# exact polish: Newton steps on the dyadic grid of spacing 2^-_GRID_BITS
_EXACT_STEPS = 10
_GRID_BITS = 320
# flag-range probing: probe count, seed and multiplicative log-scale pad
_PROBES = 512
_PROBE_SEED = 202
_PROBE_PAD = 8.0


def _bareiss_int(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    m = [row[:] for row in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def exact_det(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant over the rationals via integer Bareiss elimination."""
    scale = 1
    im: list[list[int]] = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        d = math.lcm(*(x.denominator for x in fr))
        scale *= d
        im.append([int(x * d) for x in fr])
    return Fraction(_bareiss_int(im), scale)


def _solve_exact(matrix: Sequence[Sequence], rhs: Sequence) -> list[Fraction]:
    """Exact solve of a small nonsingular rational system (Cramer's rule)."""
    det = exact_det(matrix)
    if det == 0:
        raise NumericError("singular system in exact solve")
    return [
        exact_det([[*row[:i], b, *row[i + 1:]] for row, b in zip(matrix, rhs)]) / det
        for i in range(len(rhs))
    ]


class MonotoneList:
    """Nonempty subsets strictly ordered by containment (a flag fragment)."""

    __slots__ = ("subsets",)

    def __init__(self, subsets: Iterable[Iterable[int]]):
        chain = [frozenset(int(i) for i in s) for s in subsets]
        chain.sort(key=len)
        if not chain:
            raise DomainError("monotone list must be nonempty")
        for s in chain:
            if not s:
                raise DomainError("monotone list cannot contain the empty set")
        for a, b in itertools.pairwise(chain):
            if not (a < b):
                raise DomainError(
                    f"not strictly increasing by containment: {sorted(a)} vs {sorted(b)}"
                )
        object.__setattr__(self, "subsets", tuple(chain))

    def __setattr__(self, *a):
        raise AttributeError("MonotoneList is immutable")

    def __reduce__(self):
        return MonotoneList, (self.subsets,)

    def __len__(self) -> int:
        return len(self.subsets)

    def __iter__(self):
        return iter(self.subsets)

    def __repr__(self) -> str:
        return f"MonotoneList({[sorted(s) for s in self.subsets]})"


def all_monotone_lists(n: int) -> list[MonotoneList]:
    """Every monotone list of nonempty subsets of [1, n]."""
    subsets = [
        frozenset(s)
        for r in range(1, n + 1)
        for s in itertools.combinations(range(1, n + 1), r)
    ]
    out: list[MonotoneList] = []

    def extend(chain: list[frozenset[int]]) -> None:
        out.append(MonotoneList(chain))
        for s in subsets:
            if chain[-1] < s:
                extend(chain + [s])

    for s in subsets:
        extend([s])
    return out


class BlowupChart:
    """The blowup chart of dimension n; hosts all blowup evaluations.

    The affine form of a nonempty subset S of [1, n] is -q(|S|) plus the sum
    of the S-coordinates, with the gap weights q(r) = 3^r.  These are
    admissible: q(0) = 1, 3 q(a) = q(a+1), and q(a) + q(b) <= 2 q(a) <
    q(a+1) for b <= a.

    Subsets are indexed by their ``PositionSet`` masks 1 .. 2^n - 1 in
    order.  One subset table, built with the chart, serves every
    evaluation: ``members[j]`` lists the 0-based coordinates of subset j and
    ``containing[i]`` the indices of the subsets holding coordinate i, both
    ascending.
    """

    def __init__(self, n: int):
        if n < 1:
            raise DomainError(f"dimension must be >= 1, got {n}")
        if n > 12:
            raise SizeError(f"chart with 2^{n} - 1 affine forms refused")
        self.n = n
        self.masks = list(range(1, 1 << n))
        self.members = [[p - 1 for p in PositionSet.from_mask(m)] for m in self.masks]
        self.containing = [
            [j for j, mem in enumerate(self.members) if i in mem] for i in range(n)
        ]
        self.sizes = np.array([len(mem) for mem in self.members])
        self.qvec = np.array([float(self.q(int(s))) for s in self.sizes])
        # q(1..n): the level of each rank of the coordinate flag
        self.qranks = np.array([float(self.q(j)) for j in range(1, n + 1)])
        # indicator matrix: row = subset, column = coordinate
        self.M = np.zeros((len(self.masks), n))
        for j, mem in enumerate(self.members):
            self.M[j, mem] = 1.0
        holds = [set(inc) for inc in self.containing]

        def index(ts: set[int]) -> np.ndarray:
            return np.array(sorted(ts), dtype=np.intp)

        # the subsets holding both i and j (i <= j), for the entries of A
        self._pair_idx = {
            (i, j): index(holds[i] & holds[j]) for i in range(n) for j in range(i, n)
        }
        # for P_S, per subset S and i in S: the subsets holding i but not all of S
        self._ps_idx: list[list[np.ndarray]] = []
        for mem in self.members:
            supersets = set.intersection(*(holds[i] for i in mem))
            self._ps_idx.append([index(holds[i] - supersets) for i in mem])
        self._r_exact_terms: list[tuple[int, list[int]]] | None = None

    @staticmethod
    def q(r: int) -> int:
        """The gap weight q(r) = 3^r."""
        return 3**r

    # -- subset plumbing ----------------------------------------------------

    def mask_of(self, s: Iterable[int]) -> int:
        elements = [int(i) for i in s]
        for i in elements:
            if not 1 <= i <= self.n:
                raise DomainError(f"element {i} outside [1,{self.n}]")
        if not elements:
            raise DomainError("empty subset")
        return PositionSet(elements).mask

    def subset_of(self, mask: int) -> frozenset[int]:
        return frozenset(PositionSet.from_mask(mask))

    def index_of(self, s: Iterable[int]) -> int:
        return self.mask_of(s) - 1

    # -- scalar evaluations (generic over the scalar type) ------------------

    def f_eval(self, s: Iterable[int], y: Sequence):
        """The affine form -q(|S|) + sum of the S-coordinates of y."""
        return self.f_all(y)[self.index_of(s)]

    def f_all(self, y: Sequence) -> list:
        """All 2^n - 1 affine forms at y, in mask order."""
        out = []
        for mem in self.members:
            total = 0
            for i in mem:
                total = total + y[i]
            out.append(total - self.q(len(mem)))
        return out

    def omega_contains(self, y: Sequence) -> bool:
        return all(v > 0 for v in self.f_all(y))

    def F_eval(self, y: Sequence) -> list:
        """F_i(y) = product of f_S(y) over subsets containing i."""
        f = self.f_all(y)
        return [math.prod(f[j] for j in inc) for inc in self.containing]

    def jacobian_matrix(self, y: Sequence) -> list[list]:
        """dF_i/dy_j by the product rule; defined everywhere."""
        f = self.f_all(y)
        jac = [[0] * self.n for _ in range(self.n)]
        for row, inc in zip(jac, self.containing):
            for s in inc:
                prod = math.prod(f[j] for j in inc if j != s)
                for col in self.members[s]:
                    row[col] = row[col] + prod
        return jac

    def det_jacobian(self, y: Sequence):
        """det dF/dy, exact when y has rational entries."""
        jac = self.jacobian_matrix(y)
        if any(isinstance(v, Fraction) for v in y):
            return exact_det(jac)
        return float(np.linalg.det(np.array(jac, dtype=float)))

    def _r_exact_precompute(self) -> list[tuple[int, list[int]]]:
        if self._r_exact_terms is None:
            if self.n > EXACT_R_MAX_DIM:
                raise SizeError(
                    f"exact positive factor limited to n <= {EXACT_R_MAX_DIM}"
                )
            terms = []
            all_idx = range(len(self.masks))
            for combo in itertools.combinations(all_idx, self.n):
                rows = [[int(j in inc) for j in combo] for inc in self.containing]
                d = _bareiss_int(rows)
                if d:
                    compl = [j for j in all_idx if j not in combo]
                    terms.append((d * d, compl))
            self._r_exact_terms = terms
        return self._r_exact_terms

    def r_exact(self, y: Sequence):
        """R as the explicit sum of squared minors times complementary forms.

        Defined everywhere (in particular on the boundary, where the interior
        quotient degenerates); exact on rational input.  Limited to small n
        because the sum has one term per n-subset of the nonzero forms.
        """
        f = self.f_all(y)
        total = 0
        for d2, compl in self._r_exact_precompute():
            total = total + math.prod((f[j] for j in compl), start=d2)
        return total

    def p_s_eval(self, s: Iterable[int], y: Sequence):
        """P_S = sum over i in S of the product of f_T with i in T, S not in T."""
        mem = self.members[self.index_of(s)]
        inner = set(mem)
        f = self.f_all(y)
        total = 0
        for i in mem:
            total = total + math.prod(
                f[t]
                for t in self.containing[i]
                if not inner.issubset(self.members[t])
            )
        return total

    def witness_point(
        self, flags: MonotoneList, free_position: Fraction = Fraction(1, 2)
    ) -> tuple[Fraction, ...]:
        """A boundary point where exactly the listed forms vanish.

        The flag is extended to a maximal one; listed ranks sit at level
        q(k), free ranks strictly between q(k) and the midpoint toward
        q(k+1) (at the given fraction of that admissible slack, so distinct
        fractions give distinct points of the same boundary stratum);
        coordinates are the successive level differences.
        """
        free_position = Fraction(free_position)
        if not 0 < free_position < 1:
            raise DomainError("free_position must lie strictly inside (0, 1)")
        for s in flags:
            if any(not 1 <= i <= self.n for i in s):
                raise DomainError(f"subset {sorted(s)} outside [1,{self.n}]")
        listed = set(flags.subsets)
        full = self._extend_to_full_flag(list(flags.subsets))
        alphas: list[Fraction] = []
        for rank, t in enumerate(full, start=1):
            if t in listed:
                alphas.append(Fraction(self.q(rank)))
            else:
                lo, hi = self.q(rank), self.q(rank + 1)
                alphas.append(lo + Fraction(hi - lo, 2) * free_position)
        y = [Fraction(0)] * self.n
        prev: frozenset[int] = frozenset()
        for rank, t in enumerate(full, start=1):
            (j,) = t - prev
            y[j - 1] = alphas[rank - 1] - (alphas[rank - 2] if rank > 1 else 0)
            prev = t
        return tuple(y)

    def _extend_to_full_flag(
        self, chain: list[frozenset[int]]
    ) -> list[frozenset[int]]:
        full: list[frozenset[int]] = []
        prev: frozenset[int] = frozenset()
        for target in chain + [frozenset(range(1, self.n + 1))]:
            for i in sorted(target - prev):
                prev = prev | {i}
                full.append(prev)
        return full

    def vanishing_set(self, y: Sequence) -> list[frozenset[int]]:
        """Subsets whose affine form vanishes at y (exact on rational input)."""
        pairs = zip(self.members, self.f_all(y))
        return [frozenset(i + 1 for i in mem) for mem, v in pairs if v == 0]

    # -- batch evaluations ---------------------------------------------------

    def f_batch(self, ys: np.ndarray) -> np.ndarray:
        """(N, n) points -> (N, 2^n - 1) affine form values."""
        ys = np.asarray(ys, dtype=float)
        return ys @ self.M.T - self.qvec

    def F_batch(self, ys: np.ndarray) -> np.ndarray:
        f = self.f_batch(ys)
        return np.stack([f[:, inc].prod(axis=1) for inc in self.containing], axis=1)

    def omega_mask(self, ys: np.ndarray) -> np.ndarray:
        return (self.f_batch(ys) > 0).all(axis=1)

    def gram_batch(self, f: np.ndarray) -> np.ndarray:
        """(N, 2^n - 1) form values -> (N, n, n) matrices A."""
        inv = 1.0 / f
        n = self.n
        a = np.empty((f.shape[0], n, n))
        for i in range(n):
            for j in range(i, n):
                a[:, i, j] = inv[:, self._pair_idx[(i, j)]].sum(axis=1)
                a[:, j, i] = a[:, i, j]
        return a

    def p_s_batch(self, s: Iterable[int], f: np.ndarray) -> np.ndarray:
        si = self.index_of(s)
        total = np.zeros(f.shape[0])
        for idx in self._ps_idx[si]:
            total += f[:, idx].prod(axis=1) if len(idx) else 1.0
        return total

    def log_pullback_batch(
        self, f: np.ndarray, lam: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Log of the pulled-back integrand at rows of positive form values.

        ``f`` holds (N, 2^n - 1) form values and ``lam`` one exponent per
        subset, both in mask order, real or complex.  The integrand is the
        product over nonempty S of f_S^(|S| - 1 + sum of lam_T over the
        subsets T of S) * P_S^(lam_S), times the positive factor R = det(A) *
        product of all f_S.  Returns its log on the rows where det(A) > 0,
        and the mask of those rows: det(A) loses its sign to roundoff only
        in the far tail, where the integrand mass vanishes.
        """
        f = np.asarray(f, dtype=float)
        if not (f > 0).all():
            raise DomainError("nonpositive affine form: point not in the region")
        lam = np.asarray(lam)
        # sums over subsets: one cumulative sum per mask bit, over all 2^n
        # masks with the empty set's zero first
        sums = np.concatenate([np.zeros(1, lam.dtype), lam]).reshape((2,) * self.n)
        for axis in range(self.n):
            sums = sums.cumsum(axis=axis)
        # one more power of every form for the product in R
        expo = self.sizes - 1 + sums.reshape(-1)[1:] + 1.0
        sign, log_det = np.linalg.slogdet(self.gram_batch(f))
        usable = sign > 0
        fu = f[usable]
        log_g = np.log(fu) @ expo + log_det[usable]
        for j in np.flatnonzero(lam):
            log_g += lam[j] * np.log(self.p_s_batch(self.subset_of(self.masks[j]), fu))
        return log_g, usable

    # -- inversion -----------------------------------------------------------

    def interior_seed(self) -> float:
        """A diagonal level comfortably inside the region (all forms O(1))."""
        return self.q(self.n) / self.n + 1.0

    def _log_F_batch(self, f: np.ndarray) -> np.ndarray:
        """log F_i = sum of log f_S over subsets containing i (f positive)."""
        return np.log(f) @ self.M

    def _flag_coordinates(
        self, ys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per point: the coordinate sort order and the flag form values.

        The minimal affine form of each rank is attained by the prefix sets
        of the ascending coordinate sort, and those prefixes are nested, so
        they provide local coordinates that stay well conditioned however
        close the point sits to the boundary.
        """
        order = np.argsort(ys, axis=1)
        sorted_y = np.take_along_axis(ys, order, axis=1)
        levels = np.cumsum(sorted_y, axis=1)
        return order, levels - self.qranks[None, :]

    def _y_from_flag(self, order: np.ndarray, ff: np.ndarray) -> np.ndarray:
        """Rebuild points from flag form values along the given sort order."""
        levels = ff + self.qranks[None, :]
        diffs = np.diff(np.concatenate([np.zeros((len(ff), 1)), levels], axis=1))
        ys = np.empty_like(ff)
        np.put_along_axis(ys, order, diffs, axis=1)
        return ys

    def _newton_toward(
        self,
        ys: np.ndarray,
        log_targets: np.ndarray,
        log_tol: float | np.ndarray,
        max_iter: int | np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Damped Newton for log F(y) = log target in log-flag coordinates.

        Each row takes the first step length of the ladder 2^0 ... 2^-39
        that keeps it inside Omega and strictly lowers its log-residual.
        The ladder is searched in two batched passes: the full step on every
        row, then all shorter lengths at once on the rows it did not accept.
        A row stalls when no length improves it, or when a flag form rounds
        to zero or below so that its Jacobian is singular or not finite.  A
        stalled row is frozen for the rest of the call: its point, target
        and residual stay as they are, so every later iteration would try
        the same steps and fail again.  The iteration ends when no unfrozen
        row is above its tolerance ``log_tol``; ``max_iter`` caps the
        iterations of each row.  Each is one value, or one per row.

        Returns updated points, the log-residual norms and the mask of
        stalled rows; callers decide whether the norms are acceptable.
        Points must start inside Omega and never leave it.
        """
        ys = ys.copy()
        f = self.f_batch(ys)
        err = np.abs(self._log_F_batch(f) - log_targets).max(axis=1)
        stalled = np.zeros(len(ys), dtype=bool)
        caps = np.broadcast_to(max_iter, err.shape)
        for it in range(int(caps.max(initial=0))):
            idx = np.nonzero((err > log_tol) & ~stalled & (caps > it))[0]
            if not len(idx):
                break
            ya = ys[idx]
            fa = self.f_batch(ya)
            g = self._log_F_batch(fa) - log_targets[idx]
            a = self.gram_batch(fa)
            order, ff = self._flag_coordinates(ya)
            # d log F / d log ff_j = ff_j * (A[:, e_j] - A[:, e_{j+1}])
            cols = np.take_along_axis(
                a, order[:, None, :].repeat(self.n, axis=1), axis=2
            )
            jg = cols.copy()
            jg[:, :, :-1] -= cols[:, :, 1:]
            jg *= ff[:, None, :]
            # the forms are positive, but their flag sums round on their own
            sound = (ff > 0).all(axis=1) & np.isfinite(jg).all(axis=(1, 2))
            if not sound.all():
                stalled[idx[~sound]] = True
                idx, order, ff, jg, g = (
                    v[sound] for v in (idx, order, ff, jg, g)
                )
                if not len(idx):
                    continue
            dphi = np.linalg.solve(jg, -g[..., None])[..., 0]
            rows = (order, ff, dphi, log_targets[idx], err[idx])
            best, best_err, found = self._first_step(*rows, _STEP_LADDER[:1])
            rest = np.nonzero(~found)[0]
            if len(rest):
                best[rest], best_err[rest], found[rest] = self._first_step(
                    *(r[rest] for r in rows), _STEP_LADDER[1:]
                )
            stalled[idx[~found]] = True
            ys[idx[found]] = best[found]
            err[idx[found]] = best_err[found]
        return ys, err, stalled

    def _first_step(
        self,
        order: np.ndarray,
        ff: np.ndarray,
        dphi: np.ndarray,
        log_targets: np.ndarray,
        err: np.ndarray,
        lams: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per row, the first step length in ``lams`` whose trial point lies
        in Omega with a log-residual strictly below the row's ``err``.

        Every (row, length) trial is evaluated, at most ``_TRIAL_ROWS`` at a
        time.  Returns the accepted points, their log-residuals and the mask
        of rows that accepted a length; the other rows' entries mean nothing.
        """
        k = len(lams)
        per_chunk = max(1, _TRIAL_ROWS // k)
        best = np.empty_like(ff)
        best_err = np.empty(len(ff))
        found = np.zeros(len(ff), dtype=bool)
        for lo in range(0, len(ff), per_chunk):
            part = slice(lo, lo + per_chunk)
            m = len(ff[part])

            def stack(v: np.ndarray) -> np.ndarray:
                return np.repeat(v[part], k, axis=0)

            lam = np.tile(lams, m)
            trial = self._y_from_flag(
                stack(order), stack(ff) * np.exp(lam[:, None] * stack(dphi))
            )
            f_t = self.f_batch(trial)
            ok = (f_t > 0).all(axis=1)
            new_err = np.full(len(trial), np.inf)
            if ok.any():
                new_err[ok] = np.abs(
                    self._log_F_batch(f_t[ok]) - stack(log_targets)[ok]
                ).max(axis=1)
            good = (new_err < stack(err)).reshape(m, k)
            pick = good.argmax(axis=1) + k * np.arange(m)
            best[part] = trial[pick]
            best_err[part] = new_err[pick]
            found[part] = good.any(axis=1)
        return best, best_err, found

    def F_inverse_batch(self, xs: np.ndarray, tol: float = 1e-10) -> np.ndarray:
        """Preimages in Omega of (N, n) orthant points.

        Walks a homotopy from the image of a fixed interior point to the
        target, correcting onto the path with damped Newton at every stage
        (``_inverse_float_best``), then polishes at the true target.  The
        path interpolates the image points geometrically: it stays in the
        orthant (so its preimage stays in Omega) and each stage moves every
        image coordinate by a bounded ratio, which keeps the stage Jacobians
        well conditioned across the many decades the image of the start
        point may sit away from the target.  A row whose polished point
        misses the residual bound or leaves Omega is solved again from the
        seed on the fixed schedule of ``_FLOW_STEPS`` stages before any
        NumericError is raised.
        """
        xs = _orthant_targets(xs)
        # a log-residual of eps forces the componentwise relative error of F
        # under roughly 2 eps, hence the absolute residual under the cap
        scale = np.maximum(np.abs(xs).max(axis=1), 1.0)
        log_tol = 0.5 * tol * scale / np.abs(xs).max(axis=1)

        def polished(rows: np.ndarray, first_stage: int) -> np.ndarray:
            ys = self._inverse_float_best(xs[rows], first_stage)
            return self._newton_toward(
                ys, np.log(xs[rows]), log_tol[rows], _POLISH_ITER
            )[0]

        ys = polished(np.arange(len(xs)), _FIRST_STAGE)
        final = np.abs(self.F_batch(ys) - xs).max(axis=1)
        redo = np.flatnonzero((final > tol * scale) | ~self.omega_mask(ys))
        if len(redo):
            ys[redo] = polished(redo, 1)
        final = np.abs(self.F_batch(ys) - xs).max(axis=1)
        if (final > tol * scale).any():
            raise NumericError(
                "inverse iteration did not reach tolerance",
                max_residual=float(final.max()),
                tol=tol,
            )
        if not self.omega_mask(ys).all():
            raise NumericError("inverse left the admissible region")
        return ys

    def _inverse_float_best(
        self, xs: np.ndarray, first_stage: int = _FIRST_STAGE
    ) -> np.ndarray:
        """Best float64 preimages without a tolerance guarantee: the
        homotopy of ``F_inverse_batch`` without its final polish, correcting
        each stage to the log-residual ``_STAGE_TOL``.  Every float inverse
        walks this one schedule; ``first_stage=1`` is only for the retries.

        The path is measured in floor stages of 1/``_FLOW_STEPS``, and each
        row walks it with its own stage length, ``first_stage`` floor
        stages at first.  A longer stage gets ``_STAGE_ITER`` Newton steps.
        It is kept, and the length doubles, when the row reaches
        ``_STAGE_TOL`` or stalls (the path saturates near the top-rank
        boundary at n = 4, and a stall is the best float point there);
        otherwise the row goes back to its last point and the length
        halves.  A floor stage gets ``_FLOOR_ITER`` steps and is always
        kept, and a row at the floor stays there, so ``first_stage=1`` is
        the fixed schedule of ``_FLOW_STEPS`` equal stages.

        Near the top-rank boundary the form values drop below the coordinate
        quantization of binary64 points, so the float path saturates; the
        exact polish picks up from here.
        """
        ys = np.full((len(xs), self.n), self.interior_seed())
        log0 = self._log_F_batch(self.f_batch(ys))
        logx = np.log(xs)
        done = np.zeros(len(xs), dtype=np.intp)
        length = np.full(len(xs), first_stage, dtype=np.intp)
        while len(live := np.flatnonzero(done < _FLOW_STEPS)):
            to = np.minimum(done[live] + length[live], _FLOW_STEPS)
            s = (to / _FLOW_STEPS)[:, None]
            floor = length[live] == 1
            moved, err, stalled = self._newton_toward(
                ys[live],
                (1 - s) * log0[live] + s * logx[live],
                _STAGE_TOL,
                np.where(floor, _FLOOR_ITER, _STAGE_ITER),
            )
            kept = floor | stalled | (err <= _STAGE_TOL)
            ys[live[kept]] = moved[kept]
            done[live[kept]] = to[kept]
            length[live] = np.where(
                floor, 1, np.where(kept, 2 * length[live], length[live] // 2)
            )
        return ys

    def F_inverse_exact_batch(
        self, xs: np.ndarray, tol: Fraction | float = Fraction(1, 10**9)
    ) -> list[tuple[Fraction, ...]]:
        """Preimages with an exactly verified residual bound, as rationals.

        Floating point cannot certify (or even represent) preimages once the
        top-rank form falls under the coordinate quantization, so after one
        float homotopy shared by all targets each point is polished with
        Newton steps in exact rational arithmetic, its iterates rounded to a
        dyadic grid to keep the arithmetic bounded.  A point whose polish
        fails starts again from the fixed schedule of ``_FLOW_STEPS`` float
        stages before any NumericError is raised.  Each returned point
        satisfies max_i |F(y)_i - x_i| <= tol exactly and lies in the open
        region (exact sign checks).
        """
        xs = _orthant_targets(xs)
        tol = Fraction(tol)
        out = []
        for x, start in zip(xs, self._inverse_float_best(xs)):
            try:
                out.append(self._polish_exact(x, start, tol))
            except NumericError:
                fixed = self._inverse_float_best(x[None], first_stage=1)[0]
                out.append(self._polish_exact(x, fixed, tol))
        return out

    def _polish_exact(
        self, x: np.ndarray, start: np.ndarray, tol: Fraction
    ) -> tuple[Fraction, ...]:
        """Exact damped Newton from a float start toward the target x."""
        xf = [Fraction(v) for v in x]

        def residual(y: list[Fraction]) -> list[Fraction]:
            return [xi - fi for xi, fi in zip(xf, self.F_eval(y))]

        grid = 1 << _GRID_BITS
        y = [Fraction(round(Fraction(float(v)) * grid), grid) for v in start]
        if not self.omega_contains(y):
            # quantization pushed a form nonpositive; nudge the top level up
            bump = Fraction(1, 1 << (_GRID_BITS // 2))
            y = [v + bump for v in y]
        res = residual(y)
        for step in range(_EXACT_STEPS + 1):
            err = max(abs(r) for r in res)
            if err <= tol:
                return tuple(y)
            if step == _EXACT_STEPS:
                raise NumericError(
                    "exact polish did not reach tolerance",
                    residual=float(err),
                    tol=float(tol),
                )
            dy = _solve_exact(self.jacobian_matrix(y), res)
            lam = Fraction(1)
            for _halving in range(60):
                trial = [
                    Fraction(round((v + lam * d) * grid), grid)
                    for v, d in zip(y, dy)
                ]
                if self.omega_contains(trial):
                    trial_res = residual(trial)
                    if max(abs(r) for r in trial_res) < err:
                        y, res = trial, trial_res
                        break
                lam /= 2
            else:
                raise NumericError(
                    "exact polish stalled", residual=float(err), tol=float(tol)
                )

    # -- flag-coordinate sampling support ------------------------------------

    def forms_from_flag(self, perms: np.ndarray, ffs: np.ndarray) -> np.ndarray:
        """All affine forms of points given by flag data, evaluated stably.

        A point is described by its ascending coordinate values d_j =
        level_j - level_{j-1} with level_j = q(j) + ff_j, assigned to
        coordinate slots by a permutation (y[perm[j]] = d_j).  Every form
        then splits as an exact integer constant plus a small signed
        combination of the flag values, so forms many orders of magnitude
        below the coordinate scale keep full relative accuracy.
        """
        perms = np.asarray(perms, dtype=np.intp)
        ffs = np.asarray(ffs, dtype=float)
        # memb[p, s, j] = 1 if the rank-j value lands in subset s
        memb = self.M[:, perms].transpose(1, 0, 2)
        eps = memb.copy()
        eps[:, :, :-1] -= memb[:, :, 1:]
        const = eps @ self.qranks - self.qvec[None, :]
        return const + np.einsum("psj,pj->ps", eps, ffs)

    def flag_ranges(self) -> tuple[np.ndarray, np.ndarray]:
        """Empirical per-rank ranges of the sorted flag forms over the
        pulled-back simplex, padded multiplicatively in log scale.

        The probes are fixed (``_PROBES`` seeded targets, inverted on the
        fitted homotopy schedule of every float inverse), so the ranges
        depend on n alone.
        """
        if self.n > EXACT_R_MAX_DIM:
            raise NumericError(
                "flag range probing unreliable beyond n=4: top-rank forms "
                "fall below float64 coordinate quantization"
            )
        rng = np.random.default_rng(np.random.SeedSequence([_PROBE_SEED, self.n]))
        # mix concentrations: flat probes cover the bulk, small alpha pushes
        # toward faces and vertices where individual flag forms peak
        blocks = []
        for alpha, share in ((1.0, 2), (0.3, 4), (3.0, 4)):
            g = rng.gamma(alpha, size=(_PROBES // share, self.n + 1))
            blocks.append(g[:, : self.n] / g.sum(axis=1, keepdims=True))
        xs = np.clip(np.vstack(blocks), 1e-12, None)
        ys = self._inverse_float_best(xs)
        _, ff = self._flag_coordinates(ys)
        ok = (ff > 0).all(axis=1)
        if ok.sum() < 0.9 * len(xs):
            raise NumericError(
                "bounding range probing failed: too many probes below the "
                "coordinate quantization",
                kept=int(ok.sum()),
                probes=len(xs),
            )
        ff = ff[ok]
        return ff.min(axis=0) / _PROBE_PAD, ff.max(axis=0) * _PROBE_PAD


def _orthant_targets(xs: np.ndarray) -> np.ndarray:
    """(N, n) targets as floats, refused unless all lie in the open orthant."""
    xs = np.asarray(xs, dtype=float)
    if not (xs > 0).all():
        raise DomainError("targets must lie in the open positive orthant")
    return xs

