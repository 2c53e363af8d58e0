"""Orthant blowup machinery: gap functions, the region Omega, the polynomial
map F, Jacobian identities, boundary witness points, numerical inversion and
the pullback integrand.

Scalar entry points accept plain Python sequences and are generic over the
scalar type, so they run exactly on ``fractions.Fraction`` inputs; sign
statements at boundary points are therefore checked without tolerances.
Batch entry points (``*_batch``) take ``(N, n)`` float arrays and vectorize
over points.  A chart is immutable once built; evaluations are pure.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError, NumericError, SizeError
from .pairings import PairPartition

__all__ = [
    "GapFunction",
    "MonotoneList",
    "BlowupChart",
    "ExponentAssignment",
    "all_monotone_lists",
    "exact_det",
]

EXACT_R_MAX_DIM = 4


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


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
        d = 1
        for x in fr:
            d = _lcm(d, x.denominator)
        scale *= d
        im.append([int(x * d) for x in fr])
    return Fraction(_bareiss_int(im), scale)


def _solve_exact(matrix: Sequence[Sequence], rhs: Sequence) -> list[Fraction]:
    """Exact solve of a small rational linear system (Gaussian elimination)."""
    n = len(rhs)
    a = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for k in range(n):
        piv = max(range(k, n), key=lambda r: abs(a[r][k]))
        if a[piv][k] == 0:
            raise NumericError("singular system in exact solve")
        a[k], a[piv] = a[piv], a[k]
        for r in range(k + 1, n):
            factor = a[r][k] / a[k][k]
            if factor:
                for c in range(k, n + 1):
                    a[r][c] -= factor * a[k][c]
    out = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        s = a[k][n] - sum(a[k][c] * out[c] for c in range(k + 1, n))
        out[k] = s / a[k][k]
    return out


class GapFunction:
    """Positive integer weights q(0..n) steering the affine forms.

    Admissibility (checked at construction): q(0) = 1, q(a) + q(b) < q(max+1)
    for all a, b below the top index, and 3 q(a) <= q(a+1).
    """

    __slots__ = ("values",)

    def __init__(self, values: Sequence[int]):
        vals = tuple(int(v) for v in values)
        n = len(vals) - 1
        if n < 1:
            raise DomainError("need q(0) and at least q(1)")
        if any(v <= 0 for v in vals):
            raise DomainError(f"gap values must be positive, got {vals}")
        if vals[0] != 1:
            raise DomainError(f"q(0) must be 1, got {vals[0]}")
        for a in range(n):
            if 3 * vals[a] > vals[a + 1]:
                raise DomainError(f"3*q({a}) <= q({a+1}) fails: {vals}")
            for b in range(a + 1):
                if vals[a] + vals[b] >= vals[a + 1]:
                    raise DomainError(
                        f"q({a}) + q({b}) < q({a+1}) fails: {vals}"
                    )
        object.__setattr__(self, "values", vals)

    def __setattr__(self, *a):
        raise AttributeError("GapFunction is immutable")

    @classmethod
    def powers_of_three(cls, n: int) -> GapFunction:
        """The natural default q(r) = 3^r."""
        return cls([3**r for r in range(n + 1)])

    def __call__(self, r: int) -> int:
        if r == len(self.values):
            # virtual top value, only used to position free witness levels
            return 3 * self.values[-1]
        return self.values[r]

    @property
    def top(self) -> int:
        return len(self.values) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, GapFunction) and self.values == other.values

    def __repr__(self) -> str:
        return f"GapFunction({list(self.values)})"


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


@dataclass(frozen=True)
class ExponentAssignment:
    """One complex exponent per nonempty subset (zero where unspecified)."""

    n: int
    values: Mapping[frozenset[int], complex]

    @classmethod
    def from_partition(cls, partition: PairPartition, h) -> ExponentAssignment:
        """Exponent 2H - 2 on the interval image of the partition."""
        acc: dict[frozenset[int], complex] = {}
        for iv in partition.interval_image:
            s = frozenset(iv.members())
            acc[s] = acc.get(s, 0) + (2 * h - 2)
        return cls(partition.size, acc)

    def get(self, s: frozenset[int]):
        return self.values.get(s, 0)

    @property
    def support(self) -> tuple[frozenset[int], ...]:
        return tuple(s for s, v in self.values.items() if v != 0)


class BlowupChart:
    """Dimension n plus a gap function; hosts all blowup evaluations.

    Subsets of [1, n] are indexed by bitmask order 1 .. 2^n - 1 (bit i-1 set
    iff element i belongs); the indexing is stable and cached on the chart.
    """

    def __init__(self, n: int, q: GapFunction | None = None):
        if n < 1:
            raise DomainError(f"dimension must be >= 1, got {n}")
        if n > 12:
            raise SizeError(f"chart with 2^{n} - 1 affine forms refused")
        q = q if q is not None else GapFunction.powers_of_three(n)
        if q.top < n:
            raise DomainError(f"gap function covers ranks 0..{q.top}, need {n}")
        self.n = n
        self.q = q
        nm = (1 << n) - 1
        self.masks = list(range(1, nm + 1))
        self.sizes = np.array([m.bit_count() for m in self.masks])
        self.qvec = np.array([float(q(int(s))) for s in self.sizes])
        # indicator matrix: row = subset, column = coordinate
        self.M = np.array(
            [[1.0 if m >> i & 1 else 0.0 for i in range(n)] for m in self.masks]
        )
        self.contains = [
            np.array([bool(m >> i & 1) for m in self.masks]) for i in range(n)
        ]
        self._pair_idx = {
            (i, j): np.nonzero(self.contains[i] & self.contains[j])[0]
            for i in range(n)
            for j in range(n)
        }
        # complementary index lists for P_S: for subset index si and i in S,
        # the subsets T with i in T and S not a subset of T
        self._ps_idx: list[list[np.ndarray]] = []
        for si, m in enumerate(self.masks):
            rows = []
            for i in range(n):
                if not m >> i & 1:
                    continue
                idx = [
                    tj
                    for tj, t in enumerate(self.masks)
                    if (t >> i & 1) and (t & m) != m
                ]
                rows.append(np.array(idx, dtype=np.intp))
            self._ps_idx.append(rows)
        self._r_exact_terms: list[tuple[int, list[int]]] | None = None
        self._flag_range_cache: dict = {}

    def descriptor(self) -> dict:
        """JSON-ready chart description: dimension and gap values."""
        return {"n": self.n, "q": [self.q(r) for r in range(self.n + 1)]}

    # -- subset plumbing ----------------------------------------------------

    def mask_of(self, s: Iterable[int]) -> int:
        m = 0
        for i in s:
            if not 1 <= int(i) <= self.n:
                raise DomainError(f"element {i} outside [1,{self.n}]")
            m |= 1 << (int(i) - 1)
        if m == 0:
            raise DomainError("empty subset")
        return m

    def subset_of(self, mask: int) -> frozenset[int]:
        return frozenset(i + 1 for i in range(self.n) if mask >> i & 1)

    def index_of(self, s: Iterable[int]) -> int:
        return self.mask_of(s) - 1

    # -- scalar evaluations (generic over the scalar type) ------------------

    def f_eval(self, s: Iterable[int], y: Sequence):
        """The affine form -q(|S|) + sum of the S-coordinates of y."""
        m = self.mask_of(s)
        total = 0
        size = 0
        for i in range(self.n):
            if m >> i & 1:
                total += y[i]
                size += 1
        return total - self.q(size)

    def f_all(self, y: Sequence) -> list:
        """All 2^n - 1 affine forms at y, in mask order."""
        out = []
        for m in self.masks:
            total = 0
            size = 0
            for i in range(self.n):
                if m >> i & 1:
                    total += y[i]
                    size += 1
            out.append(total - self.q(size))
        return out

    def omega_contains(self, y: Sequence) -> bool:
        return all(v > 0 for v in self.f_all(y))

    def F_eval(self, y: Sequence) -> list:
        """F_i(y) = product of f_S(y) over subsets containing i."""
        f = self.f_all(y)
        out = []
        for i in range(self.n):
            prod = 1
            for j, m in enumerate(self.masks):
                if m >> i & 1:
                    prod = prod * f[j]
            out.append(prod)
        return out

    def jacobian_matrix(self, y: Sequence) -> list[list]:
        """dF_i/dy_j by the product rule; defined everywhere."""
        f = self.f_all(y)
        jac = [[0] * self.n for _ in range(self.n)]
        for i in range(self.n):
            inc = [(j, m) for j, m in enumerate(self.masks) if m >> i & 1]
            for s_idx, s_mask in inc:
                prod = 1
                for j, _m in inc:
                    if j != s_idx:
                        prod = prod * f[j]
                for col in range(self.n):
                    if s_mask >> col & 1:
                        jac[i][col] = jac[i][col] + prod
        return jac

    def det_jacobian(self, y: Sequence):
        """det dF/dy, exact when y has rational entries."""
        jac = self.jacobian_matrix(y)
        if any(isinstance(v, Fraction) for v in y):
            return exact_det(jac)
        return float(np.linalg.det(np.array(jac, dtype=float)))

    def gram_matrix(self, y: Sequence) -> list[list]:
        """A with entries sum over subsets containing both i and j of 1/f_S.

        Requires every affine form nonzero at y; the Jacobian factors as
        diag(F) @ A there.
        """
        f = self.f_all(y)
        if any(v == 0 for v in f):
            raise DomainError("gram matrix path needs all affine forms nonzero")
        a = [[0] * self.n for _ in range(self.n)]
        for j, m in enumerate(self.masks):
            inv = (Fraction(1) if isinstance(f[j], Fraction) else 1.0) / f[j]
            idx = [i for i in range(self.n) if m >> i & 1]
            for i in idx:
                for col in idx:
                    a[i][col] = a[i][col] + inv
        return a

    def r_interior(self, y: Sequence):
        """R = det(A) * product of all affine forms; needs all forms nonzero."""
        a = self.gram_matrix(y)
        f = self.f_all(y)
        if any(isinstance(v, Fraction) for v in y):
            det = exact_det(a)
        else:
            det = float(np.linalg.det(np.array(a, dtype=float)))
        prod = det
        for v in f:
            prod = prod * v
        return prod

    def _r_exact_precompute(self) -> list[tuple[int, list[int]]]:
        if self._r_exact_terms is None:
            if self.n > EXACT_R_MAX_DIM:
                raise SizeError(
                    f"exact positive factor limited to n <= {EXACT_R_MAX_DIM}"
                )
            terms = []
            all_idx = range(len(self.masks))
            for combo in itertools.combinations(all_idx, self.n):
                rows = [
                    [1 if self.masks[j] >> i & 1 else 0 for j in combo]
                    for i in range(self.n)
                ]
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
            prod = d2
            for j in compl:
                prod = prod * f[j]
            total = total + prod
        return total

    def p_s_eval(self, s: Iterable[int], y: Sequence):
        """P_S = sum over i in S of the product of f_T with i in T, S not in T."""
        m = self.mask_of(s)
        f = self.f_all(y)
        total = 0
        for i in range(self.n):
            if not m >> i & 1:
                continue
            prod = 1
            for j, t in enumerate(self.masks):
                if (t >> i & 1) and (t & m) != m:
                    prod = prod * f[j]
            total = total + prod
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
        f = self.f_all(y)
        return [
            self.subset_of(self.masks[j]) for j, v in enumerate(f) if v == 0
        ]

    def pullback_integrand(self, lam: ExponentAssignment, y: Sequence):
        """Integrand of the pulled-back simplex integral at an interior point.

        Product over nonempty S of f_S^(|S| - 1 + sum of exponents on subsets
        of S) * P_S^(lambda_S), times the positive factor R.  All bases must
        be positive, which holds strictly inside the pulled-back simplex.
        """
        if lam.n != self.n:
            raise DomainError(f"exponents for n={lam.n}, chart has n={self.n}")
        yf = [float(v) for v in y]
        f = self.f_all(yf)
        if any(v <= 0 for v in f):
            raise DomainError("nonpositive affine form: point not interior")
        if sum(self.F_eval(yf)) >= 1:
            raise DomainError("coordinate sum of F at least 1: point not interior")
        # exponent on f_S accumulates lambdas of all subsets of S
        total: complex | float = self.r_interior(yf)
        for j, m in enumerate(self.masks):
            expo = self.sizes[j] - 1 + sum(
                lam.get(self.subset_of(t)) for t in self.masks if t & m == t
            )
            total = total * _positive_power(f[j], expo)
        for s, v in lam.values.items():
            if v != 0:
                total = total * _positive_power(self.p_s_eval(s, yf), v)
        if isinstance(total, complex) and total.imag == 0:
            return total.real
        return total

    # -- batch evaluations ---------------------------------------------------

    def f_batch(self, ys: np.ndarray) -> np.ndarray:
        """(N, n) points -> (N, 2^n - 1) affine form values."""
        ys = np.asarray(ys, dtype=float)
        return ys @ self.M.T - self.qvec

    def F_batch(self, ys: np.ndarray, f: np.ndarray | None = None) -> np.ndarray:
        f = self.f_batch(ys) if f is None else f
        cols = [f[:, self.contains[i]].prod(axis=1) for i in range(self.n)]
        return np.stack(cols, axis=1)

    def omega_mask(self, ys: np.ndarray, f: np.ndarray | None = None) -> np.ndarray:
        f = self.f_batch(ys) if f is None else f
        return (f > 0).all(axis=1)

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

    def det_jacobian_batch(self, ys: np.ndarray) -> np.ndarray:
        f = self.f_batch(ys)
        det_a = np.linalg.det(self.gram_batch(f))
        return det_a * (f**self.sizes[None, :]).prod(axis=1)

    def jacobian_batch(self, ys: np.ndarray, f: np.ndarray | None = None) -> np.ndarray:
        f = self.f_batch(ys) if f is None else f
        return self.F_batch(ys, f)[:, :, None] * self.gram_batch(f)

    def p_s_batch(self, s: Iterable[int], f: np.ndarray) -> np.ndarray:
        si = self.index_of(s)
        total = np.zeros(f.shape[0])
        for idx in self._ps_idx[si]:
            total += f[:, idx].prod(axis=1) if len(idx) else 1.0
        return total

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
        qranks = np.array([self.q(j) for j in range(1, self.n + 1)], dtype=float)
        return order, levels - qranks[None, :]

    def _y_from_flag(self, order: np.ndarray, ff: np.ndarray) -> np.ndarray:
        """Rebuild points from flag form values along the given sort order."""
        qranks = np.array([self.q(j) for j in range(1, self.n + 1)], dtype=float)
        levels = ff + qranks[None, :]
        diffs = np.diff(np.concatenate([np.zeros((len(ff), 1)), levels], axis=1))
        ys = np.empty_like(ff)
        np.put_along_axis(ys, order, diffs, axis=1)
        return ys

    def _newton_toward(
        self,
        ys: np.ndarray,
        log_targets: np.ndarray,
        log_tol: np.ndarray,
        max_iter: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Damped Newton for log F(y) = log target in log-flag coordinates.

        Returns updated points and the log-residual norms; callers decide
        whether the norms are acceptable.  Points must start inside Omega
        and never leave it (trial steps are shortened otherwise).
        """
        ys = ys.copy()
        f = self.f_batch(ys)
        err = np.abs(self._log_F_batch(f) - log_targets).max(axis=1)
        for _ in range(max_iter):
            active = err > log_tol
            if not active.any():
                break
            ya = ys[active]
            fa = self.f_batch(ya)
            g = self._log_F_batch(fa) - log_targets[active]
            a = self.gram_batch(fa)
            order, ff = self._flag_coordinates(ya)
            # d log F / d log ff_j = ff_j * (A[:, e_j] - A[:, e_{j+1}])
            cols = np.take_along_axis(
                a, order[:, None, :].repeat(self.n, axis=1), axis=2
            )
            jg = cols.copy()
            jg[:, :, :-1] -= cols[:, :, 1:]
            jg *= ff[:, None, :]
            dphi = np.linalg.solve(jg, -g[..., None])[..., 0]
            lam = np.ones(len(ya))
            best = ya.copy()
            best_err = err[active].copy()
            improved = np.zeros(len(ya), dtype=bool)
            for _halving in range(40):
                todo = ~improved
                if not todo.any():
                    break
                ff_t = ff[todo] * np.exp(lam[todo, None] * dphi[todo])
                trial = self._y_from_flag(order[todo], ff_t)
                f_t = self.f_batch(trial)
                ok = (f_t > 0).all(axis=1)
                new_err = np.full(todo.sum(), np.inf)
                if ok.any():
                    new_err[ok] = np.abs(
                        self._log_F_batch(f_t[ok]) - log_targets[active][todo][ok]
                    ).max(axis=1)
                good = ok & (new_err < best_err[todo])
                sel = np.nonzero(todo)[0][good]
                best[sel] = trial[good]
                best_err[sel] = new_err[good]
                improved[sel] = True
                lam[~improved] *= 0.5
            if not improved.any():
                break  # no progress possible; caller checks the residual
            ys[active] = best
            err = err.copy()
            err[active] = best_err
        return ys, err

    def F_inverse_batch(
        self,
        xs: np.ndarray,
        tol: float = 1e-10,
        flow_steps: int = 64,
        polish_budget: int = 200,
    ) -> np.ndarray:
        """Preimages in Omega of orthant points.

        Walks a homotopy from the image of a fixed interior point to the
        target in a fixed number of steps, correcting onto the path with
        damped Newton at every stage, then polishes at the true target.
        The path interpolates the image points geometrically: it stays in
        the orthant (so its preimage stays in Omega) and each stage moves
        every image coordinate by a bounded ratio, which keeps the stage
        Jacobians well conditioned across the many decades the image of the
        start point may sit away from the target.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim == 1:
            return self.F_inverse_batch(xs[None, :], tol, flow_steps, polish_budget)[0]
        if (xs <= 0).any():
            raise DomainError("targets must lie in the open positive orthant")
        ys = np.full((len(xs), self.n), self.interior_seed())
        log0 = self._log_F_batch(self.f_batch(ys))
        logx = np.log(xs)
        stage_tol = np.full(len(xs), 1e-8)
        for step in range(1, flow_steps + 1):
            s = step / flow_steps
            stage = (1 - s) * log0 + s * logx
            ys, _err = self._newton_toward(ys, stage, stage_tol, max_iter=30)
        # a log-residual of eps forces the componentwise relative error of F
        # under roughly 2 eps, hence the absolute residual under the cap
        scale = np.maximum(np.abs(xs).max(axis=1), 1.0)
        log_tol = 0.5 * tol * scale / np.abs(xs).max(axis=1)
        ys, err = self._newton_toward(ys, logx, log_tol, polish_budget)
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

    def F_inverse(self, x: Sequence, tol: float = 1e-10) -> tuple[float, ...]:
        return tuple(self.F_inverse_batch(np.asarray(x, dtype=float), tol))

    def _inverse_float_best(self, xs: np.ndarray, flow_steps: int = 64) -> np.ndarray:
        """Best float64 preimages without a tolerance guarantee.

        Near the top-rank boundary the form values drop below the coordinate
        quantization of binary64 points, so the float path saturates; the
        exact polish picks up from here.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.full((len(xs), self.n), self.interior_seed())
        log0 = self._log_F_batch(self.f_batch(ys))
        logx = np.log(xs)
        stage_tol = np.full(len(xs), 1e-9)
        for step in range(1, flow_steps + 1):
            s = step / flow_steps
            ys, _ = self._newton_toward(ys, (1 - s) * log0 + s * logx, stage_tol, 30)
        return ys

    def F_inverse_exact_batch(
        self,
        xs: np.ndarray,
        tol: Fraction | float = Fraction(1, 10**9),
        max_steps: int = 10,
        precision_bits: int = 320,
    ) -> list[tuple[Fraction, ...]]:
        """Exact preimages for many targets; one shared float stage."""
        xs = np.asarray(xs, dtype=float)
        starts = self._inverse_float_best(xs)
        return [
            self.F_inverse_exact(
                x, tol, max_steps, precision_bits, _start=start
            )
            for x, start in zip(xs, starts)
        ]

    def F_inverse_exact(
        self,
        x: Sequence,
        tol: Fraction | float = Fraction(1, 10**9),
        max_steps: int = 10,
        precision_bits: int = 320,
        _start: np.ndarray | None = None,
    ) -> tuple[Fraction, ...]:
        """Preimage with an exactly verified residual bound, as rationals.

        Floating point cannot certify (or even represent) preimages once the
        top-rank form falls under the coordinate quantization, so after the
        float stage this polishes with Newton steps in exact rational
        arithmetic, rounding iterates to dyadic rationals of the given
        precision to keep the arithmetic bounded.  The returned point
        satisfies max_i |F(y)_i - x_i| <= tol exactly and lies in the open
        region (exact sign checks).
        """
        tol = Fraction(tol)
        xf = [Fraction(v) for v in x]
        if any(v <= 0 for v in xf):
            raise DomainError("targets must lie in the open positive orthant")
        if _start is None:
            _start = self._inverse_float_best(
                np.array([[float(v) for v in xf]], dtype=float)
            )[0]
        start = _start
        grid = 1 << precision_bits
        y = [Fraction(round(Fraction(float(v)) * grid), grid) for v in start]
        if not self.omega_contains(y):
            # quantization pushed a form nonpositive; nudge the top level up
            bump = Fraction(1, 1 << (precision_bits // 2))
            y = [v + bump for v in y]
        for _ in range(max_steps):
            res = [xi - fi for xi, fi in zip(xf, self.F_eval(y))]
            err = max(abs(r) for r in res)
            if err <= tol:
                return tuple(y)
            jac = self.jacobian_matrix(y)
            dy = _solve_exact(jac, res)
            lam = Fraction(1)
            for _halving in range(60):
                trial = [
                    Fraction(round((v + lam * d) * grid), grid)
                    for v, d in zip(y, dy)
                ]
                if self.omega_contains(trial):
                    trial_err = max(
                        abs(xi - fi) for xi, fi in zip(xf, self.F_eval(trial))
                    )
                    if trial_err < err:
                        y = trial
                        break
                lam /= 2
            else:
                raise NumericError(
                    "exact polish stalled", residual=float(err), tol=float(tol)
                )
        res = [xi - fi for xi, fi in zip(xf, self.F_eval(y))]
        err = max(abs(r) for r in res)
        if err <= tol:
            return tuple(y)
        raise NumericError(
            "exact polish did not reach tolerance",
            residual=float(err),
            tol=float(tol),
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
        qranks = np.array(
            [float(self.q(j)) for j in range(1, self.n + 1)]
        )
        # memb[p, s, j] = 1 if the rank-j value lands in subset s
        memb = self.M[:, perms].transpose(1, 0, 2)
        eps = memb.copy()
        eps[:, :, :-1] -= memb[:, :, 1:]
        const = eps @ qranks - self.qvec[None, :]
        return const + np.einsum("psj,pj->ps", eps, ffs)

    def flag_ranges(
        self, probes: int = 512, seed: int = 202, pad: float = 8.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Empirical per-rank ranges of the sorted flag forms over the
        pulled-back simplex, padded multiplicatively in log scale.

        Results are cached on the chart.  The top rank's lower end is pushed
        further toward zero: the pulled-back integrand carries a positive
        power of the top form, so the extra range costs little variance and
        guards against the quantization noise of the float probes.
        """
        key = (probes, seed, pad)
        cached = self._flag_range_cache.get(key)
        if cached is not None:
            return cached
        if self.n > EXACT_R_MAX_DIM:
            raise NumericError(
                "flag range probing unreliable beyond n=4: top-rank forms "
                "fall below float64 coordinate quantization"
            )
        rng = np.random.default_rng(np.random.SeedSequence([seed, self.n]))
        # mix concentrations: flat probes cover the bulk, small alpha pushes
        # toward faces and vertices where individual flag forms peak
        blocks = []
        for alpha, count in ((1.0, probes // 2), (0.3, probes // 4), (3.0, probes // 4)):
            g = rng.gamma(alpha, size=(count, self.n + 1))
            blocks.append(g[:, : self.n] / g.sum(axis=1, keepdims=True))
        xs = np.clip(np.vstack(blocks), 1e-12, None)
        ys = self._inverse_float_best(xs, flow_steps=16)
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
        lo, hi = ff.min(axis=0) / pad, ff.max(axis=0) * pad
        self._flag_range_cache[key] = (lo, hi)
        return lo, hi


def _positive_power(base, expo):
    """base^expo for strictly positive real base and real/complex exponent."""
    if base <= 0:
        raise DomainError(f"expected positive base, got {base}")
    ce = complex(expo)
    if ce.imag == 0:
        return math.exp(ce.real * math.log(base))
    return complex(math.e) ** (ce * math.log(base))
