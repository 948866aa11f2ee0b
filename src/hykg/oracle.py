"""Ground-truth numerical solver for the s-wave radial problem.

The radial equation with equal scalar and vector coupling reduces to an
energy-dependent effective eigenproblem

    -u'' + W(r; E) u = Ebar u,   W = 2 (E + M) V(r),   Ebar = E^2 - M^2,

solved on a uniform grid with Dirichlet conditions one step outside both
ends (u(0) = 0 regularity and a far-wall cutoff).  Bound states are roots of
g(E) = Ebar_n(E) - (E^2 - M^2).  By Sturm's theorem g > 0 exactly when at
most n eigenvalues are <= E^2 - M^2, so level n is where that Sturm count
crosses n, and counts alone bracket and bisect it.  A count is the number of
sign changes of the scaled leading minors of the matrix, whose three-term
recurrence is one BLAS banded triangular solve that stops soon after the
last classically allowed point.  A Numerov matching integrator provides an
independent cross-check of the matrix eigenvalues; each integration is the
same kind of solve, and both restart only where the solution is rescaled.
A fixed-mass Schroedinger solver supports the weak-coupling limit trend
tests.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import NoRoot
from .hylleraas import HylleraasParams, potential_V
from .levels import (
    FLAG_NO_ROOT,
    FLAG_NODE_MISMATCH,
    Engine,
    EnergyLevel,
    EngineResult,
)
from .rootfind import brent, seed_grid


# Importing scipy.linalg costs more start-up than the whole closed-form path,
# so its three routines are imported when called: a process that never solves
# the oracle never loads scipy.  They stay module-level names, so tests can
# substitute them.
def eigvalsh_tridiagonal(*args, **kwargs):
    from scipy.linalg import eigvalsh_tridiagonal
    return eigvalsh_tridiagonal(*args, **kwargs)


def eigh_tridiagonal(*args, **kwargs):
    from scipy.linalg import eigh_tridiagonal
    return eigh_tridiagonal(*args, **kwargs)


def dtbsv(*args, **kwargs):
    from scipy.linalg.blas import dtbsv
    return dtbsv(*args, **kwargs)


# Tolerance on E for the relativistic roots, in units of M: the width of
# solve_relativistic's final count bracket and numerov_shoot's Brent tolerance.
E_TOL_REL = 1e-10


class GridHeuristicWarning(UserWarning):
    """A grid heuristic (wall placement or stencil stability) is violated."""


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid of N interior points; Dirichlet walls sit one
    spacing outside [r_min, r_max] on both sides."""

    r_min: float
    r_max: float
    n: int

    def __post_init__(self):
        if self.n < 200:
            raise ValueError("grid needs at least 200 points")
        if not (0 < self.r_min < self.r_max):
            raise ValueError("need 0 < r_min < r_max")

    @property
    def h(self) -> float:
        return (self.r_max - self.r_min) / (self.n - 1)

    @cached_property
    def points(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.n)


def default_grid(params: HylleraasParams, n: int = 4000) -> RadialGrid:
    """r_max = 30 / ((1+K) w), r_min = h; tail coverage ~ e^-30."""
    r_max = 30.0 / ((1.0 + params.K) * params.omega)
    return RadialGrid(r_min=r_max / n, r_max=r_max, n=n)


def box_grid(length: float, n: int) -> RadialGrid:
    """Interior grid of a hard box [0, length]: walls land exactly on 0 and length."""
    h = length / (n + 1)
    return RadialGrid(r_min=h, r_max=length - h, n=n)


def check_grid(grid: RadialGrid, w_values: np.ndarray) -> None:
    """Emit (not raise) heuristic warnings: the u(0) = 0 wall placement and
    stencil stability."""
    if abs(grid.r_min - grid.h) > 1e-9 * grid.h:
        warnings.warn("r_min != h moves the u(0) = 0 wall off the origin",
                      GridHeuristicWarning, stacklevel=3)
    wmax = float(np.max(np.abs(w_values))) if w_values.size else 0.0
    if grid.h ** 2 * wmax >= 0.5:
        warnings.warn("h^2 * max|W| >= 0.5; stencil accuracy is degraded",
                      GridHeuristicWarning, stacklevel=3)


def effective_potential(params: HylleraasParams, e_param: float,
                        grid: RadialGrid) -> np.ndarray:
    """W(r) = 2 (E + M) V(r): the equal-coupling effective potential."""
    return 2.0 * (e_param + params.M) * potential_V(grid.points, params)


def _operator(w_values: np.ndarray, grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the three-point -d^2/dr^2 + W."""
    h2 = grid.h * grid.h
    return 2.0 / h2 + w_values, np.full(grid.n - 1, -1.0 / h2)


def eigen_tridiagonal(w_values: np.ndarray, grid: RadialGrid, m: int,
                      first: int = 0) -> np.ndarray:
    """Eigenvalues first..m-1 (0-based, ascending) of -d^2/dr^2 + W.

    Sturm-sequence bisection (LAPACK stebz; Barth, Martin and Wilkinson,
    Numer. Math. 9, 386 (1967)) computes only the requested indices, so a
    single level costs one bisection, not m.  The result is a compact copy:
    scipy returns a view into an N-long work array, which would otherwise
    stay alive with it.
    """
    diag, off = _operator(w_values, grid)
    vals = eigvalsh_tridiagonal(diag, off, select="i", select_range=(first, m - 1),
                                lapack_driver="stebz")
    return np.array(vals, dtype=float)


_RESCALE = 1e100


def _band_solve(band: np.ndarray, y: np.ndarray, start: int) -> int | None:
    """Solve a lower triangular band system with two sub-diagonals in place
    for the samples y[start + 2:start + m], from the known y[start] and
    y[start + 1]; `band` holds its m columns in LAPACK lower band storage.

    Returns the index of the first solved sample beyond _RESCALE in
    magnitude, or None.  The caller rescales and restarts from there.
    """
    # rows start and start+1 are identity rows carrying the known samples
    band[0, :2] = 1.0
    band[1, 0] = 0.0
    x = y[start:start + band.shape[1]]
    x[2:] = 0.0
    x[2:] = dtbsv(2, band, x, lower=1, overwrite_x=1)[2:]
    over = np.flatnonzero(np.abs(x[2:]) > _RESCALE)
    return start + 2 + int(over[0]) if over.size else None


def sturm_count(w_values: np.ndarray, grid: RadialGrid, sigma: float) -> int:
    """Number of eigenvalues <= sigma of the operator of eigen_tridiagonal.

    By Sturm's theorem it is the number of sign changes of the leading minors
    of T - sigma.  Scaled, y_k = h^(2k) det(T_k - sigma), they obey

        y_(k+1) = t_k y_k - y_(k-1),   t = 2 + h^2 (W - sigma),   y_0 = 1, y_(-1) = 0,

    a unit lower triangular band system, solved by a BLAS tbsv call as
    Numerov is.  A y_k that is exactly 0 takes the sign opposite to y_(k-1),
    as a zero pivot counts in LAPACK stebz.  Two rules keep the work near the
    classically allowed region, W < sigma:

    * restart: at the first |y_k| > _RESCALE, y_(k-1) and y_k are divided by
      |y_k|, which changes no sign, and the solve restarts from them;
    * tail stop: past the last W < sigma every t_k >= 2, and there
      y_(k+1) - y_k = (t_k - 2) y_k + (y_k - y_(k-1)).  So once y_k != 0 and
      y_k - y_(k-1) is 0 or has the sign of y_k, every later step does too
      (rounding keeps this), and y changes sign no more.  The solve stops
      there.  Near an eigenvalue y decays for a while past the last W < sigma
      before it turns, so the first solve runs 4x as far as that point and
      each extension 4x further: a solved row costs nanoseconds, a pass of
      this loop tens of microseconds.
    """
    n, h2 = grid.n, grid.h ** 2
    below = np.flatnonzero(w_values < sigma)
    tail = int(below[-1]) + 1 if below.size else 0
    y = np.empty(n + 2)  # y[j] is y_(j-1)
    y[:2] = 0.0, 1.0
    count, start, end = 0, 0, 4 * (tail + 2)
    while True:
        end = min(end, n + 2)
        # band columns start..end-1: unit diagonal, sub-diagonals -t and 1
        band = np.ones((3, end - start), order="F")
        band[1, 1:-1] = -2.0 - h2 * (w_values[start:end - 2] - sigma)
        over = _band_solve(band, y, start)
        last = end - 1 if over is None else over
        # a zero reads as positive here, which gives the zero rule's count
        # except for a final y_N = 0 after a positive y_(N-1)
        neg = y[start + 1:last + 1] < 0
        count += int(np.count_nonzero(neg[1:] != neg[:-1]))
        if over is not None:
            y[last - 1:last + 1] /= abs(y[last])
        start = last - 1
        prev, cur = y[start], y[last]
        if last == n + 1:
            return count + int(cur == 0.0 and prev > 0.0)
        if start >= tail and (cur > 0.0 and cur >= prev or cur < 0.0 and cur <= prev):
            return count
        if last == end - 1:
            end *= 4


def eigenvector_tridiagonal(w_values: np.ndarray, grid: RadialGrid,
                            index: int) -> tuple[float, np.ndarray]:
    """(eigenvalue, normalized eigenvector) of the index-th level (0-based).

    The vector is normalized to unit quadrature norm and its sign fixed by
    making the first component of significant magnitude positive.
    """
    diag, off = _operator(w_values, grid)
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(index, index))
    v = vecs[:, 0]
    norm = math.sqrt(float(np.sum(v * v)) * grid.h)
    v = v / norm
    big = np.nonzero(np.abs(v) > 1e-8 * float(np.max(np.abs(v))))[0]
    if big.size and v[big[0]] < 0:
        v = -v
    return float(vals[0]), v


# equal steps of the oracle's seed walk across (-M, M)
_SEEDS = 64


class SeedCounts:
    """Sturm counts of the effective operator at energy x (the number of its
    eigenvalues <= x^2 - M^2), one memo for every energy asked: the seed
    energies xs that a walk reaches and the bisection midpoints.  A count
    does not depend on n, so one instance serves every level and counts each
    energy once."""

    def __init__(self, params: HylleraasParams, grid: RadialGrid):
        M = params.M
        self.params, self.grid = params, grid
        self.v = potential_V(grid.points, params)
        self.xs = seed_grid(-M * (1 - 1e-9), M * (1 - 1e-9), _SEEDS).tolist()
        self._memo: dict[float, int] = {}

    def at(self, x: float) -> int:
        """The count at any energy x."""
        count = self._memo.get(x)
        if count is None:
            M = self.params.M
            count = sturm_count(2.0 * (x + M) * self.v, self.grid, x * x - M * M)
            self._memo[x] = count
        return count

    def __getitem__(self, i: int) -> int:
        return self.at(self.xs[i])


def solve_relativistic(params: HylleraasParams, n: int, grid: RadialGrid,
                       seeds: SeedCounts | None = None) -> EnergyLevel:
    """Lowest crossing of the Sturm count through n on (-M, M).

    The walk up the seeds (`seeds` when given, else new ones) stops at the
    first interval where `count <= n`, the sign of g, flips; bisection on
    that predicate then narrows it to E_TOL_REL * M and reports the
    midpoint.  No step reads a computed eigenvalue, whose absolute error
    (eps times the matrix norm) swamps g where W is huge.  The residual is
    |g| from one single-index eigensolve at the midpoint, so it carries that
    error: it is no error bar on E.

    Returns a flagged NoRoot level when no interval flips.
    """
    M = params.M
    seeds = seeds or SeedCounts(params, grid)
    check_grid(grid, 2.0 * (2 * M) * seeds.v)
    for i in range(len(seeds.xs) - 1):
        below = seeds[i] <= n
        if below == (seeds[i + 1] <= n):
            continue
        lo, hi = seeds.xs[i], seeds.xs[i + 1]
        while hi - lo > E_TOL_REL * M:
            mid = 0.5 * (lo + hi)
            if (seeds.at(mid) <= n) == below:
                lo = mid
            else:
                hi = mid
        E = 0.5 * (lo + hi)
        ebar_n = float(eigen_tridiagonal(2.0 * (E + M) * seeds.v, grid, n + 1, first=n)[0])
        return EnergyLevel(n=n, E=E, Ebar=E * E - M * M, engine=Engine.ORACLE,
                           residual=abs(ebar_n - (E * E - M * M)))
    return EnergyLevel(n=n, E=None, Ebar=None, engine=Engine.ORACLE,
                       residual=None, flags=frozenset({FLAG_NO_ROOT}))


def solve_levels(params: HylleraasParams, ns: Iterable[int],
                 grid: RadialGrid) -> dict[int, EngineResult]:
    """The solve_relativistic level of each n in ns as an EngineResult, all
    walking one SeedCounts; a NoRoot record becomes an empty result flagged
    NoRoot."""
    seeds = SeedCounts(params, grid)
    results = {}
    for n in ns:
        level = solve_relativistic(params, n, grid, seeds)
        results[n] = (EngineResult([level], frozenset()) if level.found else
                      EngineResult([], frozenset({FLAG_NO_ROOT})))
    return results


def oracle_eigenvector(params: HylleraasParams, E: float, grid: RadialGrid,
                       n: int) -> np.ndarray:
    """Normalized n-th eigenvector of the effective operator at energy E."""
    w = effective_potential(params, E, grid)
    return eigenvector_tridiagonal(w, grid, n)[1]


# ---------------------------------------------------------------------------
# Numerov matching integrator
# ---------------------------------------------------------------------------

def _numerov_outward(q: np.ndarray, h: float, upto: int) -> np.ndarray:
    """Integrate y'' = q y from the left wall; returns samples 0..upto.

    With t = h^2/12, A = 2 (1 + 5 t q) and B = 1 - t q, the Numerov steps
    B[i] y[i] - A[i-1] y[i-1] + B[i-2] y[i-2] = 0 (i >= 2) form a lower
    triangular band system, solved by one BLAS tbsv call from the two
    starting samples.  Rescaling: when a sample k first exceeds _RESCALE in
    magnitude, samples 0..k are divided by |y[k]| and the solve restarts at
    k+1 from y[k-1], y[k], so there is one solve per rescale, each over the
    whole remaining range.
    """
    t = h * h / 12.0
    q = q[: upto + 1]
    a = 2.0 * (1.0 + 5.0 * t * q)
    b = 1.0 - t * q
    y = np.empty(upto + 1)
    y[0] = h
    if upto >= 1:
        # ghost point y(-1) = 0 contributes nothing to the first step
        y[1] = (a[0] * y[0]) / b[1]
    if upto < 2:
        return y
    # band columns: diagonal B, first subdiagonal -A, second subdiagonal B
    band = np.asfortranarray([b, -a, b])
    start = 0
    while (k := _band_solve(band[:, start:], y, start)) is not None:
        y[: k + 1] /= abs(y[k])
        start = k - 1
    return y


def _matching_index(q: np.ndarray) -> int:
    """Outermost classical turning point of q = W - Ebar; midpoint fallbacks."""
    n = len(q)
    neg = np.nonzero(q < 0)[0]
    if neg.size == 0:
        return n // 2
    first, last = int(neg[0]), int(neg[-1])
    if last <= n - 4:
        m = last
    else:
        # allowed region touches the far wall: match mid-well
        m = (first + last) // 2
    return max(2, min(n - 3, m))


def numerov_defect(q: np.ndarray, h: float) -> tuple[float, np.ndarray]:
    """Wronskian mismatch of the outward and inward solutions at the matching
    point, plus the assembled solution."""
    m = _matching_index(q)
    y_out = _numerov_outward(q, h, m + 1)
    # the inward solution, samples m-1..n-1, is the outward one of the mirrored q
    y_in = _numerov_outward(q[::-1], h, len(q) - m)[::-1]

    # scale both to O(1) at the matching point: samples m-1, m, m+1
    out3, in3 = y_out[m - 1:m + 2].tolist(), y_in[:3].tolist()
    s_out = max(*map(abs, out3), 1e-300)
    s_in = max(*map(abs, in3), 1e-300)
    o0, o1, o2 = (y / s_out for y in out3)
    i0, i1, i2 = (y / s_in for y in in3)
    wronskian = o1 * (i2 - i0) / (2 * h) - i1 * (o2 - o0) / (2 * h)

    # assembled solution for node counting: join the inward tail at m
    assembled = np.empty(len(q))
    assembled[: m + 1] = y_out[: m + 1] / s_out
    tail = y_in[1:]  # samples m .. n-1
    if tail[0] != 0.0:
        tail = tail * (assembled[m] / tail[0])
    assembled[m:] = tail
    return wronskian, assembled


# samples below this fraction of max|values| carry no sign
_SIGN_NOISE = 1e-9


def count_sign_changes(values: np.ndarray) -> int:
    """Strict sign changes, ignoring samples below _SIGN_NOISE * max|values|."""
    vmax = float(np.max(np.abs(values))) if values.size else 0.0
    if vmax == 0.0:
        return 0
    sig = values[np.abs(values) > _SIGN_NOISE * vmax]
    return int(np.sum(np.sign(sig[:-1]) != np.sign(sig[1:]))) if sig.size > 1 else 0


def _numerov_root(q_of, h: float, lo: float, hi: float,
                  tol: float) -> tuple[float, float, np.ndarray]:
    """Brent root of the matching defect of q_of(x) on [lo, hi]: (root, defect
    at the root, assembled solution).  Raises ValueError (from brent) when
    the defect shows no sign change on the bracket."""
    root = brent(lambda x: numerov_defect(q_of(x), h)[0], lo, hi, tol)
    wronskian, assembled = numerov_defect(q_of(root), h)
    return root, wronskian, assembled


def numerov_eigenvalue(w_values: np.ndarray, grid: RadialGrid,
                       bracket: tuple[float, float],
                       tol: float = 1e-12) -> tuple[float, np.ndarray]:
    """Eigenvalue of -u'' + W u = Ebar u inside `bracket` by defect root finding."""
    lo, hi = bracket
    try:
        root, _, assembled = _numerov_root(lambda ebar: w_values - ebar, grid.h, lo, hi,
                                           tol * max(1.0, abs(lo), abs(hi)))
    except ValueError:
        raise NoRoot(f"no defect sign change in bracket {bracket}") from None
    return root, assembled


def numerov_shoot(params: HylleraasParams, n: int, grid: RadialGrid,
                  e_bracket: tuple[float, float]) -> EnergyLevel:
    """Independent relativistic solve: Numerov matching inside an E bracket.

    The assembled solution's node count must equal n; a mismatch is returned
    as a flagged level (the bracket captured a different state).
    """
    M = params.M
    v = potential_V(grid.points, params)

    def q_of(E: float) -> np.ndarray:
        return 2.0 * (E + M) * v - (E * E - M * M)

    lo, hi = e_bracket
    try:
        root, wronskian, assembled = _numerov_root(q_of, grid.h, lo, hi, E_TOL_REL * M)
    except ValueError:
        return EnergyLevel(n=n, E=None, Ebar=None, engine=Engine.ORACLE,
                           residual=None, flags=frozenset({FLAG_NO_ROOT}))
    root = float(root)
    flags = frozenset()
    if count_sign_changes(assembled) != n:
        flags = frozenset({FLAG_NODE_MISMATCH})
    return EnergyLevel(n=n, E=root, Ebar=root * root - M * M,
                       engine=Engine.ORACLE, residual=float(abs(wronskian)),
                       flags=flags)


def schrodinger_limit(params: HylleraasParams, n: int, grid: RadialGrid) -> float:
    """(n+1)-th smallest eigenvalue of -(1/2) d^2/dr^2 + 2 V, unit-mass convention.

    -(1/2) u'' + 2 V u = lam u is -u'' + 4 V u = 2 lam u, the operator of
    eigen_tridiagonal with W = 4 V.
    """
    return 0.5 * float(eigen_tridiagonal(4.0 * potential_V(grid.points, params), grid,
                                         n + 1, first=n)[0])
