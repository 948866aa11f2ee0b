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
last classically allowed point; it forms W only on the rows it solves.  A
Numerov matching integrator provides an independent cross-check of the
matrix eigenvalues: one band per energy, solved forward to the matching
point and backward from the far wall, in windows, so a rescale of the
solution re-solves only the rest of its window.  A fixed-mass Schroedinger
solver supports the weak-coupling limit trend tests.
"""
from __future__ import annotations

import importlib
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
# so its three routines are imported when first called: a process that never
# solves the oracle never loads scipy.  The first call puts scipy's routine in
# the stand-in's place, so later calls go straight to it; each stays a
# module-level name that tests can substitute.
def _on_first_call(module: str, name: str):
    def first_call(*args, **kwargs):
        routine = getattr(importlib.import_module(module), name)
        if globals()[name] is first_call:
            globals()[name] = routine
        return routine(*args, **kwargs)
    first_call.__name__ = first_call.__qualname__ = name
    return first_call


eigvalsh_tridiagonal = _on_first_call("scipy.linalg", "eigvalsh_tridiagonal")
eigh_tridiagonal = _on_first_call("scipy.linalg", "eigh_tridiagonal")
dtbsv = _on_first_call("scipy.linalg.blas", "dtbsv")


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
    stencil stability.  SeedCounts calls it, so a warning names the line that
    called solve_relativistic or solve_levels."""
    if abs(grid.r_min - grid.h) > 1e-9 * grid.h:
        warnings.warn("r_min != h moves the u(0) = 0 wall off the origin",
                      GridHeuristicWarning, stacklevel=4)
    wmax = float(np.max(np.abs(w_values))) if w_values.size else 0.0
    if grid.h ** 2 * wmax >= 0.5:
        warnings.warn("h^2 * max|W| >= 0.5; stencil accuracy is degraded",
                      GridHeuristicWarning, stacklevel=4)


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


def _band_solve(band: np.ndarray, x: np.ndarray, lower: bool = True,
                unit: bool = False) -> int | None:
    """Solve a triangular band system with two off-diagonals in place for x
    from its two known end samples: x[0] and x[1] for a lower system, which
    is solved forward, x[-2] and x[-1] for an upper one, solved backward.
    `band` holds its len(x) columns in LAPACK band storage of that kind; the
    rows of the known samples become identity rows.  `unit` skips the
    diagonal, which must then be 1.

    Returns j >= 2 when the first solved sample beyond _RESCALE in magnitude
    is the j-th in solve order (x[j], or x[-1 - j] for an upper system), or
    None.  The caller rescales and restarts from there.
    """
    if lower:
        band[0, :2] = 1.0
        band[1, 0] = 0.0
        x[2:] = 0.0
        x[2:] = dtbsv(2, band, x, lower=1, diag=unit, overwrite_x=1)[2:]
        over = (np.abs(x[2:]) > _RESCALE).nonzero()[0]
        return 2 + int(over[0]) if over.size else None
    band[2, -2:] = 1.0
    band[1, -1] = 0.0
    x[:-2] = 0.0
    x[:-2] = dtbsv(2, band, x, lower=0, diag=unit, overwrite_x=1)[:-2]
    over = (np.abs(x[:-2]) > _RESCALE).nonzero()[0]
    return len(x) - 1 - int(over[-1]) if over.size else None


class SturmCounter:
    """Sturm counts of -d^2/dr^2 + c v, the operator of eigen_tridiagonal
    with W = c v, on one grid: count(c, sigma) is its number of eigenvalues
    <= sigma.

    By Sturm's theorem that is the number of sign changes of the leading
    minors of T - sigma.  Scaled, y_k = h^(2k) det(T_k - sigma), they obey

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

    A count touches only the rows it solves.  W_k = fl(c v_k) is formed on
    those rows alone, into band and work buffers kept for the grid, and the
    last W < sigma comes from a binary search of v's suffix extrema: fl(c u)
    is monotone in u, so the smallest fl(c v_j) over j >= k is fl(c u) at the
    smallest of those v_j for c >= 0 and at the largest for c < 0.
    """

    def __init__(self, v: np.ndarray, grid: RadialGrid):
        self.v, self.n, self.h2 = v, grid.n, grid.h ** 2
        self.band = np.ones((3, self.n + 2), order="F")  # row 2 stays 1
        self.y = np.empty(self.n + 2)  # y[j] is y_(j-1)
        self.work = np.empty(self.n)

    # memoryviews: indexing one gives a Python float, the binary search's
    # fastest operand, and making one copies nothing
    @cached_property
    def _suffix_min(self) -> memoryview:
        return memoryview(np.minimum.accumulate(self.v[::-1])[::-1])

    @cached_property
    def _suffix_max(self) -> memoryview:
        return memoryview(np.maximum.accumulate(self.v[::-1])[::-1])

    def tail(self, c: float, sigma: float) -> int:
        """1 + the last k with fl(c v_k) < sigma, or 0 if there is none."""
        ext = self._suffix_min if c >= 0 else self._suffix_max
        lo, hi = 0, len(ext)
        while lo < hi:
            mid = (lo + hi) // 2
            if c * ext[mid] < sigma:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def count(self, c: float, sigma: float) -> int:
        """Number of eigenvalues <= sigma of -d^2/dr^2 + c v."""
        n, h2, v, y = self.n, self.h2, self.v, self.y
        tail = self.tail(c, sigma)
        y[:2] = 0.0, 1.0
        count, start, end = 0, 0, 4 * (tail + 2)
        while True:
            end = min(end, n + 2)
            # band columns start..end-1: unit diagonal, sub-diagonals -t and 1,
            # with -t = -2 - h^2 (c v - sigma) formed in the work buffer
            band = self.band[:, :end - start]
            work = self.work[:end - start - 2]
            np.multiply(v[start:end - 2], c, out=work)
            work -= sigma
            work *= h2
            np.subtract(-2.0, work, out=band[1, 1:-1])
            over = _band_solve(band, y[start:end], unit=True)
            last = end - 1 if over is None else start + over
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


def sturm_count(w_values: np.ndarray, grid: RadialGrid, sigma: float) -> int:
    """Number of eigenvalues <= sigma of the operator of eigen_tridiagonal:
    the SturmCounter count with c = 1, as 1 * w_values is w_values exactly."""
    return SturmCounter(w_values, grid).count(1.0, sigma)


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
    energy once.  The grid is checked once here, against the largest W on
    the window, 2 (2M) V."""

    def __init__(self, params: HylleraasParams, grid: RadialGrid):
        M = params.M
        self.params, self.grid = params, grid
        self.v = potential_V(grid.points, params)
        check_grid(grid, 2.0 * (2 * M) * self.v)
        self.counter = SturmCounter(self.v, grid)
        self.xs = seed_grid(-M * (1 - 1e-9), M * (1 - 1e-9), _SEEDS).tolist()
        self._memo: dict[float, int] = {}

    def at(self, x: float) -> int:
        """The count at any energy x: W = 2 (x + M) V at x^2 - M^2."""
        count = self._memo.get(x)
        if count is None:
            M = self.params.M
            count = self.counter.count(2.0 * (x + M), x * x - M * M)
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
    the half-width of the final bracket: the counts at its ends straddle n,
    so it bounds the distance from E to the crossing.

    Returns a flagged NoRoot level when no interval flips.
    """
    M = params.M
    seeds = seeds or SeedCounts(params, grid)
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
        return EnergyLevel(n=n, E=E, Ebar=E * E - M * M, engine=Engine.ORACLE,
                           residual=0.5 * (hi - lo))
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

def _numerov_band(q: np.ndarray, h: float) -> np.ndarray:
    """The Numerov steps of y'' = q y as one band [B, -A, B] in Fortran order.

    With t = h^2/12, A = 2 (1 + 5 t q) and B = 1 - t q, the steps
    B[i+1] y[i+1] - A[i] y[i] + B[i-1] y[i-1] = 0 read forward are a lower
    triangular band system whose columns (diagonal, first and second
    sub-diagonal) are (B, -A, B), and read backward an upper one whose
    columns (second and first super-diagonal, diagonal) are (B, -A, B) too.
    So one array serves both directions.
    """
    t = h * h / 12.0
    band = np.empty((3, len(q)), order="F")
    work = q * (5.0 * t)
    work += 1.0
    work *= -2.0
    band[1] = work
    np.multiply(q, t, out=work)
    np.subtract(1.0, work, out=work)
    band[0] = work
    band[2] = work
    return band


def _numerov_sweep(band: np.ndarray, y: np.ndarray, lower: bool) -> list[int]:
    """Solve the Numerov steps of `band` (len(y) columns) in place for y from
    its two known end samples: forward from y[0], y[1] when `lower`, else
    backward from y[-2], y[-1].  Returns the rescale positions, counted in
    solve order.

    Rescaling: when a sample k (in solve order) first exceeds _RESCALE in
    magnitude, samples 0..k are divided by |y[k]| and the solve restarts
    from samples k-1 and k.  The sweep solves in windows, each starting from
    the last two samples of the one before, so a rescale re-solves only the
    rest of its window.  A window spans the rows that the growth seen so far
    predicts before the next rescale, plus an eighth.  The first window
    takes the growth log|lambda| of one step of the wall's q, where
    |lambda| + 1/|lambda| = |A/B| (none, and the whole range, where
    |A/B| <= 2); a window after a rescale spans the last rescale interval;
    any other takes the growth since the last rescale, or 4x the rows of
    the window before if y has not grown.
    """
    n = len(y)
    ys = y if lower else y[::-1]  # y in solve order
    # one step of the wall's q: |lambda| + 1/|lambda| = |A/B|
    a, b = (band[1, 0], band[0, 0]) if lower else (band[1, -1], band[2, -1])
    a, b = abs(float(a)), abs(float(b))
    growth = 0.0 if a <= 2.0 * b else math.inf if b == 0.0 else math.acosh(0.5 * a / b)
    mag = max(abs(ys[0]), abs(ys[1]))
    span = _span(growth, mag, n)
    rescales = []
    done, base, base_mag = 2, 0, mag  # samples known; the last rescale
    while done < n:
        rows = min(span, n - done)
        lo, hi = (done - 2, done + rows) if lower else (n - done - rows, n - done + 2)
        j = _band_solve(band[:, lo:hi], y[lo:hi], lower)
        if j is not None:
            k = done - 2 + j
            ys[:k + 1] /= abs(ys[k])
            rescales.append(k)
            span = (k - base) * 9 // 8 + 16
            base, base_mag, done = k, 1.0, k + 1
            continue
        done += rows
        mag = max(abs(ys[done - 2]), abs(ys[done - 1]))
        if mag > base_mag:
            span = _span(math.log(mag / base_mag) / (done - 1 - base), mag, n)
        else:
            span = 4 * rows
    return rescales


def _span(growth: float, mag: float, n: int) -> int:
    """Rows until a solution of magnitude mag growing by e^growth per row
    passes _RESCALE, plus an eighth; n when it does not grow."""
    if not growth > 0.0:
        return n
    headroom = math.log(_RESCALE / mag) if 0.0 < mag < _RESCALE else 0.0
    return min(int(headroom / growth * 1.125) + 16, n)


def _numerov_outward(band: np.ndarray, h: float, upto: int) -> tuple[np.ndarray, list[int]]:
    """Samples 0..upto of y'' = q y from the left wall, for the band of q;
    and the rescale positions.  The ghost point y(-1) = 0 makes y[1] =
    A[0] y[0] / B[1] from y[0] = h."""
    y = np.empty(upto + 1)
    y[0] = h
    if upto >= 1:
        y[1] = (-band[1, 0] * h) / band[0, 1]
    rescales = _numerov_sweep(band[:, :upto + 1], y, True) if upto >= 2 else []
    return y, rescales


def _numerov_inward(band: np.ndarray, h: float, downto: int) -> tuple[np.ndarray, list[int]]:
    """Samples downto..N-1 of y'' = q y from the right wall, for the band of
    q; and the rescale positions, counted from the wall.  It is
    _numerov_outward of the mirrored q, solved on the same band."""
    y = np.empty(band.shape[1] - downto)
    y[-1] = h
    y[-2] = (-band[1, -1] * h) / band[2, -2]
    rescales = _numerov_sweep(band[:, downto:], y, False) if len(y) > 2 else []
    return y, rescales


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
    band = _numerov_band(q, h)
    # The sweeps share the band, and neither reads what the other's identity
    # rows change: outward changes row 0 only at columns <= m and row 1 at
    # columns < m, inward changes row 2 only at columns >= m and row 1 at
    # columns > m.
    y_out, _ = _numerov_outward(band, h, m + 1)
    y_in, _ = _numerov_inward(band, h, m - 1)  # samples m-1..n-1

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
