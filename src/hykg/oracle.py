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
recurrence is one BLAS unit lower banded triangular solve that stops soon
after the last classically allowed point; it forms W only on the rows it
solves.  Fixed-W eigenvalues bisect the same counts.  A Numerov matching
integrator cross-checks the matrix eigenvalues: with z = B y its steps are
the count's recurrence with another t, and each pass is one dtbsv solve,
restarted from the rescaled pair only after a rescale.  The outward pass
starts at the left wall.  The inward pass, on the reversed t, starts at the
first row past the turning point where the WKB decay depth h sum sqrt(q)
reaches 40, before any row where Numerov's step is invalid (B <= 0).  There
it carries the solution that grows outward at e^-80 of the one it seeks at
the matching point, so the matching defect is exact to rounding, and it
forms t and B only on the rows up to that start.  A fixed-mass Schroedinger
solver supports the weak-coupling limit trend tests.
"""
from __future__ import annotations

import importlib
import math
import warnings
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import Callable, Iterable

import numpy as np

from .errors import NoRoot
from .hylleraas import HylleraasParams, potential_V
from .levels import FLAG_NO_ROOT, FLAG_NODE_MISMATCH, Engine, EnergyLevel
from .rootfind import brent, seed_grid


# Importing scipy.linalg costs more start-up than the whole closed-form path,
# so its two routines are imported when first called: a process that never
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
    """r_max = 30 / (|1+K| w), r_min = h; tail coverage ~ e^-30: ln s moves
    at the rate 2 |1+K| w for either sign of 1+K."""
    r_max = 30.0 / (abs(1.0 + params.K) * params.omega)
    return RadialGrid(r_min=r_max / n, r_max=r_max, n=n)


def box_grid(length: float, n: int) -> RadialGrid:
    """Interior grid of a hard box [0, length]: walls land exactly on 0 and length."""
    h = length / (n + 1)
    return RadialGrid(r_min=h, r_max=length - h, n=n)


def check_grid(grid: RadialGrid, w_values: np.ndarray) -> None:
    """Emit (not raise) heuristic warnings: the u(0) = 0 wall placement and
    stencil stability.  energy_counts calls it, so a warning names the line
    that called solve_relativistic or solve_levels."""
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


_RESCALE = 1e100


def _band_solve(band: np.ndarray, x: np.ndarray) -> int | None:
    """Solve x[j+1] = t[j] x[j] - x[j-1] in place for x[2:] from x[0] and
    x[1]: the unit lower triangular band system whose len(x) columns `band`
    holds in LAPACK band storage, -t in row 1 and 1 in row 2 (row 0, the
    diagonal, is not read).  band[1, 0] becomes 0, so x[1] is a known row.

    Returns j >= 2 when x[j] is the first solved sample beyond _RESCALE in
    magnitude, or None.  The caller rescales and restarts from there.
    """
    band[1, 0] = 0.0
    x[2:] = 0.0
    x[2:] = dtbsv(2, band, x, lower=1, diag=1, overwrite_x=1)[2:]
    over = (np.abs(x[2:]) > _RESCALE).nonzero()[0]
    return 2 + int(over[0]) if over.size else None


class SturmCounter:
    """Sturm counts of the three-point -d^2/dr^2 + c v on one grid:
    count(c, sigma) is its number of eigenvalues <= sigma.

    By Sturm's theorem that is the number of sign changes of the leading
    minors of T - sigma.  Scaled, y_k = h^(2k) det(T_k - sigma), they obey

        y_(k+1) = t_k y_k - y_(k-1),   t = 2 + h^2 (W - sigma),   y_0 = 1, y_(-1) = 0,

    a unit lower triangular band system, solved by a BLAS tbsv call
    (`_band_solve`, which solves Numerov's steps too).  A y_k that is
    exactly 0 takes the sign opposite to y_(k-1), as a zero pivot counts in
    LAPACK stebz.  Two rules keep the work near the classically allowed
    region, W < sigma:

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
        self.v, self.n, self.h = v, grid.n, grid.h
        self.h2 = self.h ** 2
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
            over = _band_solve(band, y[start:end])
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


def _bisect(below: Callable[[float], bool], lo: float, hi: float,
            tol: float) -> tuple[float, float]:
    """Halve [lo, hi] until hi - lo <= tol, keeping below(lo) true and
    below(hi) false: the final bracket.  The ends are never evaluated."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def eigen_tridiagonal(w_values: np.ndarray, grid: RadialGrid, m: int,
                      first: int = 0) -> np.ndarray:
    """Eigenvalues first..m-1 (0-based, ascending) of -d^2/dr^2 + W in a new
    array; ValueError unless 0 <= first < m <= N.

    Eigenvalue k is the midpoint of the _bisect bracket of count(sigma) <= k
    on the Gershgorin interval [min W, max W + 4/h^2] to eps * max(|min W|,
    |max W + 4/h^2|), with count one memoized SturmCounter(W, grid) at c = 1
    (Barth, Martin and Wilkinson, Numer. Math. 9, 386 (1967)): a count sees
    sigma only via fl(2 + h^2 (W - sigma)), whose ulp near 2 is 2 eps / h^2
    in sigma.  The eigenvalues share their first midpoints, counted once.
    """
    if not 0 <= first < m <= grid.n:
        raise ValueError(f"need 0 <= first < m <= {grid.n}, got {first}, {m}")
    counter = SturmCounter(w_values, grid)
    count = cache(lambda sigma: counter.count(1.0, sigma))
    bottom = float(np.min(w_values))
    top = float(np.max(w_values)) + 4.0 / grid.h ** 2
    tol = np.finfo(float).eps * max(abs(bottom), abs(top))
    vals = np.empty(m - first)
    for k in range(first, m):
        lo, hi = _bisect(lambda sigma: count(sigma) <= k, bottom, top, tol)
        vals[k - first] = 0.5 * (lo + hi)
    return vals


def eigenvector_tridiagonal(w_values: np.ndarray, grid: RadialGrid,
                            index: int) -> tuple[float, np.ndarray]:
    """(eigenvalue, normalized eigenvector) of the index-th level (0-based).

    The vector is normalized to unit quadrature norm and its sign fixed by
    making the first component of significant magnitude positive.
    """
    h2 = grid.h * grid.h
    vals, vecs = eigh_tridiagonal(2.0 / h2 + w_values, np.full(grid.n - 1, -1.0 / h2),
                                  select="i", select_range=(index, index))
    v = vecs[:, 0]
    norm = math.sqrt(float(np.sum(v * v)) * grid.h)
    v = v / norm
    big = np.nonzero(np.abs(v) > 1e-8 * float(np.max(np.abs(v))))[0]
    if big.size and v[big[0]] < 0:
        v = -v
    return float(vals[0]), v


def seed_energies(M: float) -> list[float]:
    """The 65 energies of the oracle's seed walk: 64 equal steps across (-M, M)."""
    return seed_grid(-M * (1 - 1e-9), M * (1 - 1e-9), 64).tolist()


@lru_cache(maxsize=1)
def _well(params: HylleraasParams, grid: RadialGrid) -> SturmCounter:
    """The SturmCounter of V on grid, kept for the next call on the same
    (params, grid): energy_counts and numerov_shoot share its V and its
    suffix extrema.  Its v is read-only, as every caller sees the same
    array; its band and work buffers are scratch that each count rewrites."""
    v = potential_V(grid.points, params)
    v.flags.writeable = False
    return SturmCounter(v, grid)


def energy_counts(params: HylleraasParams, grid: RadialGrid) -> Callable[[float], int]:
    """Memoized x -> Sturm count of the effective operator at energy x (its
    eigenvalues <= x^2 - M^2 for W = 2 (x + M) V), counted on _well(params,
    grid).  A count does not depend on n, so one memo serves every level's
    seeds and midpoints.  The grid is checked on every call, against the
    largest W on the window, 2 (2M) V."""
    M = params.M
    counter = _well(params, grid)
    check_grid(grid, 2.0 * (2 * M) * counter.v)
    return cache(lambda x: counter.count(2.0 * (x + M), x * x - M * M))


def _first_flip(counts: Callable[[float], int], n: int, xs: list[float]) -> int | None:
    """The first i at which count <= n differs between xs[i] and xs[i + 1],
    or None.

    For n = 0 with count(xs[0]) = 0 the zero counts form a prefix of xs: the
    count is 0 where lambda_min(x) - (x^2 - M^2) > 0, lambda_min the lowest
    eigenvalue of T + 2 (x + M) V.  A minimum of Rayleigh quotients, each
    linear in the coupling 2 (x + M) and so in x, is concave in x, and
    x^2 - M^2 is convex, so that difference is concave and positive on one
    interval of x.  The prefix's end is found by galloping, as in timsort:
    the probe index runs 1, 3, 7, 15, ..., each probe covering twice the
    seeds of the last, up to the first nonzero count, and the last gap is
    then halved.  Otherwise every interval is walked in turn.
    """
    last = len(xs) - 1
    if n == 0 and counts(xs[0]) == 0:
        lo, hi = 0, 1
        while counts(xs[hi]) == 0:
            if hi == last:
                return None
            lo, hi = hi, min(2 * hi + 1, last)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if counts(xs[mid]) == 0:
                lo = mid
            else:
                hi = mid
        return lo
    for i in range(last):
        if (counts(xs[i]) <= n) != (counts(xs[i + 1]) <= n):
            return i
    return None


def solve_relativistic(params: HylleraasParams, n: int, grid: RadialGrid,
                       counts: Callable[[float], int] | None = None) -> EnergyLevel:
    """Lowest crossing of the Sturm count through n on (-M, M).

    _first_flip finds, among seed_energies(M) counted by `counts` (a new
    energy_counts memo when None), the first interval where `count <= n`,
    the sign of g, flips: for n = 0 from a zero count at the lowest seed it
    gallops, as the zero counts then form a prefix of the seeds (the count
    is 0 where a concave function of the energy is positive), and otherwise
    it walks the intervals in turn.  _bisect on that predicate narrows the
    interval to E_TOL_REL * M and the midpoint is reported.  No step reads a
    computed eigenvalue, whose absolute error (eps times the matrix norm)
    swamps g where W is huge.  The residual is the half-width of the final
    bracket: the counts at its ends straddle n, so it bounds the distance
    from E to the crossing.

    Returns a flagged NoRoot level when no interval flips.
    """
    M = params.M
    counts = counts or energy_counts(params, grid)
    xs = seed_energies(M)
    i = _first_flip(counts, n, xs)
    if i is None:
        return EnergyLevel(n=n, E=None, Ebar=None, engine=Engine.ORACLE,
                           residual=None, flags=frozenset({FLAG_NO_ROOT}))
    below = counts(xs[i]) <= n
    lo, hi = _bisect(lambda x: (counts(x) <= n) == below, xs[i], xs[i + 1], E_TOL_REL * M)
    E = 0.5 * (lo + hi)
    return EnergyLevel(n=n, E=E, Ebar=E * E - M * M, engine=Engine.ORACLE,
                       residual=0.5 * (hi - lo))


def solve_levels(params: HylleraasParams, ns: Iterable[int],
                 grid: RadialGrid) -> dict[int, list[EnergyLevel]]:
    """The solve_relativistic level of each n in ns as a one-level list, all
    counted by one energy_counts memo; a NoRoot record becomes an empty list."""
    counts = energy_counts(params, grid)
    results = {}
    for n in ns:
        level = solve_relativistic(params, n, grid, counts)
        results[n] = [level] if level.found else []
    return results


def oracle_eigenvector(params: HylleraasParams, E: float, grid: RadialGrid,
                       n: int) -> np.ndarray:
    """Normalized n-th eigenvector of the effective operator at energy E."""
    w = effective_potential(params, E, grid)
    return eigenvector_tridiagonal(w, grid, n)[1]


# ---------------------------------------------------------------------------
# Numerov matching integrator
# ---------------------------------------------------------------------------

def _numerov_t(q: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(t, B): t = 2 + h^2 q / B with B = 1 - h^2 q / 12, the Numerov steps
    of y'' = q y as the count's recurrence, and the B that converts back.

    With A = 2 (1 + 5 h^2 q / 12) the steps
    B[i+1] y[i+1] - A[i] y[i] + B[i-1] y[i-1] = 0 are, for z = B y,
    z[i+1] = t[i] z[i] - z[i-1] with t = A / B: the unit lower band [1, -t, 1]
    of SturmCounter.count (B. Numerov, 1924; the matrix Numerov method of
    Pillai, Goglio and Walker, Am. J. Phys. 80, 1017 (2012)).
    """
    b = q * (h * h / 12.0)
    np.subtract(1.0, b, out=b)
    t = q * (h * h)
    t /= b
    t += 2.0
    return t, b


def _numerov_sweep(t: np.ndarray, z0: float) -> np.ndarray:
    """z[i+1] = t[i] z[i] - z[i-1] from z[-1] = 0 and z[0] = z0, for i up to
    len(t) - 1: returns z[0..len(t)].

    One band solve covers the whole pass.  When z[k] first exceeds _RESCALE
    in magnitude, z[..k] is divided by |z[k]| and the rest of the pass is
    solved again from z[k-1] and z[k].
    """
    n = len(t) + 2
    z = np.empty(n)
    z[0], z[1] = 0.0, z0
    band = np.ones((3, n), order="F")  # row 2 stays 1
    band[1, 1:-1] = -t
    start = 0
    while (j := _band_solve(band[:, start:], z[start:])) is not None:
        k = start + j
        z[:k + 1] /= abs(z[k])
        start = k - 1
    return z[1:]


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


# WKB decay depth D = h sum sqrt(q) past the matching point at which the
# inward pass starts.  A pass started there, with y = 0 one row further out,
# is the solution that decays outward plus some of the one that grows
# outward; at the matching point that admixture is e^(-2 D) = 1.8e-35 of
# the pass, far below eps, so the defect is that of a pass from the far wall.
_DEPTH = 40.0


def _numerov_rows(well: SturmCounter, c: float, sigma: float) -> tuple[int, np.ndarray]:
    """(m, q): the matching index and q = fl(c v) - sigma on rows 0..e, where
    e is the inward pass's first row.

    m is _matching_index of the whole q: the last row with q < 0 comes from
    well.tail, whose fl(c v) < sigma is the same test.  e is the first row
    past m at which D = h sum sqrt(q) over rows m+1..e reaches _DEPTH, but it
    stays before the first row past m with B = 1 - h^2 q / 12 <= 0, on which
    Numerov's step is invalid.  q is formed on rows 0..hi-1, hi = 6 (m + 8)
    at first and doubled until e < hi.  e is the far wall, N - 1, when neither rule stops the pass
    earlier, when B <= 0 already at m + 1, and under _matching_index's
    fallbacks (no q < 0, or q < 0 within 3 rows of the far wall), which form
    q on every row.
    """
    n, v, h = well.n, well.v, well.h
    m = well.tail(c, sigma) - 1
    if 0 <= m <= n - 4:
        m = max(2, m)
        # rows 0..hi-1 at first, then twice as many: past a turning point
        # the depth grows over a few times the rows to it
        hi, k = min(n, 6 * (m + 8)), h * h / 12.0
        while True:
            q = c * v[:hi]
            q -= sigma
            reach = np.sqrt(q[m + 1:])
            np.add.accumulate(reach, out=reach)
            deep = m + 1 + int(reach.searchsorted(_DEPTH / h))  # D >= _DEPTH, or hi
            # B <= 0 where b = q h^2 / 12 >= 1, as fl(1 - b) has the sign of
            # 1 - b; fl(q h^2 / 12) is monotone in q, so the largest q decides
            rows = q[m + 1:deep + 1]
            if float(rows.max()) * k >= 1.0:
                bad = m + 1 + int(np.argmax(rows * k >= 1.0))
                if bad > m + 1:
                    return m, q[:bad]
                break  # no row past m can start the pass
            if deep < hi or hi == n:
                return m, q[:deep + 1]
            hi = min(n, 2 * hi)
    q = c * v
    q -= sigma
    return _matching_index(q), q


def numerov_defect(well: SturmCounter, c: float,
                   sigma: float) -> tuple[float, Callable[[], np.ndarray]]:
    """(Wronskian mismatch at the matching point, solution) for
    -u'' + (c v - sigma) u = 0, v = well.v: the outward and inward solutions'
    mismatch, and a function that assembles the whole solution on N samples.

    The outward pass sweeps from the left wall to m + 1, the inward one from
    row e of _numerov_rows down to m - 1, both from z[0] = B h, so y = h at
    each start and the defect keeps its sign where B < 0.  Samples past e,
    where the decaying solution is below e^(-2 _DEPTH) of its size at m, are
    0 in the solution.  y = z / B is formed only at the matching samples and
    in the assembled solution.
    """
    n, h = well.n, well.h
    m, q = _numerov_rows(well, c, sigma)
    e = len(q) - 1
    t, b = _numerov_t(q, h)
    z_out = _numerov_sweep(t[:m + 1], b[0] * h)          # samples 0..m+1
    z_in = _numerov_sweep(t[m:][::-1], b[-1] * h)[::-1]  # samples m-1..e

    # y at samples m-1, m, m+1 of both, scaled to O(1)
    b3 = b[m - 1:m + 2].tolist()
    out3 = [z / bi for z, bi in zip(z_out[m - 1:].tolist(), b3)]
    in3 = [z / bi for z, bi in zip(z_in[:3].tolist(), b3)]
    s_out = max(*map(abs, out3), 1e-300)
    s_in = max(*map(abs, in3), 1e-300)
    o0, o1, o2 = [y / s_out for y in out3]
    i0, i1, i2 = [y / s_in for y in in3]
    wronskian = o1 * (i2 - i0) / (2 * h) - i1 * (o2 - o0) / (2 * h)

    def solution() -> np.ndarray:
        # the inward tail, samples m..e, joins the outward samples 0..m at m
        assembled = np.zeros(n)
        np.divide(z_out[:m + 1], s_out, out=assembled[:m + 1])
        z_m = z_in[1]
        np.multiply(z_in[1:], assembled[m] / z_m if z_m != 0.0 else 1.0,
                    out=assembled[m:e + 1])
        assembled[:e + 1] /= b
        return assembled

    return wronskian, solution


# samples below this fraction of max|values| carry no sign
_SIGN_NOISE = 1e-9


def count_sign_changes(values: np.ndarray) -> int:
    """Strict sign changes, ignoring samples below _SIGN_NOISE * max|values|."""
    vmax = float(np.max(np.abs(values))) if values.size else 0.0
    if vmax == 0.0:
        return 0
    sig = values[np.abs(values) > _SIGN_NOISE * vmax]
    return int(np.sum(np.sign(sig[:-1]) != np.sign(sig[1:]))) if sig.size > 1 else 0


def _numerov_root(well: SturmCounter, coeffs, lo: float, hi: float,
                  tol: float) -> tuple[float, float, np.ndarray]:
    """Brent root of the matching defect of (c, sigma) = coeffs(x) on
    [lo, hi]: (root, defect at the root, assembled solution).  Brent returns
    an energy it has evaluated, so the defect and solution at the root are
    those of its own evaluation there, kept by energy; only the root's
    solution is assembled.  Raises ValueError (from brent) when the defect
    shows no sign change on the bracket."""
    shots = {}

    def defect(x):
        shots[x] = numerov_defect(well, *coeffs(x))
        return shots[x][0]

    root = brent(defect, lo, hi, tol)
    wronskian, solution = shots[root]
    return root, wronskian, solution()


def numerov_eigenvalue(w_values: np.ndarray, grid: RadialGrid,
                       bracket: tuple[float, float],
                       tol: float = 1e-12) -> tuple[float, np.ndarray]:
    """Eigenvalue of -u'' + W u = Ebar u inside `bracket` by defect root finding."""
    lo, hi = bracket
    try:
        root, _, assembled = _numerov_root(SturmCounter(w_values, grid),
                                           lambda ebar: (1.0, ebar), lo, hi,
                                           tol * max(1.0, abs(lo), abs(hi)))
    except ValueError:
        raise NoRoot(f"no defect sign change in bracket {bracket}") from None
    return root, assembled


def numerov_shoot(params: HylleraasParams, n: int, grid: RadialGrid,
                  e_bracket: tuple[float, float]) -> EnergyLevel:
    """Independent relativistic solve: Numerov matching inside an E bracket,
    on the _well that solve_relativistic counts on for the same (params, grid).

    The assembled solution's node count must equal n; a mismatch is returned
    as a flagged level (the bracket captured a different state).
    """
    M = params.M
    well = _well(params, grid)
    lo, hi = e_bracket
    try:
        # q = 2 (E + M) V - (E^2 - M^2)
        root, wronskian, assembled = _numerov_root(
            well, lambda E: (2.0 * (E + M), E * E - M * M), lo, hi, E_TOL_REL * M)
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
