"""Ground-truth numerical solver for the s-wave radial problem.

The radial equation with equal scalar and vector coupling reduces to an
energy-dependent effective eigenproblem

    -u'' + W(r; E) u = Ebar u,   W = 2 (E + M) V(r),   Ebar = E^2 - M^2,

solved on a uniform grid with Dirichlet conditions one step outside both
ends (u(0) = 0 regularity and a far-wall cutoff).  Bound states are roots of
g(E) = Ebar_n(E) - (E^2 - M^2).  By Sturm's theorem g > 0 exactly when at
most n eigenvalues are <= E^2 - M^2, so level n is where that Sturm count
crosses n.  A count is the number of sign changes of the scaled leading
minors of the matrix, whose three-term recurrence is one BLAS unit lower
banded triangular solve that stops soon after the last classically allowed
point; it forms W only on the rows it solves.  Counts bracket a level until
one eigenvalue crosses inside the bracket; Brent then refines it on the
recurrence's last leading minor, a continuous function of the energy, and
two counts certify the result.  Fixed-W eigenvalues bisect the same
counts.  A Numerov cross-check refines on the same last minor with
Numerov's t: with z = B y, B = 1 - h^2 q / 12, its steps are the count's
recurrence with t = 2 + h^2 q / B.  The minor's operator is truncated at
the first row past the turning point where the WKB decay depth
h sum sqrt(q) reaches 40, and for Numerov before any row where its step is
invalid (B <= 0); a value is one dtbsv solve from the left wall to there,
restarted from the rescaled pair only after a rescale.  A level's
eigenvector is the count's recurrence at sigma = E^2 - M^2, swept outward
from the left wall to the matching point and inward from the far wall to
the outward pass's largest sample, where the two are joined.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import warnings
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import Callable, Iterable

import numpy as np

from .hylleraas import HylleraasParams, potential_V
from .levels import (FLAG_COUNT_FALLBACK, FLAG_NO_ROOT, FLAG_NODE_MISMATCH, Engine,
                     EnergyLevel)
from .rootfind import brent, seed_grid


# The oracle's one scipy routine is BLAS's dtbsv, from scipy's compiled
# wrapper scipy/linalg/_fblas.  Importing it through scipy.linalg.blas runs
# the scipy and scipy.linalg package __init__s, which cost more start-up time
# and memory than a default command's own work (about 150 ms and 27 MB on a
# 2-CPU Xeon).  So the first call takes the extension module from
# sys.modules, or loads it from its file beside scipy's __init__, found
# without importing it, and registers it there: a later import of
# scipy.linalg.blas then re-exports this same dtbsv.  A process that never
# solves the oracle loads nothing of scipy.  The first call puts the routine
# in the stand-in's place, so later calls go straight to it; it stays a
# module-level name that tests can substitute.
def _extension(module: str):
    """The compiled extension `module` of an installed package, loaded from
    its file with no package __init__ run; ImportError names what was
    searched when the package or the file is missing."""
    if module in sys.modules:
        return sys.modules[module]
    package, *parts = module.split(".")
    spec = importlib.util.find_spec(package)
    if spec is None or not spec.submodule_search_locations:
        raise ImportError(f"no package {package!r} on sys.path {sys.path}", name=module)
    stem = os.path.join(spec.submodule_search_locations[0], *parts)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            file_spec = importlib.util.spec_from_file_location(module, stem + suffix)
            extension = importlib.util.module_from_spec(file_spec)
            sys.modules[module] = extension
            file_spec.loader.exec_module(extension)
            return extension
    suffixes = ", ".join(importlib.machinery.EXTENSION_SUFFIXES)
    raise ImportError(f"no extension file {stem} + one of {suffixes}", name=module, path=stem)


def _on_first_call(module: str, name: str):
    def first_call(*args, **kwargs):
        routine = getattr(_extension(module), name)
        if globals()[name] is first_call:
            globals()[name] = routine
        return routine(*args, **kwargs)
    first_call.__name__ = first_call.__qualname__ = name
    return first_call


dtbsv = _on_first_call("scipy.linalg._fblas", "dtbsv")


# Tolerance on E for the relativistic roots, in units of M: numerov_shoot's
# Brent tolerance, and the largest width of the count bracket that certifies
# a solve_relativistic level, whose Brent runs to a quarter of it.
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


def check_grid(grid: RadialGrid, w_max: float) -> None:
    """Emit (not raise) heuristic warnings: the u(0) = 0 wall placement and
    stencil stability against w_max, the largest |W|.  energy_counts calls
    it, so a warning names the line that called solve_relativistic or
    solve_levels."""
    if abs(grid.r_min - grid.h) > 1e-9 * grid.h:
        warnings.warn("r_min != h moves the u(0) = 0 wall off the origin",
                      GridHeuristicWarning, stacklevel=4)
    if grid.h ** 2 * w_max >= 0.5:
        warnings.warn("h^2 * max|W| >= 0.5; stencil accuracy is degraded",
                      GridHeuristicWarning, stacklevel=4)


def effective_potential(params: HylleraasParams, e_param: float,
                        grid: RadialGrid) -> np.ndarray:
    """W(r) = 2 (E + M) V(r): the equal-coupling effective potential, from
    the V that _well keeps for (params, grid)."""
    return 2.0 * (e_param + params.M) * _well(params, grid).v


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


def _bisect(below: Callable[[float], bool], lo: float, hi: float, tol: float,
            isolated: Callable[[float, float], bool] | None = None) -> tuple[float, float]:
    """Halve [lo, hi] until hi - lo <= tol, or until isolated(lo, hi) when
    given, keeping below(lo) true and below(hi) false: the final bracket.
    `below` never evaluates the ends."""
    while hi - lo > tol and not (isolated and isolated(lo, hi)):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def eigen_tridiagonal(w_values: np.ndarray, grid: RadialGrid, m: int) -> np.ndarray:
    """The m lowest eigenvalues of -d^2/dr^2 + W, ascending, in a new array;
    ValueError unless 0 < m <= N.

    Eigenvalue k is the midpoint of the _bisect bracket of count(sigma) <= k
    on the Gershgorin interval [min W, max W + 4/h^2] to eps * max(|min W|,
    |max W + 4/h^2|), with count one memoized SturmCounter(W, grid) at c = 1
    (Barth, Martin and Wilkinson, Numer. Math. 9, 386 (1967)): a count sees
    sigma only via fl(2 + h^2 (W - sigma)), whose ulp near 2 is 2 eps / h^2
    in sigma.  The eigenvalues share their first midpoints, counted once.
    """
    if not 0 < m <= grid.n:
        raise ValueError(f"need 0 < m <= {grid.n}, got {m}")
    counter = SturmCounter(w_values, grid)
    count = cache(lambda sigma: counter.count(1.0, sigma))
    bottom = float(np.min(w_values))
    top = float(np.max(w_values)) + 4.0 / grid.h ** 2
    tol = np.finfo(float).eps * max(abs(bottom), abs(top))
    vals = np.empty(m)
    for k in range(m):
        lo, hi = _bisect(lambda sigma: count(sigma) <= k, bottom, top, tol)
        vals[k] = 0.5 * (lo + hi)
    return vals


def seed_energies(M: float) -> list[float]:
    """The 65 energies of the oracle's seed walk: 64 equal steps across (-M, M)."""
    return seed_grid(-M * (1 - 1e-9), M * (1 - 1e-9), 64).tolist()


@lru_cache(maxsize=1)
def _well(params: HylleraasParams, grid: RadialGrid) -> SturmCounter:
    """The SturmCounter of V on grid, kept for the next call on the same
    (params, grid): energy_counts and numerov_shoot share its V and its
    suffix extrema, and effective_potential scales its V.  Its v is
    read-only, as every caller sees the same array; its band, y and work
    buffers are scratch that each count and each pass of a last minor
    rewrites."""
    v = potential_V(grid.points, params)
    v.flags.writeable = False
    return SturmCounter(v, grid)


def energy_counts(params: HylleraasParams, grid: RadialGrid) -> Callable[[float], int]:
    """Memoized x -> Sturm count of the effective operator at energy x (its
    eigenvalues <= x^2 - M^2 for W = 2 (x + M) V), counted on _well(params,
    grid), which the memo keeps as its `well` for solve_relativistic's
    refinement.  A count does not depend on n, so one memo serves every
    level's seeds, midpoints and certificates.  The grid is checked on every
    call, against the largest |W| on the window, max |2 (2M) V| =
    4M max(|min V|, |max V|), as fl(4M v) is monotone in v."""
    M = params.M
    counter = _well(params, grid)
    v = counter.v
    check_grid(grid, 2.0 * (2 * M) * max(abs(float(v.min())), abs(float(v.max()))))
    counts = cache(lambda x: counter.count(2.0 * (x + M), x * x - M * M))
    counts.well = counter
    return counts


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

    _first_flip finds, among seed_energies(M) counted by `counts` (an
    energy_counts memo, whose well the refinement reads; a new one when
    None), the first interval where `count <= n`, the sign of g, flips: for
    n = 0 from a zero count at the lowest seed it gallops, as the zero counts
    then form a prefix of the seeds (the count is 0 where a concave function
    of the energy is positive), and otherwise it walks the intervals in
    turn.  Three steps then finish the level:

    * isolate: _bisect on that predicate, until the counts at the bracket's
      ends differ by exactly one, so that one eigenvalue crosses inside it;
    * refine: rootfind.brent to E_TOL_REL * M / 4 on _last_minor, the
      count recurrence's own last leading minor, a continuous function of
      the energy that vanishes at the crossing;
    * certify: count at the ends of a bracket no wider than E_TOL_REL * M
      around Brent's root.  If they do not straddle n, or if Brent raises,
      _bisect on counts alone narrows the isolated bracket to E_TOL_REL * M,
      its midpoint is reported, and the level is flagged
      CountBisectionFallback.  A bracket that reaches E_TOL_REL * M before
      it is isolated is reported the same way, without the flag.

    No step reads a computed eigenvalue, whose absolute error (eps times the
    matrix norm) swamps g where W is huge.  The residual is the half-width
    of the certifying bracket: the counts at its ends straddle n, so it
    bounds the distance from E to the crossing.

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

    def left(x):
        return (counts(x) <= n) == below

    tol = E_TOL_REL * M
    lo, hi = _bisect(left, xs[i], xs[i + 1], tol,
                     lambda a, b: abs(counts(a) - counts(b)) == 1)
    flags = frozenset()
    if hi - lo > tol:
        minor = _last_minor(counts.well, lambda x: (2.0 * (x + M), x * x - M * M), lo, hi)
        try:
            # Brent's root lies within twice its tolerance of the sign
            # change, so a quarter of tol keeps that inside the certificate
            E = brent(minor, lo, hi, minor(lo), minor(hi), 0.25 * tol)
        except ValueError:  # no sign change on the bracket
            pass
        else:
            # E -/+ half rounds by at most ulp(E) / 2 each: the bracket's
            # width stays within tol
            half = 0.5 * tol - math.ulp(E)
            if left(E - half) and not left(E + half):
                return EnergyLevel(n=n, E=E, Ebar=E * E - M * M, engine=Engine.ORACLE,
                                   residual=half)
        flags = frozenset({FLAG_COUNT_FALLBACK})
        lo, hi = _bisect(left, lo, hi, tol)
    E = 0.5 * (lo + hi)
    return EnergyLevel(n=n, E=E, Ebar=E * E - M * M, engine=Engine.ORACLE,
                       residual=0.5 * (hi - lo), flags=flags)


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


def oracle_eigenvector(params: HylleraasParams, E: float, grid: RadialGrid) -> np.ndarray:
    """Normalized eigenvector of the effective operator at energy E for the
    eigenvalue E^2 - M^2: level n's vector at solve_relativistic's E."""
    return eigenvector_tridiagonal(effective_potential(params, E, grid), grid,
                                   E * E - params.M * params.M)


# ---------------------------------------------------------------------------
# Sweeps of the count's recurrence: eigenvectors and last minors
# ---------------------------------------------------------------------------

def _sweep(band: np.ndarray, z: np.ndarray) -> None:
    """Solve the pass z[j+1] = t[j] z[j] - z[j-1] in place for z[2:] from
    z[0] and z[1], `band` holding -t in row 1 and 1 in row 2 as for
    _band_solve.

    One band solve covers the whole pass.  When z[k] first exceeds _RESCALE
    in magnitude, z[..k] is divided by |z[k]| and the rest of the pass is
    solved again from z[k-1] and z[k]: every sample keeps one positive
    scale.
    """
    start = 0
    while (j := _band_solve(band[:, start:], z[start:])) is not None:
        k = start + j
        z[:k + 1] /= abs(z[k])
        start = k - 1


def _numerov_sweep(t: np.ndarray, z0: float) -> np.ndarray:
    """z[i+1] = t[i] z[i] - z[i-1] from z[-1] = 0 and z[0] = z0, for i up to
    len(t) - 1, by _sweep: returns z[0..len(t)]."""
    n = len(t) + 2
    z = np.empty(n)
    z[0], z[1] = 0.0, z0
    band = np.empty((3, n), order="F")  # row 0, the diagonal, is not read
    band[2] = 1.0
    band[1, 1:-1] = -t
    _sweep(band, z)
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


def eigenvector_tridiagonal(w_values: np.ndarray, grid: RadialGrid,
                            sigma: float) -> np.ndarray:
    """Normalized eigenvector of -d^2/dr^2 + W for its eigenvalue sigma.

    Row i of (T - sigma) u = 0, times h^2, is the count's recurrence with
    t = 2 + h^2 (W - sigma) and u = 0 one step past either wall.
    _numerov_sweep runs it outward from the left wall to sample m, the
    _matching_index of W - sigma, and, on the reversed t, inward from the far
    wall to sample k - 1, where k is the outward pass's largest |sample|.  The
    inward pass is scaled to the outward one at k and joins it past k: the
    twisted-factorization eigenvector, twisted where |v| is large (K. V.
    Fernando, SIAM J. Matrix Anal. Appl. 18, 1013 (1997); Parlett and Dhillon,
    Linear Algebra Appl. 267, 247 (1997)).  It has unit quadrature norm, and
    its first component of significant magnitude is positive.
    """
    q = w_values - sigma
    t = 2.0 + q * (grid.h * grid.h)
    out = _numerov_sweep(t[:_matching_index(q)], 1.0)  # samples 0..m
    k = int(np.argmax(np.abs(out)))
    inward = _numerov_sweep(t[k:][::-1], 1.0)[::-1]    # samples k-1..N-1
    v = np.concatenate((out[:k + 1], inward[2:] * (out[k] / inward[1])))
    v /= math.sqrt(float(np.dot(v, v)) * grid.h)
    if v[np.argmax(np.abs(v) > 1e-8 * np.max(np.abs(v)))] < 0:
        v = -v
    return v


# WKB decay depth D = h sum sqrt(q) past the matching point at which
# _last_minor truncates the operator.  The truncated operator's solution,
# with y = 0 one row past its last, is the one that decays outward plus some
# of the one that grows outward; at the matching point that admixture is
# e^(-2 D) = 1.8e-35 of it, far below eps, so the last minor's root is that
# of the whole operator to rounding.
_DEPTH = 40.0


def _depth_rows(well: SturmCounter, c: float, sigma: float,
                b_stop: bool) -> tuple[int, np.ndarray]:
    """(m, q): the matching index and q = fl(c v) - sigma on rows 0..e, where
    e is the last row of the truncated operator whose last minor _last_minor
    takes.

    m is _matching_index of the whole q: the last row with q < 0 comes from
    well.tail, whose fl(c v) < sigma is the same test.  e is the first row
    past m at which D = h sum sqrt(q) over rows m+1..e reaches _DEPTH.  With
    b_stop, Numerov's rule, it stays before the first row past m with
    B = 1 - h^2 q / 12 <= 0, on which Numerov's step is invalid; the
    three-point recurrence has no such row.  q is formed on rows 0..hi-1,
    hi = 6 (m + 8) at first and doubled until e < hi.  e is the far wall,
    N - 1, when neither rule stops the pass earlier, when B <= 0 already at
    m + 1 under b_stop, and under _matching_index's fallbacks (no q < 0, or
    q < 0 within 3 rows of the far wall), which form q on every row.
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
            if b_stop and float(rows.max()) * k >= 1.0:
                bad = m + 1 + int(np.argmax(rows * k >= 1.0))
                if bad > m + 1:
                    return m, q[:bad]
                break  # no row past m can end the truncated operator
            if deep < hi or hi == n:
                return m, q[:deep + 1]
            hi = min(n, 2 * hi)
    q = c * v
    q -= sigma
    return _matching_index(q), q


# exp of this is the largest |value| _last_minor returns: its sign and its
# zero are what Brent needs, so a pass that outgrows its WKB factor by more
# is held there rather than overflowing
_LOG_MINOR_MAX = 700.0


def _minor_pass(well: SturmCounter, c: float, sigma: float, m: int, e: int,
                numerov: bool) -> float:
    """One value of a _last_minor at (c, sigma): the outward pass of the
    count's recurrence over rows 0..e to z_(e+1), over max|z_(m-1..m+1)|
    and exp(h sum sqrt(q)) over rows m+1..e.

    h^2 q is formed on rows 0..e as the count forms it, in the well's
    scratch buffers.  The three-point pass takes t = 2 + h^2 q from z_0 = 1.
    The Numerov pass takes t = 2 + h^2 q / B, B = 1 - h^2 q / 12, from
    z_0 = B_0, so y = z / B is 1 at row 0; it leaves B in the band's
    diagonal row, which no solve reads, and z in well.y[1:e + 2], where
    _numerov_y reads them.  The WKB factor takes out the pass's growth past
    m; the ratio is formed as a log, so that a pass that grows by more than
    the float range (W ~ 1e24 past m) still gives a finite value.
    """
    v, h2 = well.v, well.h2
    # band columns and y[j] = z_(j-1) for j = 0..e+2, and h^2 q on rows 0..e
    band, y, work = well.band[:, :e + 3], well.y[:e + 3], well.work[:e + 1]
    np.multiply(v[:e + 1], c, out=work)
    np.subtract(work, sigma, out=work)
    np.multiply(work, h2, out=work)
    minus_t = band[1, 1:-1]
    if numerov:
        b = band[0, :e + 1]
        np.divide(work, -12.0, out=b)
        b += 1.0
        np.divide(work, b, out=minus_t)
        np.subtract(-2.0, minus_t, out=minus_t)
        y[:2] = 0.0, b[0]
    else:
        np.subtract(-2.0, work, out=minus_t)
        y[:2] = 0.0, 1.0
    _sweep(band, y)
    last, scale = float(y[e + 2]), max(map(abs, y[m:m + 3].tolist()))
    if last == 0.0:
        return 0.0
    past = work[m + 1:]  # h^2 q past m, where q may dip below 0 off the ends
    np.maximum(past, 0.0, out=past)
    np.sqrt(past, out=past)
    # rescales divide z at m and at e + 1 alike; one that left z at m
    # below the float range marks a pass that outgrew it
    log_ratio = (math.log(abs(last) / scale) if scale else math.inf) - float(past.sum())
    return math.copysign(math.exp(min(log_ratio, _LOG_MINOR_MAX)), last)


def numerov_defect(well: SturmCounter, c: float, sigma: float, m: int, e: int) -> float:
    """_minor_pass with Numerov's t: one value of the Numerov _last_minor
    that numerov_shoot's Brent refines."""
    return _minor_pass(well, c, sigma, m, e, True)


def _last_minor(well: SturmCounter, coeffs: Callable[[float], tuple[float, float]],
                lo: float, hi: float, numerov: bool = False) -> Callable[[float], float]:
    """The function of x on [lo, hi] that Brent refines for a level: the
    last leading minor z_(e+1) = h^(2(e+1)) det(T_e - sigma) of the count's
    recurrence at (c, sigma) = coeffs(x), T_e the operator truncated to
    rows 0..e, scaled by _minor_pass; with numerov, the same pass of
    Numerov's recurrence in z = B y, by numerov_defect.

    m and e are the largest of _depth_rows' at lo and at hi, with its B <= 0
    stop for Numerov only, and are kept as the function's `rows`: one smooth
    function serves the whole Brent run.  Where the allowed region reaches
    the far wall, e + 1 = N and the minor is det(T - sigma) itself.  Its
    root is the eigenvalue's: with unit off-diagonals, as both recurrences
    have, the Casoratian of the outward pass and of an inward pass is the
    same at every row, and matched at e, where the inward pass has
    z_(e+1) = 0, it is -z_(e+1) times the inward pass's z_e; at depth
    _DEPTH the truncation leaves the decaying solution e^(-2 _DEPTH) of its
    size at m.  The WKB factor leaves the minor nearly linear in x near its
    root.
    """
    (m0, q0), (m1, q1) = (_depth_rows(well, *coeffs(x), numerov) for x in (lo, hi))
    m, e = max(m0, m1), max(len(q0), len(q1)) - 1

    def minor(x: float) -> float:
        c, sigma = coeffs(x)
        if numerov:
            return numerov_defect(well, c, sigma, m, e)
        return _minor_pass(well, c, sigma, m, e, False)

    minor.rows = m, e
    return minor


# samples below this fraction of max|values| carry no sign
_SIGN_NOISE = 1e-9


def count_sign_changes(values: np.ndarray) -> int:
    """Strict sign changes, ignoring samples below _SIGN_NOISE * max|values|."""
    vmax = float(np.max(np.abs(values))) if values.size else 0.0
    if vmax == 0.0:
        return 0
    sig = values[np.abs(values) > _SIGN_NOISE * vmax]
    return int(np.sum(np.sign(sig[:-1]) != np.sign(sig[1:]))) if sig.size > 1 else 0


def _numerov_y(well: SturmCounter, minor: Callable[[float], float], c: float,
               sigma: float) -> np.ndarray:
    """y = z / B on rows 0..k of the pass that the Numerov _last_minor
    `minor` last made, at (c, sigma): k is one row past the last classically
    allowed row (well.tail - 1, at least m), capped at e.  Past k a pass at
    Brent's root still carries the solution that grows outward, at about
    the root's error times e^D, whose sign changes are not nodes."""
    m, e = minor.rows
    k = min(e, max(well.tail(c, sigma) - 1, m) + 1)
    return well.y[1:k + 2] / well.band[0, :k + 1]


def numerov_shoot(params: HylleraasParams, n: int, grid: RadialGrid,
                  e_bracket: tuple[float, float]) -> EnergyLevel:
    """Fourth-order cross-check of a relativistic level: rootfind.brent to
    E_TOL_REL * M on the Numerov _last_minor over e_bracket, on the _well that
    solve_relativistic counts on for the same (params, grid).

    One more pass at Brent's root gives the residual, |minor(E)|, and the
    node count of _numerov_y, which must equal n; a mismatch is returned as
    a flagged level (the bracket captured a different state).
    """
    M = params.M
    well = _well(params, grid)
    lo, hi = e_bracket

    def coeffs(E):  # q = 2 (E + M) V - (E^2 - M^2)
        return 2.0 * (E + M), E * E - M * M

    minor = _last_minor(well, coeffs, lo, hi, numerov=True)
    try:
        E = float(brent(minor, lo, hi, minor(lo), minor(hi), E_TOL_REL * M))
    except ValueError:
        return EnergyLevel(n=n, E=None, Ebar=None, engine=Engine.ORACLE,
                           residual=None, flags=frozenset({FLAG_NO_ROOT}))
    residual = abs(minor(E))
    flags = frozenset()
    if count_sign_changes(_numerov_y(well, minor, *coeffs(E))) != n:
        flags = frozenset({FLAG_NODE_MISMATCH})
    return EnergyLevel(n=n, E=E, Ebar=E * E - M * M, engine=Engine.ORACLE,
                       residual=residual, flags=flags)
