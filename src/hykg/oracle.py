"""Ground-truth numerical solver for the s-wave radial problem.

The radial equation with equal scalar and vector coupling reduces to an
energy-dependent effective eigenproblem

    -u'' + W(r; E) u = Ebar u,   W = 2 (E + M) V(r),   Ebar = E^2 - M^2,

solved on a uniform grid with Dirichlet conditions one step outside both
ends (u(0) = 0 regularity and a far-wall cutoff).  Bound states are roots of
g(E) = Ebar_n(E) - (E^2 - M^2).  A Numerov matching integrator provides an
independent cross-check of the matrix eigenvalues, and a fixed-mass
Schroedinger solver supports the weak-coupling limit trend tests.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from .errors import NoRoot
from .hylleraas import HylleraasParams
from .levels import (
    FLAG_NO_ROOT,
    FLAG_NODE_MISMATCH,
    Engine,
    EnergyLevel,
)
from .rootfind import brent, estimate_order, seed_grid

# Brent tolerance on E for the relativistic roots (solve_relativistic and
# numerov_shoot), in units of M.
E_TOL_REL = 1e-10


class GridHeuristicWarning(UserWarning):
    """A grid heuristic (tail coverage or stencil stability) is violated."""


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


def check_grid(grid: RadialGrid, params: HylleraasParams | None,
               w_values: np.ndarray) -> None:
    """Emit (not raise) heuristic warnings: the u(0) = 0 wall placement, tail
    coverage and stencil stability."""
    if abs(grid.r_min - grid.h) > 1e-9 * grid.h:
        warnings.warn("r_min != h moves the u(0) = 0 wall off the origin",
                      GridHeuristicWarning, stacklevel=3)
    if params is not None:
        if grid.r_max * (1.0 + params.K) * params.omega < 20.0:
            warnings.warn("grid tail coverage below the r_max*(1+K)*omega >= 20 heuristic",
                          GridHeuristicWarning, stacklevel=3)
    wmax = float(np.max(np.abs(w_values))) if w_values.size else 0.0
    if grid.h ** 2 * wmax >= 0.5:
        warnings.warn("h^2 * max|W| >= 0.5; stencil accuracy is degraded",
                      GridHeuristicWarning, stacklevel=3)


def potential_samples(params: HylleraasParams, grid: RadialGrid) -> np.ndarray:
    abc = params.abc
    expo = 2.0 * (1.0 + params.K) * params.omega * grid.points
    if params.s_sign.value == "negative":
        expo = -expo
    # V reaches its limit D_e to double precision long before exp overflows;
    # the cap keeps s finite so the far tail is D_e, not inf/inf = NaN
    s = np.exp(np.minimum(expo, 300.0))
    den = (s + abc.a) * (s + abc.c) * (1 + abc.b)
    return params.D_e * (1.0 - (1 + abc.a) * (1 + abc.c) * (s + abc.b) / den)


def effective_potential(params: HylleraasParams, e_param: float,
                        grid: RadialGrid) -> np.ndarray:
    """W(r) = 2 (E + M) V(r): the equal-coupling effective potential."""
    return 2.0 * (e_param + params.M) * potential_samples(params, grid)


def eigen_tridiagonal(w_values: np.ndarray, grid: RadialGrid, m: int,
                      first: int = 0) -> np.ndarray:
    """Eigenvalues first..m-1 (0-based, ascending) of -d^2/dr^2 + W.

    Sturm-sequence bisection (LAPACK stebz; Barth, Martin and Wilkinson,
    Numer. Math. 9, 386 (1967)) computes only the requested indices, so a
    single level costs one bisection, not m.  The result is a compact copy:
    scipy returns a view into an N-long work array, which would otherwise
    stay alive with it.
    """
    h2 = grid.h * grid.h
    diag = 2.0 / h2 + w_values
    off = np.full(grid.n - 1, -1.0 / h2)
    vals = eigvalsh_tridiagonal(diag, off, select="i", select_range=(first, m - 1),
                                lapack_driver="stebz")
    return np.array(vals, dtype=float)


def eigenvector_tridiagonal(w_values: np.ndarray, grid: RadialGrid,
                            index: int) -> tuple[float, np.ndarray]:
    """(eigenvalue, normalized eigenvector) of the index-th level (0-based).

    The vector is normalized to unit quadrature norm and its sign fixed by
    making the first component of significant magnitude positive.
    """
    h2 = grid.h * grid.h
    diag = 2.0 / h2 + w_values
    off = np.full(grid.n - 1, -1.0 / h2)
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(index, index))
    v = vecs[:, 0]
    norm = math.sqrt(float(np.sum(v * v)) * grid.h)
    v = v / norm
    big = np.nonzero(np.abs(v) > 1e-8 * float(np.max(np.abs(v))))[0]
    if big.size and v[big[0]] < 0:
        v = -v
    return float(vals[0]), v


# equal steps of the oracle's seed scan across (-M, M)
_SEEDS = 64


@dataclass(frozen=True)
class SeedTable:
    """Eigenvalues first..first+m-1 of the effective operator at every seed
    energy: one scan shared by all the levels it covers."""

    xs: list[float]
    ebars: np.ndarray   # (len(xs), m)
    first: int          # the level in column 0


def seed_table(params: HylleraasParams, grid: RadialGrid,
               ns: Iterable[int]) -> SeedTable:
    """One seed scan for levels min(ns)..max(ns) (see solve_relativistic)."""
    ns = list(ns)
    M = params.M
    v = potential_samples(params, grid)
    xs = seed_grid(-M * (1 - 1e-9), M * (1 - 1e-9), _SEEDS).tolist()
    return SeedTable(xs, np.array([eigen_tridiagonal(2.0 * (x + M) * v, grid,
                                                     max(ns) + 1, first=min(ns))
                                   for x in xs]), min(ns))


def _jump_guard(f, xs: list[float], ys: list[float]) -> tuple[list[float], list[float]]:
    """One deterministic refinement pass of a seed scan of f where consecutive
    values jump by more than 10x the typical local step."""
    steps = [abs(ys[i + 1] - ys[i]) for i in range(len(xs) - 1)]
    finite = sorted(s for s in steps if math.isfinite(s))
    typical = finite[len(finite) // 2] if finite else 0.0
    if typical > 0:
        refined_x, refined_y = [xs[0]], [ys[0]]
        for i in range(len(xs) - 1):
            if steps[i] > 10.0 * typical:
                mid = 0.5 * (xs[i] + xs[i + 1])
                refined_x.append(mid)
                refined_y.append(f(mid))
            refined_x.append(xs[i + 1])
            refined_y.append(ys[i + 1])
        xs, ys = refined_x, refined_y
    return xs, ys


def solve_relativistic(params: HylleraasParams, n: int, grid: RadialGrid,
                       table: SeedTable | None = None) -> EnergyLevel:
    """Lowest root of g(E) = Ebar_n(E) - (E^2 - M^2) on (-M, M).

    A seed scan of g brackets the first sign change; Brent's method (Brent,
    "Algorithms for Minimization without Derivatives", 1973) refines it.
    Every g evaluation is a single-index Sturm bisection for eigenvalue n.
    The seed values come from a `seed_table`: `table` when given (a shared
    scan covering level n), else the level's own table of n alone.  The
    table only chooses the bracket: the jump guard, Brent and the residual
    all use this level's own solve, and if that solve shows no sign change
    on a shared table's bracket, the level's own table is scanned instead.

    Returns a flagged NoRoot level when g has no sign change.
    """
    M = params.M
    v = potential_samples(params, grid)
    check_grid(grid, params, 2.0 * (2 * M) * v)

    def g(E: float) -> float:
        w = 2.0 * (E + M) * v
        ebar_n = float(eigen_tridiagonal(w, grid, n + 1, first=n)[0])
        return ebar_n - (E * E - M * M)

    def first_root(t: SeedTable) -> float | None:
        """Brent-refined first sign change of the guarded scan of t, or None.
        Brent re-evaluates the bracket ends with g itself, and raises
        ValueError when they show no sign change."""
        ys = [float(e) - (x * x - M * M) for x, e in zip(t.xs, t.ebars[:, n - t.first])]
        xs, ys = _jump_guard(g, t.xs, ys)
        for i in range(len(xs) - 1):
            if ys[i] == 0.0:
                return float(xs[i])
            if ys[i] * ys[i + 1] < 0:
                return float(brent(g, xs[i], xs[i + 1], E_TOL_REL * M))
        return None

    own = cache(lambda: seed_table(params, grid, (n,)))
    try:
        root = first_root(table or own())
    except ValueError:
        root = first_root(own())
    if root is None:
        return EnergyLevel(n=n, E=None, Ebar=None, engine=Engine.ORACLE,
                           residual=None, flags=frozenset({FLAG_NO_ROOT}))
    return EnergyLevel(n=n, E=root, Ebar=root * root - M * M,
                       engine=Engine.ORACLE, residual=float(abs(g(root))))


def solve_levels(params: HylleraasParams, ns: Iterable[int],
                 grid: RadialGrid) -> dict[int, EnergyLevel]:
    """One solve_relativistic level per n in ns, all bracketed from one shared
    seed scan of levels min(ns)..max(ns)."""
    ns = list(ns)
    table = seed_table(params, grid, ns)
    return {n: solve_relativistic(params, n, grid, table=table) for n in ns}


def oracle_eigenvector(params: HylleraasParams, E: float, grid: RadialGrid,
                       n: int) -> np.ndarray:
    """Normalized n-th eigenvector of the effective operator at energy E."""
    w = effective_potential(params, E, grid)
    return eigenvector_tridiagonal(w, grid, n)[1]


# ---------------------------------------------------------------------------
# Numerov matching integrator
# ---------------------------------------------------------------------------

_RESCALE = 1e100


def _numerov_outward(q, h, upto):
    """Integrate y'' = q y from the left wall; returns samples 0..upto."""
    t = h * h / 12.0
    y = [0.0] * (upto + 1)
    y[0] = h
    if upto >= 1:
        # ghost point y(-1) = 0 contributes nothing to the first step
        y[1] = (2.0 * (1.0 + 5.0 * t * q[0]) * y[0]) / (1.0 - t * q[1])
    for i in range(1, upto):
        y[i + 1] = (2.0 * (1.0 + 5.0 * t * q[i]) * y[i]
                    - (1.0 - t * q[i - 1]) * y[i - 1]) / (1.0 - t * q[i + 1])
        if abs(y[i + 1]) > _RESCALE:
            scale = abs(y[i + 1])
            for j in range(i + 2):
                y[j] /= scale
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
    y_out = _numerov_outward(list(q), h, m + 1)
    # the inward solution, samples m-1..n-1, is the outward one of the mirrored q
    y_in = _numerov_outward(list(q[::-1]), h, len(q) - m)[::-1]

    # scale both to O(1) at the matching point: samples m-1, m, m+1
    out3, in3 = y_out[m - 1:m + 2], y_in[:3]
    s_out = max(*map(abs, out3), 1e-300)
    s_in = max(*map(abs, in3), 1e-300)
    o0, o1, o2 = (y / s_out for y in out3)
    i0, i1, i2 = (y / s_in for y in in3)
    wronskian = o1 * (i2 - i0) / (2 * h) - i1 * (o2 - o0) / (2 * h)

    # assembled solution for node counting: join the inward tail at m
    assembled = np.empty(len(q))
    assembled[: m + 1] = np.asarray(y_out[: m + 1]) / s_out
    tail = np.asarray(y_in[1:])  # samples m .. n-1
    if tail[0] != 0.0:
        tail = tail * (assembled[m] / tail[0])
    assembled[m:] = tail
    return wronskian, assembled


def count_sign_changes(values: np.ndarray, noise: float = 1e-9) -> int:
    """Strict sign changes, ignoring samples below noise * max|values|."""
    vmax = float(np.max(np.abs(values))) if values.size else 0.0
    if vmax == 0.0:
        return 0
    sig = values[np.abs(values) > noise * vmax]
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
    v = potential_samples(params, grid)

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
    """(n+1)-th smallest eigenvalue of -(1/2) d^2/dr^2 + 2 V, unit-mass convention."""
    v = potential_samples(params, grid)
    h2 = grid.h * grid.h
    diag = 1.0 / h2 + 2.0 * v
    off = np.full(grid.n - 1, -0.5 / h2)
    vals = eigvalsh_tridiagonal(diag, off, select="i", select_range=(n, n),
                                lapack_driver="stebz")
    return float(vals[0])


def convergence_order(params: HylleraasParams, n: int, grids: list[RadialGrid],
                      method: str = "matrix") -> tuple[float, bool]:
    """Self-convergence slope of the relativistic solve across halving grids.

    Grids must halve h between consecutive entries.  Returns (slope,
    low_signal); expected slopes are ~2 for the matrix method and ~4 for
    Numerov.
    """
    if len(grids) < 3:
        raise ValueError("need >= 3 grids")
    energies = []
    for grid in grids:
        level = solve_relativistic(params, n, grid)
        if not level.found:
            raise NoRoot(f"no level n={n} on grid n={grid.n}")
        E = level.E
        if method == "numerov":
            span = 0.05 * params.M
            level = numerov_shoot(params, n, grid, (E - span, E + span))
            if not level.found:
                raise NoRoot("numerov lost the bracket")
            E = level.E
        energies.append(E)
    return estimate_order([g.h for g in grids], energies)
