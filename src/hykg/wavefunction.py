"""Closed-form radial wavefunctions and their numerical support.

The printed construction factors the radial solution as

    R(r) = (s+a)^(D/2) (s+c)^(F/2) * chi_n(s),    s = s(r),

with chi_n generated by a Rodrigues derivative over the weight
(s+a)^D (s+c)^F, a Jacobi polynomial up to an affine change of variable.
The printed exponent formulas divide by (c - a); at symmetric parameter sets
(a = c) this module switches to the confluent representation derived
mechanically from the selected branch, where the power pair collapses to a
power times exp(-w / (s+a)).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .closedform import build_nu_input, intermediates
from .errors import (
    DegenerateAC,
    DomainError,
    NotRepresentable,
    TailNotConverged,
)
from .hylleraas import HylleraasParams, s_of_r
from .levels import FLAG_CONFLUENT_FORM, FLAG_TAIL_NOT_CONVERGED, EnergyLevel
from .nu import BranchGap, NUInput, NUSolution, quantization
from .oracle import count_sign_changes

_MAX_RODRIGUES_N = 12


class NonClassicalWarning(UserWarning):
    """Jacobi parameters at or below -1: outside the classical weight range."""


# ---------------------------------------------------------------------------
# Jacobi polynomials
# ---------------------------------------------------------------------------

def jacobi_series(n: int, alpha: float, beta: float, x: float) -> float:
    """Terminating series form; entire in (alpha, beta), used as the fallback
    when the recurrence denominators degenerate."""
    total = 0.0
    for k in range(n + 1):
        t1 = 1.0
        for j in range(1, n - k + 1):
            t1 *= (alpha + k + j)
        t1 /= math.factorial(n - k)
        t2 = 1.0
        for j in range(k):
            t2 *= (n + beta - j)
        t2 /= math.factorial(k)
        total += t1 * t2 * ((x - 1.0) / 2.0) ** k * ((x + 1.0) / 2.0) ** (n - k)
    return total


def jacobi_P(n: int, alpha: float, beta: float, x: float) -> float:
    """P_n^(alpha,beta)(x) by the standard three-term recurrence.

    Parameters <= -1 are permitted numerically but flagged as non-classical.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if alpha <= -1.0 or beta <= -1.0:
        warnings.warn("Jacobi parameters at or below -1", NonClassicalWarning,
                      stacklevel=2)
    if n == 0:
        return 1.0
    p_prev = 1.0
    p_cur = 0.5 * ((alpha + beta + 2.0) * x + (alpha - beta))
    for m in range(2, n + 1):
        apb = alpha + beta
        c1 = 2.0 * m * (m + apb) * (2.0 * m + apb - 2.0)
        if abs(c1) < 1e-12 * max(1.0, m ** 3):
            return jacobi_series(n, alpha, beta, x)
        c2 = (2.0 * m + apb - 1.0) * ((2.0 * m + apb) * (2.0 * m + apb - 2.0) * x
                                      + alpha * alpha - beta * beta)
        c3 = 2.0 * (m + alpha - 1.0) * (m + beta - 1.0) * (2.0 * m + apb)
        p_prev, p_cur = p_cur, (c2 * p_cur - c3 * p_prev) / c1
    return p_cur


# ---------------------------------------------------------------------------
# Printed exponent pair
# ---------------------------------------------------------------------------

def exponents_DF(params: HylleraasParams,
                 level: EnergyLevel) -> dict[str, tuple[float, float]]:
    """(D, F) of both readings of the printed formulas, by reading name:

        printed:   D = (1 - (muJ c + nuJ)) / (alpha1 (c - a))
        symmetric: D = -(muJ c + nuJ) / (2 alpha1 (c - a))
        both:      F = (muJ a + nuJ) / (2 alpha1 (c - a))

    The printed grouping carries an asymmetric factor 2, so both are kept and
    the audit reports which one behaves.  muJ and nuJ are those of one
    `closedform.intermediates` call; where either is complex the factor is
    NotRepresentable.
    """
    abc = params.abc
    a, c = abc.a, abc.c
    if a == c:
        raise DegenerateAC("printed exponents divide by c - a = 0")
    im = intermediates(params, level.E, level.n)
    if im.muJ.imag or im.nuJ.imag:
        raise NotRepresentable(f"muJ = {im.muJ:.6g} or nuJ = {im.nuJ:.6g} "
                               f"is not real at E = {level.E}")
    muJ, nuJ = im.muJ.real, im.nuJ.real
    a1 = 1 + abc.b
    F = (muJ * a + nuJ) / (2.0 * a1 * (c - a))
    return {"printed": ((1.0 - (muJ * c + nuJ)) / (a1 * (c - a)), F),
            "symmetric": (-(muJ * c + nuJ) / (2.0 * a1 * (c - a)), F)}


# ---------------------------------------------------------------------------
# Rodrigues polynomial factors
# ---------------------------------------------------------------------------

def _falling(x: float, k: int) -> float:
    out = 1.0
    for j in range(k):
        out *= (x - j)
    return out


def rodrigues_chi(n: int, D: float, F: float, a: float, c: float,
                  s: np.ndarray) -> np.ndarray:
    """chi_n(s) = (s+a)^-D (s+c)^-F d^n/ds^n [(s+a)^(n+D) (s+c)^(n+F)].

    Evaluated through the Leibniz expansion, exact for the polynomial result:

        chi_n = sum_k C(n,k) ff(n+D,k) ff(n+F,n-k) (s+a)^(n-k) (s+c)^k
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > _MAX_RODRIGUES_N:
        raise ValueError(f"derivative order capped at {_MAX_RODRIGUES_N}")
    if np.any(s + a <= 0) or np.any(s + c <= 0):
        raise DomainError("factor bases must be positive")
    total = np.zeros_like(s)
    for k in range(n + 1):
        coeff = math.comb(n, k) * _falling(n + D, k) * _falling(n + F, n - k)
        total = total + coeff * (s + a) ** (n - k) * (s + c) ** k
    return total


def confluent_chi_coeffs(n: int, u: float, v: float) -> list[float]:
    """Coefficients gamma_j of chi_n = sum_j gamma_j (s+a)^j for the confluent
    weight rho = (s+a)^u exp(-v/(s+a)).

    Derivatives stay inside the family sum c_m (s+a)^m exp(-v/(s+a)) via
    d/ds [(s+a)^m e^(-v/(s+a))] = [m (s+a)^(m-1) + v (s+a)^(m-2)] e^(...),
    so the n-th derivative of (s+a)^(2n+u) e^(-v/(s+a)) is exact.
    """
    if n > _MAX_RODRIGUES_N:
        raise ValueError(f"derivative order capped at {_MAX_RODRIGUES_N}")
    terms: dict[int, float] = {2 * n: 1.0}  # exponent offset from u
    for _ in range(n):
        nxt: dict[int, float] = {}
        for off, coeff in terms.items():
            m = off + u
            nxt[off - 1] = nxt.get(off - 1, 0.0) + coeff * m
            nxt[off - 2] = nxt.get(off - 2, 0.0) + coeff * v
        terms = nxt
    # dividing by rho shifts exponents by -u: integer powers 0..n remain
    return [terms.get(j, 0.0) for j in range(n + 1)]


@dataclass(frozen=True)
class ConfluentFactor:
    """R = (s+a)^p exp(-w/(s+a)) * sum_j gamma_j (s+a)^j at a double root -a."""

    a: float
    p: float
    w: float
    chi_coeffs: list[float]

    def __call__(self, s: np.ndarray) -> np.ndarray:
        base = s + self.a
        if np.any(base <= 0):
            raise DomainError("base factor must stay positive")
        chi = np.zeros_like(base)
        for j in reversed(range(len(self.chi_coeffs))):
            chi = chi * base + self.chi_coeffs[j]
        return base ** self.p * np.exp(-self.w / base) * chi


def confluent_radial_factor(inp: NUInput, sol: NUSolution, n: int) -> ConfluentFactor:
    """Mechanical closed form at a repeated sigma root: phi * chi_n.

    phi  = (s+a)^(pi1/P) exp(-pi(-a)/(P (s+a))),      P = sigma''/2
    rho  = (s+a)^(N1/P)  exp(-N(-a)/(P (s+a))),       N = tau - sigma'
    chi_n from the confluent Rodrigues over rho.
    """
    sg = inp.sigma
    if sg.degree != 2:
        raise DegenerateAC("confluent factor needs a quadratic sigma")
    P = sg.c2
    r = -sg.c1 / (2.0 * P)  # double root; caller guarantees near-degeneracy
    a = -r
    pi = sol.pi
    pi_at_root = pi(r)
    sp = sg.deriv()
    n1 = sol.tau.c1 - sp.c1
    n_at_root = sol.tau(r) - sp(r)
    u = n1 / P
    v = n_at_root / P
    coeffs = confluent_chi_coeffs(n, u, v)
    return ConfluentFactor(a=a, p=pi.c1 / P, w=pi_at_root / P, chi_coeffs=coeffs)


# ---------------------------------------------------------------------------
# Radial assembly
# ---------------------------------------------------------------------------

def radial_R(level: EnergyLevel, params: HylleraasParams,
             r: np.ndarray) -> dict[str, np.ndarray]:
    """Closed-form R on an array of radii in every representation, by label.

    At a = c the confluent form is the only one ("confluent-mechanical").
    Otherwise each reading's (D, F) is placed both ways on the two bases:
    "printed/D_on_a", "printed/F_on_a", "symmetric/D_on_a",
    "symmetric/F_on_a", in that order.  The exponents are derived once, s(r)
    is sampled once, and chi_n is evaluated once per reading.
    """
    if _is_confluent(params):
        factor = _confluent_for(level, params)
        return {"confluent-mechanical":
                factor(s_of_r(r, params.K, params.omega, params.s_sign))}
    abc = params.abc
    exponents = exponents_DF(params, level)
    s = s_of_r(r, params.K, params.omega, params.s_sign)
    forms = {}
    for reading, (D, F) in exponents.items():
        chi = rodrigues_chi(level.n, D, F, abc.a, abc.c, s)
        forms[f"{reading}/D_on_a"] = (s + abc.a) ** (D / 2.0) * (s + abc.c) ** (F / 2.0) * chi
        forms[f"{reading}/F_on_a"] = (s + abc.a) ** (F / 2.0) * (s + abc.c) ** (D / 2.0) * chi
    return forms


def _is_confluent(params: HylleraasParams) -> bool:
    abc = params.abc
    return abs(abc.a - abc.c) <= 1e-12 * max(1.0, abs(abc.a), abs(abc.c))


def _confluent_for(level: EnergyLevel, params: HylleraasParams) -> ConfluentFactor:
    inp = build_nu_input(params, level.E)
    out = quantization(inp, level.n)
    if isinstance(out, BranchGap):
        raise NotRepresentable(f"no mechanical branch at E = {level.E}: {out.reason}")
    return confluent_radial_factor(inp, out[0], level.n)


@dataclass(frozen=True)
class RadialFunction:
    """Sampled radial function with normalization bookkeeping.

    norm_constant is None when the tail check failed (non-normalizable
    construction); values are then raw samples.
    """

    grid: np.ndarray
    values: np.ndarray
    norm_constant: float | None
    node_count: int
    representation: str
    flags: frozenset[str] = frozenset()

    def __post_init__(self):
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")


def composite_simpson(values: np.ndarray, h: float) -> float:
    """Composite Simpson on uniform samples; a trailing trapezoid panel covers
    an odd interval count."""
    n = len(values)
    if n < 3:
        return float(0.5 * h * (values[0] + values[-1]) + h * np.sum(values[1:-1]))
    if (n - 1) % 2 == 0:
        main, tail = values, 0.0
    else:
        main = values[:-1]
        tail = 0.5 * h * (values[-2] + values[-1])
    acc = main[0] + main[-1] + 4.0 * np.sum(main[1:-1:2]) + 2.0 * np.sum(main[2:-2:2])
    return float(acc * h / 3.0 + tail)


def simpson_adaptive(f, lo: float, hi: float, rel_tol: float = 1e-9,
                     max_doublings: int = 16) -> float:
    """Composite Simpson with dyadic grid doubling until relative stability."""
    n = 128
    xs = np.linspace(lo, hi, n + 1)
    prev = composite_simpson(np.array([f(x) for x in xs]), (hi - lo) / n)
    for _ in range(max_doublings):
        n *= 2
        xs = np.linspace(lo, hi, n + 1)
        cur = composite_simpson(np.array([f(x) for x in xs]), (hi - lo) / n)
        if abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    return prev


# |R| at a grid edge below this fraction of max|R| counts as a decayed tail
_TAIL_THRESHOLD = 1e-8


def _tails_decayed(grid: np.ndarray, values: np.ndarray) -> bool:
    vmax = float(np.max(np.abs(values)))
    if vmax == 0.0:
        return False
    # the left check is vacuous when the grid starts at the physical origin:
    # the support cannot extend below r = 0
    h = float(grid[1] - grid[0])
    left_ok = grid[0] <= 3.0 * h or abs(values[0]) < _TAIL_THRESHOLD * vmax
    return left_ok and abs(values[-1]) < _TAIL_THRESHOLD * vmax


def normalize(radial: RadialFunction) -> RadialFunction:
    """Rescale so the quadrature norm integral of |R|^2 equals 1.

    Raises TailNotConverged when the samples have not decayed at the grid
    edges; that outcome is expected for the non-normalizable printed
    convention and is recorded, not swallowed, by callers.
    """
    if not _tails_decayed(radial.grid, radial.values):
        raise TailNotConverged("samples have not decayed at the grid edges")
    h = float(radial.grid[1] - radial.grid[0])
    integral = composite_simpson(radial.values ** 2, h)
    if integral <= 0:
        raise TailNotConverged("norm integral is not positive")
    constant = 1.0 / math.sqrt(integral)
    return replace(radial, values=radial.values * constant,
                   norm_constant=(radial.norm_constant or 1.0) * constant)


def build_radial(params: HylleraasParams, level: EnergyLevel,
                 grid) -> list[RadialFunction]:
    """The level sampled on an oracle grid in every representation of
    `radial_R`, in its order; each form is normalized where its tails decay
    and carries its node count."""
    points = np.asarray(getattr(grid, "points", grid), dtype=float)
    flags = frozenset({FLAG_CONFLUENT_FORM}) if _is_confluent(params) else frozenset()
    forms = []
    for label, values in radial_R(level, params, points).items():
        radial = RadialFunction(grid=points, values=values, norm_constant=1.0,
                                node_count=0, flags=flags, representation=label)
        try:
            radial = normalize(radial)
        except TailNotConverged:
            radial = replace(radial, norm_constant=None,
                             flags=radial.flags | {FLAG_TAIL_NOT_CONVERGED})
        forms.append(replace(radial, node_count=count_sign_changes(radial.values)))
    return forms
