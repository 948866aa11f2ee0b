"""Verbatim transcription of the closed-form derivation under audit.

This module reproduces, symbol for symbol, the printed reduction of the
equal-coupling radial problem to hypergeometric type and its closed-form
energy expressions.  Nothing here is "corrected": where the printed algebra
is internally inconsistent the transcription keeps the printed reading and
the audit module quantifies the damage.  Three energy engines are exposed:

  * energy_mechanical_result -- roots of the machine-derived quantization
    lambda(E) = lambda_n(E) that `nu.quantization` reads off the printed
    base polynomials `build_nu_input` (the toolkit's best-effort corrected
    spectrum; the audit and the confluent wavefunction take their branch
    from the same two calls);
  * energy_implicit_result   -- roots of the printed lambda / lambda_n pair;
  * energy_eq45_result       -- roots of the printed explicit energy
    equation, evaluated with the appendix-form constants it cites.

Printed radicands go negative in large parameter regions; intermediates are
then carried in complex arithmetic and flagged, and the root scanners treat
those regions as exclusion zones.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .hylleraas import (HylleraasParams, appendix_a_forms, appendix_constants, epsilon2,
                        square)
from .levels import (
    FLAG_EPS2_NEGATIVE,
    FLAG_NEGATIVE_UNDER_SQRT,
    FLAG_SIGN_MINUS,
    FLAG_SIGN_PLUS,
    FLAG_TAU_PRIME_NONNEG,
    Engine,
    EnergyLevel,
)
from .nu import BranchGap, NUInput, Poly2, lambda_n_value, lenient_branch_array, quantization
from .rootfind import scan_roots, seed_grid

# Scan protocol shared by the closed-form engines, read at call time: 2000
# brackets over the bound-state window |E| <= M (1 - 1e-9), Brent refinement
# to 1e-12 absolute in E.
#
# Each engine solves every requested n in one call.  Only lambda_n (and the
# eq45 n-terms) depend on n; the constant cascade, the NU closure and the
# branch choice depend on E alone.  `_seed_energies` builds the call's one
# seed array, and every scan of the call (each n, both eq45 signs) brackets
# on it.  The seed values are array expressions: the n-free part is
# evaluated once per call on the seed array, then each n adds its terms.
# Seed values only pick the brackets.  Brent refines each bracket with the
# public scalar residual, which evaluates everything at its trial energy:
# Brent does not come back to an energy, so nothing is kept between calls.
# Each root is then judged once, by one scalar evaluation that gives its
# residual, its acceptance and its flags, EPS2_NEGATIVE included (`_scan`).
# Every engine's seed values are bit-identical to its scalar residual: array
# squares go through `hylleraas.square`, which repeats Python's ** 2 (libm
# pow).  The mechanical engine reads the NU closure through
# `nu.quantization` at one energy and `nu.lenient_branch_array` on the seed
# array, its bit-identical twin.
N_BRACKETS = 2000
TOL_E = 1e-12
RESIDUAL_REL = 1e-8
EQ45_RESIDUAL_REL = 1e-10
WINDOW_SHRINK = 1e-9


def build_nu_input(params: HylleraasParams, E: float) -> NUInput:
    """Base polynomials of the transcribed reduction at trial energy E:

        sigma       = 2 (1+b) (s+a) (s+c)
        tau_tilde   = 2 (1+b) (s+c)
        sigma_tilde = -eps^2 s^2 + beta^2 s + gamma^2

    with beta^2 = eps^2 - beta'^2 and gamma^2 = eps^2 - gamma'^2.
    """
    abc = params.abc
    cst = appendix_constants(params, E)
    a, b, c = abc.a, abc.b, abc.c
    two_b1 = 2.0 * (1 + b)
    sigma = Poly2(two_b1 * a * c, two_b1 * (a + c), two_b1)
    tau_tilde = Poly2(two_b1 * c, two_b1, 0.0)
    sigma_tilde = Poly2(cst.gamma2, cst.beta2, -cst.eps2)
    return NUInput(sigma=sigma, tau_tilde=tau_tilde, sigma_tilde=sigma_tilde)


@dataclass(frozen=True)
class ClosedFormIntermediates:
    """The printed branch quantities at one (E, n), complex-capable.

    `tau_prime_printed` is the separately printed slope formula
    -2 (muJ - 4 alpha1); it disagrees by 4 alpha1 with 4 alpha1 - 2 muJ, the
    derivative of the printed tau polynomial.
    """

    k: complex
    tau_prime_printed: complex
    lam: complex
    lam_n: complex
    muJ: complex
    nuJ: complex
    flags: frozenset[str]


def _lam_n_printed(sqrt_upv: complex, a1: float, n: int) -> complex:
    """Printed lambda_n = 2 n sqrt(U + V) - 2 alpha1 n (n + 3)."""
    return 2.0 * n * sqrt_upv - 2.0 * a1 * n * (n + 3) if n else 0j


def intermediates(params: HylleraasParams, E: float, n: int) -> ClosedFormIntermediates:
    """Evaluate the printed branch selection verbatim.

    k   = -(Lam2 + Lam3 eps^2) - sqrt(U^2 - V^2)
    tau = 2 alpha1 [2 s + (a + c)] - 2 [muJ s - nuJ]
    tau'_printed = -2 [muJ - 4 alpha1]
    lam   = -(Lam2 + Lam3 eps^2) - sqrt(U^2 - V^2)
    lam_n = 2 n sqrt(U + V) - 2 alpha1 n (n + 3)

    with U^2 = delta^2 (eps^2 + A)^2, V^2 = A^2 - B,
    muJ = sqrt(delta (eps^2+A) + sqrt(A^2-B)),
    nuJ = sqrt(delta (eps^2+A) - sqrt(A^2-B)).
    """
    cst = appendix_constants(params, E)
    flags: set[str] = set()
    if cst.eps2 <= 0:
        flags.add(FLAG_EPS2_NEGATIVE)
    # delta2 = Lam3^2 + 12 Lam1 with Lam1 = 4 alpha1^2 (a-c)^2 >= 0, so the
    # main-chain delta is real for every valid parameter set.
    delta = math.sqrt(cst.delta2)
    U = delta * (cst.eps2 + cst.A)
    V = cmath.sqrt(cst.V2)
    if cst.V2 < 0:
        flags.add(FLAG_NEGATIVE_UNDER_SQRT)
    u2mv2 = cst.U2 - cst.V2
    if u2mv2 < 0:
        flags.add(FLAG_NEGATIVE_UNDER_SQRT)
    muJ = cmath.sqrt(U + V)
    nuJ = cmath.sqrt(U - V)
    if (U + V).real < 0 or (U - V).real < 0:
        flags.add(FLAG_NEGATIVE_UNDER_SQRT)

    a1 = cst.alpha1
    head = -(cst.Lam2 + cst.Lam3 * cst.eps2)
    k = head - cmath.sqrt(u2mv2)
    lam = k
    lam_n = _lam_n_printed(muJ, a1, n)

    return ClosedFormIntermediates(
        k=k, tau_prime_printed=-2.0 * (muJ - 4.0 * a1),
        lam=lam, lam_n=lam_n, muJ=muJ, nuJ=nuJ, flags=frozenset(flags))


# ---------------------------------------------------------------------------
# Verbatim explicit energy equation (appendix-form constants)
# ---------------------------------------------------------------------------
#
# Transcription doc block, kept next to the code for side-by-side review.
# With W = sqrt(A^2 - B), d = delta (appendix explicit form), L3 the appendix
# Lam3, a1 = 1 + b, and P the prefactor, the printed right-hand side for
# Ebar = E^2 - M^2 reads
#
#     P  = w^2 (1+K)^2 W / (2 mu (1+b) d^2)
#     T1 = L3 + (A/W) * (1 + (L3/A) W - d (1+2n) / W)
#     T2 = (A/W) * (A/2 - d (1+2n) / W) + a1 (1 + 2 n (n+3)) - L3 - W
#     Ebar = P * T1  +/-  P * sqrt( T1 * (2 d / W)^2 * T2^2 )
#
# T1 and T2 are implemented in the algebraically identical expanded forms
#
#     T1 = 2 L3 + A/W - A d (1+2n) / W^2
#     T2 = A^2 / (2W) - A d (1+2n) / W^2 + a1 (1 + 2 n (n+3)) - L3 - W
#
# which avoid the removable 0/0 at A = 0 (the printed grouping divides by A).
# ---------------------------------------------------------------------------

def _eq45_forms(params: HylleraasParams, E):
    """The appendix-form constants the explicit equation reads: (A, B, delta,
    Lam3), at one E or, as arrays for A and B, at an array of E."""
    forms = appendix_a_forms(params, E)
    return forms.A_a13, forms.B_a14, forms.delta_a9, forms.Lam3_a7


def _eq45_terms(params: HylleraasParams, A, d: float, L3: float, n: int, W, w2b):
    """(P, T1, radicand) of the explicit equation, for scalar or array A, W."""
    a1 = 1 + params.abc.b
    pref = params.scale2 * W / (2.0 * params.mu * a1 * d * d)
    t1 = 2.0 * L3 + A / W - A * d * (1 + 2 * n) / w2b
    t2 = (A * A / (2.0 * W) - A * d * (1 + 2 * n) / w2b
          + a1 * (1 + 2 * n * (n + 3)) - L3 - W)
    return pref, t1, t1 * square(2.0 * d / W) * t2 * t2


def eq45_rhs(params: HylleraasParams, E: float, n: int) -> tuple[float | None, float | None]:
    """Both printed sign branches of the explicit energy expression, or None
    where a radicand or denominator makes the branch non-real."""
    A, B, d, L3 = _eq45_forms(params, E)
    w2b = A * A - B
    if w2b <= 0 or d == 0:
        return None, None
    pref, t1, radicand = _eq45_terms(params, A, d, L3, n, math.sqrt(w2b), w2b)
    if radicand < 0:
        return None, None
    sq = math.sqrt(radicand)
    return pref * t1 - pref * sq, pref * t1 + pref * sq


def _eq45_seed_rhs(params: HylleraasParams, forms, n: int) -> tuple[np.ndarray, np.ndarray]:
    """eq45_rhs on arrays: `forms` is `_eq45_forms` of the seed grid; NaN
    replaces None."""
    A, B, d, L3 = forms
    w2b = A * A - B
    with np.errstate(all="ignore"):
        W = np.sqrt(np.where((w2b > 0) & (d != 0), w2b, math.nan))
        pref, t1, radicand = _eq45_terms(params, A, d, L3, n, W, w2b)
        sq = np.sqrt(radicand)
    return pref * t1 - pref * sq, pref * t1 + pref * sq


# ---------------------------------------------------------------------------
# Root scanning shared by the three engines
# ---------------------------------------------------------------------------


def _seed_energies(params: HylleraasParams) -> np.ndarray:
    """The seeds of every scan of one engine call: N_BRACKETS brackets over
    the bound-state window |E| <= M (1 - WINDOW_SHRINK)."""
    hi = params.M * (1.0 - WINDOW_SHRINK)
    return seed_grid(-hi, hi, N_BRACKETS)


# An engine's verdict on one root: (residual, accepted, the engine's root flags)
Verdict = tuple[float, bool, Iterable[str]]


def _scan(params: HylleraasParams, n: int, engine: Engine, f, seeds, ys,
          judge) -> list[EnergyLevel]:
    """Every root of f between consecutive seeds that `judge` accepts, as
    `engine` levels at n, ascending in E.

    `seeds` is the call's `_seed_energies(params)` and `ys` is f on it, NaN
    where f is undefined; f is called by Brent only.  `judge(root)`
    evaluates the engine once at a root and returns its Verdict:
    `scan_roots` rejects a refined root it does not accept, and the level
    takes its residual and flags.  A root taken at a seed where f is exactly
    0 is never rejected; it is judged for its residual and flags only.
    """
    M = params.M
    judged: dict[float, Verdict] = {}

    def accept(root: float) -> bool:
        judged[root] = judge(root)
        return judged[root][1]

    levels = []
    for root in scan_roots(f, seeds, ys, TOL_E, accept=accept).roots:
        residual, _, flags = judged[root] if root in judged else judge(root)
        levels.append(EnergyLevel(n=n, E=root, Ebar=root * root - M ** 2, engine=engine,
                                  residual=residual, flags=frozenset(flags)))
    return levels


def _lambda_verdict(lam, lam_n, f: float | None, flags: Iterable[str]) -> Verdict:
    """The verdict on a root of lambda = lambda_n, where f is lambda - lambda_n
    (None where it is not real): accepted when
    |f| <= RESIDUAL_REL max(1, |lambda| + |lambda_n|)."""
    if f is None:
        return math.inf, False, flags
    ok = math.isfinite(f) and abs(f) <= RESIDUAL_REL * max(1.0, abs(lam) + abs(lam_n))
    return abs(f), ok, flags


def mechanical_residual(params: HylleraasParams, E: float, n: int) -> float | BranchGap:
    """lambda(E) - lambda_n(E) from the mechanical engine, or the gap marker.

    `nu.quantization` prefers tau' < 0 but falls back to the least-positive
    slope: the decreasing-tau rule admits no branch at all over whole
    parameter windows of this potential family (the audit's tau_prime_sign
    column records the outcome).
    """
    out = quantization(build_nu_input(params, E), n)
    if isinstance(out, BranchGap):
        return out
    sol, lam_n, _ = out
    return sol.lam - lam_n


def energy_mechanical_result(params: HylleraasParams,
                             ns: Iterable[int]) -> dict[int, list[EnergyLevel]]:
    """Mechanical-engine levels for every n in ns."""
    E = _seed_energies(params)
    inp = build_nu_input(params, E)
    lam, tau_prime, _ = lenient_branch_array(inp)  # NaN at the gaps
    sigma_pp = 2.0 * inp.sigma.c2
    return {n: _mechanical_levels(params, n, E, lam - lambda_n_value(tau_prime, sigma_pp, n))
            for n in ns}


def _mechanical_levels(params: HylleraasParams, n: int, seeds, ys) -> list[EnergyLevel]:
    def judge(E: float) -> Verdict:
        inp = build_nu_input(params, E)
        # sigma_tilde's s^2 coefficient is -eps^2
        flags = {FLAG_EPS2_NEGATIVE} if inp.sigma_tilde.c2 >= 0 else set()
        out = quantization(inp, n)
        if isinstance(out, BranchGap):
            return math.inf, False, flags
        sol, lam_n, strict_ok = out
        if not strict_ok:
            flags.add(FLAG_TAU_PRIME_NONNEG)
        return _lambda_verdict(sol.lam, lam_n, sol.lam - lam_n, flags)

    return _scan(params, n, Engine.MECHANICAL_NU,
                 lambda E: mechanical_residual(params, E, n), seeds, ys, judge)


def _implicit_real(im: ClosedFormIntermediates) -> float | None:
    """lambda - lambda_n of the printed pair; None when non-real."""
    f = im.lam - im.lam_n
    if im.lam.imag != 0.0 or im.lam_n.imag != 0.0 or not math.isfinite(f.real):
        return None
    return f.real


def implicit_residual(params: HylleraasParams, E: float, n: int) -> float | None:
    """lambda(E) - lambda_n(E, n) from the printed pair; None when non-real."""
    return _implicit_real(intermediates(params, E, n))


def _implicit_seed_terms(params: HylleraasParams, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambda, sqrt(U + V)) of `intermediates` on arrays, each NaN where it
    is not real."""
    cst = appendix_constants(params, E)
    with np.errstate(invalid="ignore"):
        lam = -(cst.Lam2 + cst.Lam3 * cst.eps2) - np.sqrt(cst.U2 - cst.V2)
        sqrt_upv = np.sqrt(math.sqrt(cst.delta2) * (cst.eps2 + cst.A) + np.sqrt(cst.V2))
    return lam, sqrt_upv


def energy_implicit_result(params: HylleraasParams,
                           ns: Iterable[int]) -> dict[int, list[EnergyLevel]]:
    """Printed-pair levels for every n in ns."""
    E = _seed_energies(params)
    lam, sqrt_upv = _implicit_seed_terms(params, E)
    a1 = 1 + params.abc.b
    # n = 0 reads lambda alone: lambda_0 is 0 whether or not sqrt(U + V) is real
    return {n: _implicit_levels(params, n, E, lam - _lam_n_printed(sqrt_upv, a1, n).real)
            for n in ns}


def _implicit_levels(params: HylleraasParams, n: int, seeds, ys) -> list[EnergyLevel]:
    def judge(E: float) -> Verdict:
        im = intermediates(params, E, n)  # its flags hold EPS2_NEGATIVE
        return _lambda_verdict(im.lam, im.lam_n, _implicit_real(im), im.flags)

    return _scan(params, n, Engine.IMPLICIT_LAMBDA,
                 lambda E: implicit_residual(params, E, n), seeds, ys, judge)


def energy_eq45_result(params: HylleraasParams,
                       ns: Iterable[int]) -> dict[int, list[EnergyLevel]]:
    """Roots of Ebar(E) = RHS(E) for both printed sign branches, every n in ns.

    The constants in the right-hand side depend on E through Vbar, so the
    printed "explicit" expression is solved as a root problem.
    """
    E = _seed_energies(params)
    seed_forms = _eq45_forms(params, E)
    lhs = E * E - params.M ** 2
    return {n: _eq45_levels(params, n, E,
                            [lhs - rhs for rhs in _eq45_seed_rhs(params, seed_forms, n)])
            for n in ns}


def _eq45_levels(params: HylleraasParams, n: int, seeds, seed_values) -> list[EnergyLevel]:
    M2 = params.M ** 2
    all_levels: list[EnergyLevel] = []
    for pick, sign_flag in ((0, FLAG_SIGN_MINUS), (1, FLAG_SIGN_PLUS)):

        def f(E: float):
            rhs = eq45_rhs(params, E, n)[pick]
            if rhs is None:
                return None
            return (E * E - M2) - rhs

        def judge(E: float) -> Verdict:
            flags = {sign_flag}
            if epsilon2(params, E) <= 0:
                flags.add(FLAG_EPS2_NEGATIVE)
            fE = f(E)
            if fE is None:
                return math.inf, False, flags
            return abs(fE), math.isfinite(fE) and abs(fE) / M2 <= EQ45_RESIDUAL_REL, flags

        all_levels.extend(_scan(params, n, Engine.EQ45_VERBATIM, f, seeds,
                                seed_values[pick], judge))
    all_levels.sort(key=lambda l: l.E)
    return all_levels
