"""Verbatim transcription of the closed-form derivation under audit.

This module reproduces, symbol for symbol, the printed reduction of the
equal-coupling radial problem to hypergeometric type and its closed-form
energy expressions.  Nothing here is "corrected": where the printed algebra
is internally inconsistent the transcription keeps the printed reading and
the audit module quantifies the damage.  Three energy engines are exposed:

  * energy_mechanical_result -- roots of the machine-derived quantization
    lambda(E) = lambda_n(E) built from the printed base polynomials (the
    toolkit's best-effort corrected spectrum);
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
from functools import cache, partial
from typing import Iterable

import numpy as np

from .hylleraas import (
    AppendixConstants,
    HylleraasParams,
    appendix_a_forms,
    appendix_constants,
)
from .levels import (
    FLAG_BRANCH_GAP,
    FLAG_DUPLICATE_MERGED,
    FLAG_EPS2_NEGATIVE,
    FLAG_NEGATIVE_UNDER_SQRT,
    FLAG_NO_ROOT,
    FLAG_SIGN_MINUS,
    FLAG_SIGN_PLUS,
    FLAG_TAU_PRIME_NONNEG,
    Engine,
    EnergyLevel,
    EngineResult,
)
from .nu import (
    BranchGap,
    NUInput,
    NUSolution,
    Poly2,
    lambda_n_value,
    lenient_branch_array,
    pi_candidates,
    select_branch_lenient,
)
from .errors import DegenerateSigma, ImperfectSquare, NoRealK
from .rootfind import scan_roots, seed_grid

# Scan protocol shared by the closed-form engines (`_scan` reads it at call
# time): 2000 brackets over the bound-state window |E| <= M (1 - 1e-9),
# bisection to 1e-12 absolute in E, duplicate roots merged within 1e-9 M.
#
# Each engine solves every requested n in one call.  Only lambda_n (and the
# eq45 n-terms) depend on n; the constant cascade, the NU closure and the
# branch choice depend on E alone.  The seed values are array expressions:
# the n-free part is evaluated once per call on the whole seed grid, then
# each n adds its terms.  Seed values only pick the brackets.  Brent
# refinement, the acceptance tests, the root flags and every reported number
# use the scalar residuals, whose n-free part is cached per energy for the
# call.  The mechanical seed values are bit-identical to the scalar
# residual; the implicit and eq45 ones can differ in the last bits, because
# numpy squares where Python's ** 2 calls pow (U2, V2, Lam4, B, B_a14).
N_BRACKETS = 2000
TOL_E = 1e-12
DEDUP_FACTOR = 1e-9
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

    `tau_slope` is the derivative of the printed tau polynomial;
    `tau_prime_printed` is the separately printed slope formula
    -2 (muJ - 4 alpha1).  The two disagree by 4 alpha1; both are kept.
    """

    E: float
    n: int
    k: complex
    pi_slope: complex
    pi_intercept: complex
    tau_slope: complex
    tau_intercept: complex
    tau_prime_printed: complex
    lam: complex
    lam_n: complex
    muJ: complex
    nuJ: complex
    U2: float
    V2: float
    flags: frozenset[str]


def _lam_n_printed(sqrt_upv: complex, a1: float, n: int) -> complex:
    """Printed lambda_n = 2 n sqrt(U + V) - 2 alpha1 n (n + 3)."""
    return 2.0 * n * sqrt_upv - 2.0 * a1 * n * (n + 3) if n else 0j


def intermediates(params: HylleraasParams, E: float, n: int,
                  cst: AppendixConstants | None = None) -> ClosedFormIntermediates:
    """Evaluate the printed branch selection verbatim.

    k   = -(Lam2 + Lam3 eps^2) - sqrt(U^2 - V^2)
    pi  = alpha1 (s + a) - [muJ s + nuJ]
    tau = 2 alpha1 [2 s + (a + c)] - 2 [muJ s - nuJ]
    tau'_printed = -2 [muJ - 4 alpha1]
    lam   = -(Lam2 + Lam3 eps^2) - sqrt(U^2 - V^2)
    lam_n = 2 n sqrt(U + V) - 2 alpha1 n (n + 3)

    with U^2 = delta^2 (eps^2 + A)^2, V^2 = A^2 - B,
    muJ = sqrt(delta (eps^2+A) + sqrt(A^2-B)),
    nuJ = sqrt(delta (eps^2+A) - sqrt(A^2-B)).
    """
    if cst is None:
        cst = appendix_constants(params, E)
    abc = params.abc
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
        E=E, n=n, k=k,
        pi_slope=a1 - muJ, pi_intercept=a1 * abc.a - nuJ,
        tau_slope=4.0 * a1 - 2.0 * muJ,
        tau_intercept=2.0 * a1 * (abc.a + abc.c) + 2.0 * nuJ,
        tau_prime_printed=-2.0 * (muJ - 4.0 * a1),
        lam=lam, lam_n=lam_n, muJ=muJ, nuJ=nuJ,
        U2=cst.U2, V2=cst.V2, flags=frozenset(flags))


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
    return pref, t1, t1 * (2.0 * d / W) ** 2 * t2 * t2


def eq45_rhs(params: HylleraasParams, E: float, n: int,
             forms: tuple[float, float, float, float] | None = None,
             ) -> tuple[float | None, float | None]:
    """Both printed sign branches of the explicit energy expression, or None
    where a radicand or denominator makes the branch non-real.

    `forms` is `_eq45_forms(params, E)`, passed in by callers that evaluate
    several n at one E.
    """
    A, B, d, L3 = forms if forms is not None else _eq45_forms(params, E)
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


def _window(params: HylleraasParams) -> tuple[float, float]:
    """The scanned bound-state window, |E| <= M (1 - WINDOW_SHRINK)."""
    hi = params.M * (1.0 - WINDOW_SHRINK)
    return -hi, hi


def _seed_energies(params: HylleraasParams) -> np.ndarray:
    """The seed grid of every scan of one engine call."""
    return seed_grid(*_window(params), N_BRACKETS)


def _scan(params: HylleraasParams, n: int, engine: Engine, f, ys, residual_ok,
          flags_at) -> EngineResult:
    """Every root of f(E) on the bound-state window that `residual_ok` accepts,
    as `engine` levels at n.

    `ys` is f on `_seed_energies(params)`, NaN where f is undefined.  f
    returns a float, or a non-float marker where it is undefined; a level's
    residual is |f(root)|.  `flags_at(root)` gives the engine's own root flags.
    """
    M = params.M
    scan = scan_roots(f, *_window(params), N_BRACKETS, TOL_E, ys,
                      dedup=DEDUP_FACTOR * M, residual_ok=residual_ok)
    region: set[str] = set()
    if scan.had_gaps:
        region.add(FLAG_BRANCH_GAP)
    if not scan.roots:
        region.add(FLAG_NO_ROOT)
        return EngineResult([], frozenset(region))
    # attribute each merge to the surviving root nearest the dropped one
    merged = {min(scan.roots, key=lambda x: abs(x - r)) for r in scan.merged_duplicates}
    levels = []
    for root in scan.roots:
        flags = set(flags_at(root))
        if root in merged:
            flags.add(FLAG_DUPLICATE_MERGED)
        if appendix_constants(params, root).eps2 <= 0:
            flags.add(FLAG_EPS2_NEGATIVE)
        fr = f(root)
        levels.append(EnergyLevel(n=n, E=root, Ebar=root * root - M ** 2, engine=engine,
                                  residual=abs(fr) if isinstance(fr, float) else math.inf,
                                  flags=frozenset(flags)))
    return EngineResult(levels, frozenset(region))


def _mech_branch(params: HylleraasParams, E: float) -> tuple[NUInput, NUSolution, bool] | BranchGap:
    try:
        inp = build_nu_input(params, E)
        cands = pi_candidates(inp)
    except (NoRealK, ImperfectSquare, DegenerateSigma) as exc:
        return BranchGap(type(exc).__name__)
    sol, strict_ok = select_branch_lenient(cands)
    return inp, sol, strict_ok


MechTerms = tuple[float, float, float, bool]


def _mech_terms(params: HylleraasParams, E: float) -> MechTerms | BranchGap:
    """The n-free part of the mechanical quantization at E:
    (lambda, tau', sigma'', strict_ok), or the gap marker."""
    out = _mech_branch(params, E)
    if isinstance(out, BranchGap):
        return out
    inp, sol, strict_ok = out
    return sol.lam, sol.tau_prime, 2.0 * inp.sigma.c2, strict_ok


def mechanical_residual(params: HylleraasParams, E: float, n: int,
                        branch: MechTerms | BranchGap | None = None) -> float | BranchGap:
    """lambda(E) - lambda_n(E) from the mechanical engine, lenient branch rule.

    The strict decreasing-tau rule admits no branch at all over whole
    parameter windows of this potential family (the audit's tau_prime_sign
    column records the outcome), so the energy scan prefers tau' < 0 but
    falls back to the least-positive slope instead of gapping out.

    `branch` is `_mech_terms(params, E)`, passed in by callers that evaluate
    several n at one E.
    """
    if branch is None:
        branch = _mech_terms(params, E)
    if isinstance(branch, BranchGap):
        return branch
    lam, tau_prime, sigma_pp, _ = branch
    return lam - lambda_n_value(tau_prime, sigma_pp, n)


def energy_mechanical_result(params: HylleraasParams,
                             ns: Iterable[int]) -> dict[int, EngineResult]:
    """Mechanical-engine levels for every n in ns."""
    branch = cache(partial(_mech_terms, params))  # lives for this call only
    inp = build_nu_input(params, _seed_energies(params))
    lam, tau_prime, _ = lenient_branch_array(inp)  # NaN at the gaps
    sigma_pp = 2.0 * inp.sigma.c2
    return {n: _mechanical_levels(params, n, branch,
                                  lam - lambda_n_value(tau_prime, sigma_pp, n))
            for n in ns}


def _mechanical_levels(params: HylleraasParams, n: int, branch, ys) -> EngineResult:
    def f(E: float):
        return mechanical_residual(params, E, n, branch=branch(E))

    def residual_ok(E: float, fE: float) -> bool:
        out = branch(E)
        if isinstance(out, BranchGap):
            return False
        lam, tau_prime, sigma_pp, _ = out
        scale = max(1.0, abs(lam) + abs(lambda_n_value(tau_prime, sigma_pp, n)))
        return abs(fE) <= RESIDUAL_REL * scale

    def flags_at(E: float) -> set[str]:
        out = branch(E)
        if isinstance(out, BranchGap):
            return {FLAG_BRANCH_GAP}
        strict_ok = out[3]
        return set() if strict_ok else {FLAG_TAU_PRIME_NONNEG}

    return _scan(params, n, Engine.MECHANICAL_NU, f, ys, residual_ok, flags_at)


def _implicit_terms(params: HylleraasParams, E: float) -> tuple[complex, complex]:
    """The n-free part of the printed pair at E: (lambda, sqrt(U + V))."""
    im = intermediates(params, E, 0)
    return im.lam, im.muJ


def implicit_residual(params: HylleraasParams, E: float, n: int,
                      branch: tuple[complex, complex] | None = None) -> float | None:
    """lambda(E) - lambda_n(E, n) from the printed pair; None when non-real.

    `branch` is `_implicit_terms(params, E)`, passed in by callers that
    evaluate several n at one E.
    """
    lam, sqrt_upv = branch if branch is not None else _implicit_terms(params, E)
    lam_n = _lam_n_printed(sqrt_upv, 1 + params.abc.b, n)
    f = lam - lam_n
    if lam.imag != 0.0 or lam_n.imag != 0.0 or not math.isfinite(f.real):
        return None
    return f.real


def _implicit_seed_terms(params: HylleraasParams, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_implicit_terms on arrays: (lambda, sqrt(U + V)), each NaN where it is
    not real."""
    cst = appendix_constants(params, E)
    with np.errstate(invalid="ignore"):
        lam = -(cst.Lam2 + cst.Lam3 * cst.eps2) - np.sqrt(cst.U2 - cst.V2)
        sqrt_upv = np.sqrt(math.sqrt(cst.delta2) * (cst.eps2 + cst.A) + np.sqrt(cst.V2))
    return lam, sqrt_upv


def energy_implicit_result(params: HylleraasParams,
                           ns: Iterable[int]) -> dict[int, EngineResult]:
    """Printed-pair levels for every n in ns."""
    branch = cache(partial(_implicit_terms, params))  # lives for this call only
    lam, sqrt_upv = _implicit_seed_terms(params, _seed_energies(params))
    a1 = 1 + params.abc.b
    # n = 0 reads lambda alone: lambda_0 is 0 whether or not sqrt(U + V) is real
    return {n: _implicit_levels(params, n, branch,
                                lam - _lam_n_printed(sqrt_upv, a1, n).real)
            for n in ns}


def _implicit_levels(params: HylleraasParams, n: int, branch, ys) -> EngineResult:
    def f(E: float):
        return implicit_residual(params, E, n, branch=branch(E))

    def residual_ok(E: float, fE: float) -> bool:
        lam, sqrt_upv = branch(E)
        lam_n = _lam_n_printed(sqrt_upv, 1 + params.abc.b, n)
        scale = max(1.0, abs(lam) + abs(lam_n))
        return abs(fE) <= RESIDUAL_REL * scale

    def flags_at(E: float) -> frozenset[str]:
        return intermediates(params, E, n).flags

    return _scan(params, n, Engine.IMPLICIT_LAMBDA, f, ys, residual_ok, flags_at)


def energy_eq45_result(params: HylleraasParams,
                       ns: Iterable[int]) -> dict[int, EngineResult]:
    """Roots of Ebar(E) = RHS(E) for both printed sign branches, every n in ns.

    The constants in the right-hand side depend on E through Vbar, so the
    printed "explicit" expression is solved as a root problem.
    """
    forms = cache(partial(_eq45_forms, params))  # this call only; both signs share it
    E = _seed_energies(params)
    seed_forms = _eq45_forms(params, E)
    lhs = E * E - params.M ** 2
    return {n: _eq45_levels(params, n, forms,
                            [lhs - rhs for rhs in _eq45_seed_rhs(params, seed_forms, n)])
            for n in ns}


def _eq45_levels(params: HylleraasParams, n: int, forms, seed_values) -> EngineResult:
    M2 = params.M ** 2
    all_levels: list[EnergyLevel] = []
    region: set[str] = set()
    for pick, sign_flag in ((0, FLAG_SIGN_MINUS), (1, FLAG_SIGN_PLUS)):

        def f(E: float):
            rhs = eq45_rhs(params, E, n, forms=forms(E))[pick]
            if rhs is None:
                return None
            return (E * E - M2) - rhs

        part = _scan(params, n, Engine.EQ45_VERBATIM, f, seed_values[pick],
                     residual_ok=lambda E, fE: abs(fE) / M2 <= EQ45_RESIDUAL_REL,
                     flags_at=lambda E: {sign_flag})
        region |= part.region_flags
        all_levels.extend(part.levels)
    # both sign branches non-real at an end or the middle of the window
    lo, hi = _window(params)
    if any(eq45_rhs(params, x, n, forms=forms(x)) == (None, None) for x in (lo, 0.0, hi)):
        region.add(FLAG_NEGATIVE_UNDER_SQRT)
    all_levels.sort(key=lambda l: l.E)
    if all_levels:
        region.discard(FLAG_NO_ROOT)
    return EngineResult(all_levels, frozenset(region))
