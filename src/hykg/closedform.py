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
)
from .nu import (
    BranchGap,
    NUInput,
    NUSolution,
    Poly2,
    lambda_n_value,
    pi_candidates,
    select_branch_lenient,
)
from .errors import DegenerateSigma, ImperfectSquare, NoRealK
from .rootfind import ScanResult, scan_roots

# Scan protocol shared by the closed-form engines: 2000 brackets over the
# bound-state window, bisection to 1e-12 absolute in E, duplicate roots
# merged within 1e-9 M.  All config-overridable via keyword arguments.
#
# Each engine solves every requested n in one call.  Only lambda_n (and the
# eq45 n-terms) depend on n; the constant cascade, the NU closure and the
# branch choice depend on E alone.  That n-free part is computed once per
# energy and cached for the call as a small tuple, and the seed grid is the
# same for every n, so each n's seed values are bit-identical to a
# single-level solve; Brent refinement stays scalar and per n.
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

def _eq45_forms(params: HylleraasParams, E: float) -> tuple[float, float, float, float]:
    """The appendix-form constants the explicit equation reads: (A, B, delta, Lam3)."""
    forms = appendix_a_forms(params, E)
    return forms.A_a13, forms.B_a14, forms.delta_a9, forms.Lam3_a7


def eq45_rhs(params: HylleraasParams, E: float, n: int,
             forms: tuple[float, float, float, float] | None = None,
             ) -> tuple[float | None, float | None]:
    """Both printed sign branches of the explicit energy expression, or None
    where a radicand or denominator makes the branch non-real.

    `forms` is `_eq45_forms(params, E)`, passed in by callers that evaluate
    several n at one E.
    """
    A, B, d, L3 = forms if forms is not None else _eq45_forms(params, E)
    abc = params.abc
    a1 = 1 + abc.b
    w2b = A * A - B
    if w2b <= 0 or d == 0:
        return None, None
    W = math.sqrt(w2b)
    pref = params.scale2 * W / (2.0 * params.mu * (1 + abc.b) * d * d)
    t1 = 2.0 * L3 + A / W - A * d * (1 + 2 * n) / w2b
    t2 = (A * A / (2.0 * W) - A * d * (1 + 2 * n) / w2b
          + a1 * (1 + 2 * n * (n + 3)) - L3 - W)
    radicand = t1 * (2.0 * d / W) ** 2 * t2 * t2
    if radicand < 0:
        return None, None
    sq = math.sqrt(radicand)
    return pref * t1 - pref * sq, pref * t1 + pref * sq


# ---------------------------------------------------------------------------
# Root scanning shared by the three engines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EngineResult:
    """Levels found by one engine plus region-level diagnostics."""

    levels: list[EnergyLevel]
    region_flags: frozenset[str]


def _window(params: HylleraasParams) -> tuple[float, float]:
    M = params.M
    return -M * (1.0 - WINDOW_SHRINK), M * (1.0 - WINDOW_SHRINK)


def _finalize(params: HylleraasParams, n: int, engine: Engine, scan: ScanResult,
              residual_at, extra_flags_at=None) -> EngineResult:
    region: set[str] = set()
    if scan.had_gaps:
        region.add(FLAG_BRANCH_GAP)
    if not scan.roots:
        region.add(FLAG_NO_ROOT)
        return EngineResult([], frozenset(region))
    levels = []
    merged = set()
    for r in scan.merged_duplicates:
        # attribute the merge to the surviving root nearest the dropped one
        merged.add(min(scan.roots, key=lambda x: abs(x - r)))
    for root in scan.roots:
        flags: set[str] = set()
        if root in merged:
            flags.add(FLAG_DUPLICATE_MERGED)
        cst = appendix_constants(params, root)
        if cst.eps2 <= 0:
            flags.add(FLAG_EPS2_NEGATIVE)
        if extra_flags_at is not None:
            flags |= extra_flags_at(root)
        levels.append(EnergyLevel(n=n, E=root, Ebar=root * root - params.M ** 2,
                                  engine=engine, residual=abs(residual_at(root)),
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


def energy_mechanical_result(params: HylleraasParams, ns: Iterable[int],
                             n_brackets: int = N_BRACKETS,
                             tol_e: float = TOL_E) -> dict[int, EngineResult]:
    """Mechanical-engine levels for every n in ns."""
    branch = cache(partial(_mech_terms, params))  # lives for this call only
    return {n: _mechanical_levels(params, n, branch, n_brackets, tol_e) for n in ns}


def _mechanical_levels(params: HylleraasParams, n: int, branch,
                       n_brackets: int, tol_e: float) -> EngineResult:
    lo, hi = _window(params)

    def f(E: float):
        return mechanical_residual(params, E, n, branch=branch(E))

    def residual_ok(E: float, fE: float) -> bool:
        out = branch(E)
        if isinstance(out, BranchGap):
            return False
        lam, tau_prime, sigma_pp, _ = out
        scale = max(1.0, abs(lam) + abs(lambda_n_value(tau_prime, sigma_pp, n)))
        return abs(fE) <= RESIDUAL_REL * scale

    def extra_flags(E: float) -> set[str]:
        out = branch(E)
        if isinstance(out, BranchGap):
            return {FLAG_BRANCH_GAP}
        strict_ok = out[3]
        return set() if strict_ok else {FLAG_TAU_PRIME_NONNEG}

    scan = scan_roots(f, lo, hi, n_brackets, tol_e,
                      dedup=DEDUP_FACTOR * params.M, residual_ok=residual_ok)
    return _finalize(params, n, Engine.MECHANICAL_NU, scan,
                     residual_at=lambda E: _real_or_inf(f(E)),
                     extra_flags_at=extra_flags)


def _real_or_inf(v) -> float:
    return v if isinstance(v, float) else math.inf


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


def energy_implicit_result(params: HylleraasParams, ns: Iterable[int],
                           n_brackets: int = N_BRACKETS,
                           tol_e: float = TOL_E) -> dict[int, EngineResult]:
    """Printed-pair levels for every n in ns."""
    branch = cache(partial(_implicit_terms, params))  # lives for this call only
    return {n: _implicit_levels(params, n, branch, n_brackets, tol_e) for n in ns}


def _implicit_levels(params: HylleraasParams, n: int, branch,
                     n_brackets: int, tol_e: float) -> EngineResult:
    lo, hi = _window(params)

    def f(E: float):
        return implicit_residual(params, E, n, branch=branch(E))

    def residual_ok(E: float, fE: float) -> bool:
        lam, sqrt_upv = branch(E)
        lam_n = _lam_n_printed(sqrt_upv, 1 + params.abc.b, n)
        scale = max(1.0, abs(lam) + abs(lam_n))
        return abs(fE) <= RESIDUAL_REL * scale

    def extra_flags(E: float) -> set[str]:
        return set(intermediates(params, E, n).flags)

    scan = scan_roots(f, lo, hi, n_brackets, tol_e,
                      dedup=DEDUP_FACTOR * params.M, residual_ok=residual_ok)
    return _finalize(params, n, Engine.IMPLICIT_LAMBDA, scan,
                     residual_at=lambda E: f(E) if f(E) is not None else math.inf,
                     extra_flags_at=extra_flags)


def energy_eq45_result(params: HylleraasParams, ns: Iterable[int],
                       n_brackets: int = N_BRACKETS,
                       tol_e: float = TOL_E) -> dict[int, EngineResult]:
    """Roots of Ebar(E) = RHS(E) for both printed sign branches, every n in ns.

    The constants in the right-hand side depend on E through Vbar, so the
    printed "explicit" expression is solved as a root problem.
    """
    forms = cache(partial(_eq45_forms, params))  # this call only; both signs share it
    return {n: _eq45_levels(params, n, forms, n_brackets, tol_e) for n in ns}


def _eq45_levels(params: HylleraasParams, n: int, forms,
                 n_brackets: int, tol_e: float) -> EngineResult:
    lo, hi = _window(params)
    M2 = params.M ** 2
    all_levels: list[EnergyLevel] = []
    region: set[str] = set()
    for pick, sign_flag in ((0, FLAG_SIGN_MINUS), (1, FLAG_SIGN_PLUS)):

        def f(E: float):
            rhs = eq45_rhs(params, E, n, forms=forms(E))[pick]
            if rhs is None:
                return None
            return (E * E - M2) - rhs

        def residual_ok(E: float, fE: float) -> bool:
            return abs(fE) / M2 <= EQ45_RESIDUAL_REL

        scan = scan_roots(f, lo, hi, n_brackets, tol_e,
                          dedup=DEDUP_FACTOR * params.M, residual_ok=residual_ok)
        part = _finalize(params, n, Engine.EQ45_VERBATIM, scan,
                         residual_at=lambda E: (f(E) if f(E) is not None else math.inf),
                         extra_flags_at=lambda E: {sign_flag})
        region |= set(part.region_flags)
        all_levels.extend(part.levels)
    if any(eq45_rhs(params, x, n, forms=forms(x)) == (None, None)
           for x in (lo, 0.5 * (lo + hi), hi)):
        region.add(FLAG_NEGATIVE_UNDER_SQRT)
    all_levels.sort(key=lambda l: l.E)
    if all_levels:
        region.discard(FLAG_NO_ROOT)
    return EngineResult(all_levels, frozenset(region))
