"""Mechanical, potential-agnostic engine for hypergeometric-type reductions.

Given the three base polynomials (sigma, tau_tilde, sigma_tilde) of

    y'' + (tau_tilde / sigma) y' + (sigma_tilde / sigma^2) y = 0

the engine derives the shift polynomial pi, the closure constants k, the
full linear coefficient tau = tau_tilde + 2 pi, and the eigenvalue pair
(lambda = k + pi', lambda_n = -n tau' - n(n-1)/2 sigma'') with no reliance
on hand algebra.  Everything is floating point with explicit residual
tracking; precision loss is observable, never silent.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

from .errors import (
    ComplexRoots,
    DegenerateSigma,
    ImperfectSquare,
    NoRealK,
    NoValidBranch,
)

_SQUARE_TOL = 1e-10   # perfect-square acceptance, scaled by (1 + max|coeff|)^2


@dataclass(frozen=True)
class Poly2:
    """Real polynomial c0 + c1 s + c2 s^2 of degree <= 2."""

    c0: float
    c1: float
    c2: float = 0.0

    @property
    def degree(self) -> int:
        if self.c2 != 0.0:
            return 2
        if self.c1 != 0.0:
            return 1
        return 0

    def __call__(self, s: float) -> float:
        return (self.c2 * s + self.c1) * s + self.c0

    def deriv(self) -> "Poly2":
        return Poly2(self.c1, 2.0 * self.c2, 0.0)

    def max_abs_coeff(self) -> float:
        return max(abs(self.c0), abs(self.c1), abs(self.c2))

    def coeffs(self) -> tuple[float, float, float]:
        return (self.c0, self.c1, self.c2)


class SignChoice(enum.Enum):
    PLUS = "+"
    MINUS = "-"


@dataclass(frozen=True)
class NUInput:
    """The three base polynomials; degrees are validated structurally."""

    sigma: Poly2        # degree <= 2, not identically zero
    tau_tilde: Poly2    # degree <= 1
    sigma_tilde: Poly2  # degree <= 2

    def __post_init__(self):
        if self.sigma.max_abs_coeff() == 0.0:
            raise ValueError("sigma must not be identically zero")
        if self.tau_tilde.degree > 1:
            raise ValueError("tau_tilde must have degree <= 1")

    def scale(self) -> float:
        return max(self.sigma.max_abs_coeff(), self.tau_tilde.max_abs_coeff(),
                   self.sigma_tilde.max_abs_coeff())

    def half_diff(self) -> Poly2:
        """(sigma' - tau_tilde) / 2, a linear polynomial."""
        d = self.sigma.deriv()
        return Poly2((d.c0 - self.tau_tilde.c0) / 2.0,
                     (d.c1 - self.tau_tilde.c1) / 2.0, 0.0)


@dataclass(frozen=True)
class NUSolution:
    """One accepted (k, sign) branch with its derived quantities.

    `lam` is the additive eigenvalue k + pi'; `residual_square` is the
    discriminant defect of the under-root quadratic at this k.
    """

    k: float
    pi: Poly2
    sign_choice: SignChoice
    tau: Poly2
    lam: float
    residual_square: float

    @property
    def tau_prime(self) -> float:
        return self.tau.c1


def under_root_quadratic(inp: NUInput, k: float) -> Poly2:
    """Q_k(s) = ((sigma' - tau_tilde)/2)^2 - sigma_tilde + k sigma."""
    h = inp.half_diff()
    st = inp.sigma_tilde
    sg = inp.sigma
    return Poly2(h.c0 * h.c0 - st.c0 + k * sg.c0,
                 2.0 * h.c0 * h.c1 - st.c1 + k * sg.c1,
                 h.c1 * h.c1 - st.c2 + k * sg.c2)


def _disc_in_k(inp: NUInput) -> tuple[float, float, float]:
    """Coefficients (qa, qb, qc) of disc(Q_k) = qa k^2 + qb k + qc."""
    h = inp.half_diff()
    st = inp.sigma_tilde
    sg = inp.sigma
    a2 = h.c1 * h.c1 - st.c2          # s^2 coeff of Q at k=0
    a1 = 2.0 * h.c0 * h.c1 - st.c1    # s coeff
    a0 = h.c0 * h.c0 - st.c0          # const
    qa = sg.c1 * sg.c1 - 4.0 * sg.c2 * sg.c0
    qb = 2.0 * a1 * sg.c1 - 4.0 * (a2 * sg.c0 + a0 * sg.c2)
    qc = a1 * a1 - 4.0 * a2 * a0
    return qa, qb, qc


def _disc_at(inp: NUInput, k: float) -> float:
    q = under_root_quadratic(inp, k)
    return q.c1 * q.c1 - 4.0 * q.c2 * q.c0


def solve_k(inp: NUInput) -> list[tuple[float, float]]:
    """Real closure constants k with their back-substituted residuals.

    Each k makes the discriminant of Q_k vanish, so Q_k is the square of a
    linear polynomial.  Roots of the (at most quadratic) discriminant are
    polished by one Newton step to suppress cancellation.
    """
    qa, qb, qc = _disc_in_k(inp)
    scale = inp.scale()
    tiny = 1e-14 * max(1.0, scale * scale)

    def polish(k: float) -> float:
        # one Newton step on disc(k)
        d = _disc_at(inp, k)
        slope = 2.0 * qa * k + qb
        if slope != 0.0 and math.isfinite(slope):
            k2 = k - d / slope
            if math.isfinite(k2) and abs(_disc_at(inp, k2)) <= abs(d):
                return k2
        return k

    roots: list[float]
    if abs(qa) > tiny:
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0:
            raise NoRealK(f"k-discriminant negative ({disc:.3g})")
        sq = math.sqrt(disc)
        # numerically stable split
        q = -(qb + math.copysign(sq, qb)) / 2.0
        if q != 0.0:
            roots = sorted({q / qa, qc / q}) if qc != 0.0 or sq != 0.0 else [q / qa]
            if len(roots) == 1:
                roots = [roots[0], -qb / qa - roots[0]]
        else:
            roots = [0.0, -qb / qa]
        roots = sorted(set(roots))
    elif abs(qb) > tiny:
        roots = [-qc / qb]
    else:
        if abs(qc) <= tiny:
            raise DegenerateSigma("discriminant vanishes identically; every k closes the root")
        raise NoRealK("discriminant is a nonzero constant in k; no closure exists")

    out = []
    for k in roots:
        k = polish(k)
        out.append((k, abs(_disc_at(inp, k))))
    return out


def _linear_sqrt(q: Poly2, scale: float) -> Poly2 | None:
    """Exact linear square root of a (numerically) perfect-square quadratic.

    Returns the root with nonnegative leading coefficient, or None when no
    real linear square root exists.
    """
    tol = math.sqrt(_SQUARE_TOL) * max(1.0, scale)
    if q.c2 > tol * tol:
        r1 = math.sqrt(q.c2)
        return Poly2(q.c1 / (2.0 * r1), r1, 0.0)
    if q.c2 < -tol * tol:
        return None
    # leading term negligible: constant square root, requires c1 ~ 0 and c0 >= 0
    if abs(q.c1) > tol:
        return None
    if q.c0 < -tol * tol:
        return None
    return Poly2(math.sqrt(max(q.c0, 0.0)), 0.0, 0.0)


def pi_candidates(inp: NUInput) -> list[NUSolution]:
    """All (k, +/-) branches: pi = (sigma' - tau_tilde)/2 +/- sqrt(Q_k)."""
    ks = solve_k(inp)
    h = inp.half_diff()
    scale = inp.scale()
    cands: list[NUSolution] = []
    best_residual = math.inf
    for k, residual in ks:
        q = under_root_quadratic(inp, k)
        sq_scale = (1.0 + max(scale, q.max_abs_coeff())) ** 2
        best_residual = min(best_residual, residual / sq_scale)
        if residual > _SQUARE_TOL * sq_scale:
            continue
        root = _linear_sqrt(q, max(scale, q.max_abs_coeff()))
        if root is None:
            continue
        for sign in (SignChoice.PLUS, SignChoice.MINUS):
            s = 1.0 if sign is SignChoice.PLUS else -1.0
            pi = Poly2(h.c0 + s * root.c0, h.c1 + s * root.c1, 0.0)
            tau = Poly2(inp.tau_tilde.c0 + 2.0 * pi.c0,
                        inp.tau_tilde.c1 + 2.0 * pi.c1, 0.0)
            lam = k + pi.c1
            cands.append(NUSolution(k=k, pi=pi, sign_choice=sign, tau=tau,
                                    lam=lam, residual_square=residual))
    if not cands:
        raise ImperfectSquare(
            f"no k leaves the root quadratic a perfect square "
            f"(best scaled residual {best_residual:.3g})")
    return cands


def select_branch(candidates: list[NUSolution]) -> NUSolution:
    """The accepted branch: negative tau', most negative first.

    Exact ties (they occur, e.g. on the hydrogen-like fixture) break
    deterministically by smaller k, then by the minus sign.
    """
    sol, ok = select_branch_lenient(candidates)
    if not ok:
        raise NoValidBranch("every candidate has tau' >= 0")
    return sol


def select_branch_lenient(candidates: list[NUSolution]) -> tuple[NUSolution, bool]:
    """Branch preference that never fails on a nonempty candidate list.

    Returns (solution, strict_ok): strict_ok is False when no candidate has
    tau' < 0 and the least-positive tau' was taken instead.  The relaxation
    exists because parameter regions occur where the printed reduction admits
    no decreasing tau at all; the audit records the sign.
    """
    if not candidates:
        raise NoValidBranch("empty candidate list")
    ordered = sorted(candidates,
                     key=lambda c: (c.tau_prime, c.k,
                                    0 if c.sign_choice is SignChoice.MINUS else 1))
    best = ordered[0]
    return best, best.tau_prime < 0.0


def lambda_n(inp: NUInput, solution: NUSolution, n: int) -> float:
    """lambda_n = -n tau' - n(n-1)/2 sigma''."""
    return lambda_n_value(solution.tau_prime, 2.0 * inp.sigma.c2, n)


def lambda_n_value(tau_prime: float, sigma_pp: float, n: int) -> float:
    """lambda_n from the two slopes it depends on, tau' and sigma''."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return -n * tau_prime - 0.5 * n * (n - 1) * sigma_pp


@dataclass(frozen=True)
class BranchGap:
    """First-class marker for energies where the reduction degenerates.

    Root scanners treat these as exclusion zones instead of aborting.
    """

    reason: str


def quantization_residual(build: Callable[[float], NUInput], E: float, n: int,
                          strict: bool = True) -> float | BranchGap:
    """lambda(E) - lambda_n(E) on the selected branch, or a BranchGap marker.

    `build` maps a trial energy to the base polynomials.  With strict=True a
    missing tau' < 0 branch is a gap; with strict=False the lenient branch
    preference is used and only genuine closure failures gap out.
    """
    try:
        inp = build(E)
        cands = pi_candidates(inp)
    except (NoRealK, ImperfectSquare, DegenerateSigma) as exc:
        return BranchGap(type(exc).__name__)
    if strict:
        try:
            sol = select_branch(cands)
        except NoValidBranch as exc:
            return BranchGap(type(exc).__name__)
    else:
        sol, _ = select_branch_lenient(cands)
    return sol.lam - lambda_n(inp, sol, n)


@dataclass(frozen=True)
class FactorExponents:
    """Exponent data for the integrating factor phi and the weight rho.

    Power form (exponential_form=False), sigma with distinct roots r1, r2:
        phi = (s - r1)^p1 (s - r2)^p2,  rho = (s - r1)^q1 (s - r2)^q2
    Exponential form (exponential_form=True), sigma linear or a double root:
        phi = (s - r1)^p1 exp(p2 g(s)),  rho = (s - r1)^q1 exp(q2 g(s))
    where g(s) = s when sigma is linear and g(s) = -1/(s - r1) for a double
    root.
    """

    exponential_form: bool
    r1: float
    r2: float | None
    p1: float
    p2: float
    q1: float
    q2: float


def wavefactor_exponents(inp: NUInput, solution: NUSolution) -> FactorExponents:
    """Solve phi'/phi = pi/sigma and (sigma rho)' = tau rho by partial fractions."""
    sg = inp.sigma
    pi = solution.pi
    # rho numerator: rho'/rho = (tau - sigma') / sigma
    sp = sg.deriv()
    rho_num = Poly2(solution.tau.c0 - sp.c0, solution.tau.c1 - sp.c1, 0.0)

    if sg.degree == 2:
        disc = sg.c1 * sg.c1 - 4.0 * sg.c2 * sg.c0
        scale = max(1.0, sg.max_abs_coeff() ** 2)
        if disc < -1e-12 * scale:
            raise ComplexRoots("sigma has complex roots")
        if disc <= 1e-12 * scale:
            # double root: phi = (s-r)^p exp(-w/(s-r)) representation
            r = -sg.c1 / (2.0 * sg.c2)
            # pi(s)/sigma = [pi1 (s-r) + pi(r)] / (c2 (s-r)^2)
            p1 = pi.c1 / sg.c2
            p2 = pi(r) / sg.c2          # coefficient of -1/(s-r) after integration
            q1 = rho_num.c1 / sg.c2
            q2 = rho_num(r) / sg.c2
            return FactorExponents(True, r, None, p1, p2, q1, q2)
        sq = math.sqrt(disc)
        r1 = (-sg.c1 - sq) / (2.0 * sg.c2)
        r2 = (-sg.c1 + sq) / (2.0 * sg.c2)
        denom = sg.c2 * (r1 - r2)
        return FactorExponents(False, r1, r2,
                               pi(r1) / denom, pi(r2) / -denom,
                               rho_num(r1) / denom, rho_num(r2) / -denom)
    if sg.degree == 1:
        # sigma = c1 (s - r): phi = (s-r)^{pi(r)/c1} exp((pi1/c1) s)
        r = -sg.c0 / sg.c1
        return FactorExponents(True, r, None,
                               pi(r) / sg.c1, pi.c1 / sg.c1,
                               rho_num(r) / sg.c1, rho_num.c1 / sg.c1)
    raise DegenerateSigma("sigma is constant; no factor structure to extract")
