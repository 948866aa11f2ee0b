"""Mechanical, potential-agnostic engine for hypergeometric-type reductions.

Given the three base polynomials (sigma, tau_tilde, sigma_tilde) of

    y'' + (tau_tilde / sigma) y' + (sigma_tilde / sigma^2) y = 0

the engine derives the shift polynomial pi, the closure constants k, the
full linear coefficient tau = tau_tilde + 2 pi, and the eigenvalue pair
(lambda = k + pi', lambda_n = -n tau' - n(n-1)/2 sigma'') with no reliance
on hand algebra.  Everything is floating point with explicit residual
tracking; precision loss is observable, never silent.

There is one branch rule, `select_branch_lenient`: the Nikiforov-Uvarov
branch with tau' < 0, or the least-positive tau' (reported as strict_ok =
False) where the reduction admits no decreasing tau.  `quantization` is the
one scalar entry every consumer of the closure calls; `lenient_branch_array`
is its bit-identical twin over many trial points.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSigma, ImperfectSquare, NoRealK

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


def pi_candidates(inp: NUInput, ks: list[tuple[float, float]]) -> list[NUSolution]:
    """All (k, +/-) branches: pi = (sigma' - tau_tilde)/2 +/- sqrt(Q_k), for
    the closure constants ks = solve_k(inp) whose Q_k is a perfect square."""
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


def select_branch_lenient(candidates: list[NUSolution]) -> tuple[NUSolution, bool]:
    """The accepted branch of a (nonempty) pi_candidates list: smallest tau'.

    Returns (solution, strict_ok): strict_ok is False when no candidate has
    tau' < 0 and the least-positive tau' was taken instead.  The relaxation
    exists because parameter regions occur where the printed reduction admits
    no decreasing tau at all; the audit records the sign.  Exact ties (they
    occur, e.g. on the hydrogen-like fixture) break deterministically by
    smaller k, then by the minus sign.
    """
    ordered = sorted(candidates,
                     key=lambda c: (c.tau_prime, c.k,
                                    0 if c.sign_choice is SignChoice.MINUS else 1))
    best = ordered[0]
    return best, best.tau_prime < 0.0


@dataclass(frozen=True)
class BranchGap:
    """First-class marker for energies where the reduction degenerates.

    Root scanners treat these as exclusion zones instead of aborting.
    """

    reason: str


def lambda_n_value(tau_prime: float, sigma_pp: float, n: int) -> float:
    """lambda_n = -n tau' - n(n-1)/2 sigma'', from the two slopes it depends on."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return -n * tau_prime - 0.5 * n * (n - 1) * sigma_pp


def quantization(inp: NUInput, n: int) -> tuple[NUSolution, float, bool,
                                               list[tuple[float, float]]] | BranchGap:
    """(branch, lambda_n, strict_ok, ks) of the accepted branch at level n,
    with solve_k's closure constants ks that it was chosen from, or a
    BranchGap naming the closure failure (NoRealK, ImperfectSquare or
    DegenerateSigma).  The quantization condition is branch.lam == lambda_n.
    """
    try:
        ks = solve_k(inp)
        sol, strict_ok = select_branch_lenient(pi_candidates(inp, ks))
    except (NoRealK, ImperfectSquare, DegenerateSigma) as exc:
        return BranchGap(type(exc).__name__)
    return sol, lambda_n_value(sol.tau_prime, 2.0 * inp.sigma.c2, n), strict_ok, ks


# ---------------------------------------------------------------------------
# Array twin of the lenient closure
# ---------------------------------------------------------------------------
#
# `lenient_branch_array` is
# select_branch_lenient(pi_candidates(inp, solve_k(inp))) for many trial
# points at once: sigma and tau_tilde are scalar and the
# coefficients of sigma_tilde are arrays.  It repeats the scalar operations in
# the scalar order, through the same under_root_quadratic / _disc_in_k /
# _disc_at helpers, so every element is bit-identical to the scalar result; a
# point where the scalar path raises is a gap.


def _polish_array(inp: NUInput, qa: float, qb: np.ndarray, k: np.ndarray) -> np.ndarray:
    """solve_k's Newton polish, elementwise."""
    d = _disc_at(inp, k)
    slope = 2.0 * qa * k + qb
    k2 = k - d / slope
    take = ((slope != 0.0) & np.isfinite(slope) & np.isfinite(k2)
            & (abs(_disc_at(inp, k2)) <= abs(d)))
    return np.where(take, k2, k)


def _solve_k_array(inp: NUInput, scale: np.ndarray):
    """solve_k per point: the polished (k0, k1) in solve_k's order, whether
    k1 exists, and the gap mask of the points where solve_k raises."""
    qa, qb, qc = _disc_in_k(inp)
    tiny = 1e-14 * np.maximum(1.0, scale * scale)
    quad = abs(qa) > tiny
    linear = ~quad & (abs(qb) > tiny)
    disc = qb * qb - 4.0 * qa * qc
    sq = np.sqrt(disc)
    q = -(qb + np.copysign(sq, qb)) / 2.0
    r1, r2 = q / qa, qc / q
    # the pair solve_k keeps distinct and sorts: {q/qa, qc/q}, its one root and the
    # root's partner -qb/qa - x, or {0, -qb/qa} when q vanishes
    x = np.where(q == 0.0, 0.0, r1)
    single = ((qc == 0.0) & (sq == 0.0)) | (r1 == r2)
    y = np.where(q == 0.0, -qb / qa, np.where(single, -qb / qa - r1, r2))
    two = x != y
    k0 = np.where(quad, np.where(two, np.minimum(x, y), x), -qc / qb)
    k1 = np.maximum(x, y)
    gap = ~(quad | linear) | (quad & (disc < 0))
    return (_polish_array(inp, qa, qb, k0), _polish_array(inp, qa, qb, k1),
            quad & two & ~gap, gap)


def _linear_sqrt_slope_array(q: Poly2, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_linear_sqrt's slope and whether the root exists, elementwise (the
    closure reads only the slope of pi)."""
    tol = math.sqrt(_SQUARE_TOL) * np.maximum(1.0, scale)
    lead = q.c2 > tol * tol
    real = lead | ~((q.c2 < -tol * tol) | (abs(q.c1) > tol) | (q.c0 < -tol * tol))
    return np.where(lead, np.sqrt(q.c2), 0.0), real


def lenient_branch_array(inp: NUInput) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lam, tau', gap) of the lenient branch at every point of inp.sigma_tilde.

    lam and tau' are those of
    select_branch_lenient(pi_candidates(inp, solve_k(inp))); gap marks the
    points where solve_k or pi_candidates raises (lam and tau' are NaN
    there).
    """
    st = inp.sigma_tilde
    scale = np.maximum(max(inp.sigma.max_abs_coeff(), inp.tau_tilde.max_abs_coeff()),
                       np.maximum(np.maximum(abs(st.c0), abs(st.c1)), abs(st.c2)))
    h = inp.half_diff()
    shape = np.shape(scale)
    lam = np.full(shape, math.nan)
    tau_prime = np.full(shape, math.nan)
    best_k = np.full(shape, math.nan)
    best_sign = np.zeros(shape, dtype=int)
    found = np.zeros(shape, dtype=bool)
    with np.errstate(all="ignore"):
        k0, k1, has_k1, gap = _solve_k_array(inp, scale)
        for k, has_k in ((k0, ~gap), (k1, has_k1)):
            q = under_root_quadratic(inp, k)
            q_scale = np.maximum(scale, np.maximum(np.maximum(abs(q.c0), abs(q.c1)),
                                                   abs(q.c2)))
            # Python's float ** 2 is libm pow, which float_power repeats and a
            # numpy square does not
            sq_scale = np.float_power(1.0 + q_scale, 2.0)
            slope, real = _linear_sqrt_slope_array(q, q_scale)
            ok = has_k & ~(abs(_disc_at(inp, k)) > _SQUARE_TOL * sq_scale) & real
            # candidates in pi_candidates' order; the sort key of
            # select_branch_lenient is (tau', k, 0 for minus / 1 for plus)
            for s, sign_key in ((1.0, 1), (-1.0, 0)):
                pi_slope = h.c1 + s * slope
                tp = inp.tau_tilde.c1 + 2.0 * pi_slope
                better = ok & (~found | (tp < tau_prime) | ((tp == tau_prime) & (
                    (k < best_k) | ((k == best_k) & (sign_key < best_sign)))))
                lam = np.where(better, k + pi_slope, lam)
                tau_prime = np.where(better, tp, tau_prime)
                best_k = np.where(better, k, best_k)
                best_sign = np.where(better, sign_key, best_sign)
                found |= ok
    return lam, tau_prime, ~found
