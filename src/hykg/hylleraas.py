"""Hylleraas-type potential family: parameters, change of variable, constant cascade.

The potential is a six-parameter exponential-type molecular well

    V(r) = D_e * [1 - (1+a)(1+c)(s+b) / ((s+a)(s+c)(1+b))],   s = exp(+/- 2(1+K) w r)

with (a, b, c) derived from the shape parameters (K, k1, k2).  Everything in
this module is a pure function of its inputs.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DegenerateParams, OutOfRange, SingularPotential

# Largest exponent exp() can take before overflowing a double.
_EXP_MAX = 709.0


class SSign(enum.Enum):
    """Sign convention of the exponent in s(r)."""

    POSITIVE = "positive"   # s = exp(+2(1+K) w r), growing; verbatim convention
    NEGATIVE = "negative"   # s = exp(-2(1+K) w r), decaying


@dataclass(frozen=True)
class ABC:
    """The three derived shape quotients."""

    a: float
    b: float
    c: float


@dataclass(frozen=True)
class HylleraasParams:
    """Physical inputs; `mu` is an auxiliary dimensionless factor kept configurable.

    `mu` multiplies the energy-type terms of the dimensionless constant cascade.
    Its role is not fixed by the unit system (h-bar = c = 1); it defaults to 1
    and the audit quantifies its effect.
    """

    K: float
    k1: float
    k2: float
    omega: float
    D_e: float
    M: float
    mu: float = 1.0
    s_sign: SSign = SSign.POSITIVE

    def __post_init__(self):
        if not (self.omega > 0):
            raise DegenerateParams("omega must be > 0")
        if self.D_e < 0:
            raise DegenerateParams("D_e must be >= 0")
        if not (self.M > 0):
            raise DegenerateParams("M must be > 0")
        if not (self.mu > 0):
            raise DegenerateParams("mu must be > 0")
        self.abc  # derives (and caches) a, b, c; validates the denominators

    @cached_property
    def abc(self) -> ABC:
        """Derived once per instance; the cache is not a field, so equality,
        hashing and replace() see only the physical inputs."""
        return derive_abc(self.K, self.k1, self.k2)

    @property
    def scale2(self) -> float:
        """(1+K)^2 w^2, the square of the inverse-length scale."""
        return (1.0 + self.K) ** 2 * self.omega ** 2

    def replace(self, **kw) -> "HylleraasParams":
        return replace(self, **kw)


def derive_abc(K: float, k1: float, k2: float) -> ABC:
    """a = (K-k2)/(1+k2), b = (K-k1+k2)/(1+k1+k2), c = (K-k1)/(1+k1)."""
    for name, den in (("1+k2", 1 + k2), ("1+k1+k2", 1 + k1 + k2), ("1+k1", 1 + k1)):
        if den == 0:
            raise DegenerateParams(f"denominator {name} is zero")
    a = (K - k2) / (1 + k2)
    b = (K - k1 + k2) / (1 + k1 + k2)
    c = (K - k1) / (1 + k1)
    for name, val in (("1+a", 1 + a), ("1+b", 1 + b), ("1+c", 1 + c)):
        if val == 0:
            raise DegenerateParams(f"{name} is zero; the potential family is singular")
    return ABC(a, b, c)


# Desk-scale default parameter set used by the CLI default config and the tests.
DEFAULT_PARAMS = HylleraasParams(K=2.0, k1=1.0, k2=1.0, omega=0.25, D_e=1.0,
                                 M=1.0, mu=1.0, s_sign=SSign.NEGATIVE)


def _exponent(r: float | np.ndarray, K: float, omega: float,
              s_sign: SSign) -> float | np.ndarray:
    """The exponent +/- 2(1+K) w r of s(r), for a float or an array."""
    expo = 2.0 * (1.0 + K) * omega * r
    return -expo if s_sign is SSign.NEGATIVE else expo


def s_of_r(r: np.ndarray, K: float, omega: float, s_sign: SSign) -> np.ndarray:
    """s = exp(+/- 2(1+K) w r) at an array of radii.  A negative r or a
    saturating exponent raises OutOfRange, never inf."""
    if np.any(r < 0):
        raise OutOfRange("r must be >= 0")
    expo = _exponent(r, K, omega, s_sign)
    over = expo > _EXP_MAX
    if np.any(over):
        raise OutOfRange(f"s(r) overflows: exponent {np.extract(over, expo)[0]:.3g}")
    # math.exp per element, not np.exp: the wavefunction samples s(r), and
    # np.exp's last-bit differences change the audit (the n = 2
    # ode_residual_closedform cell 0.9853221836034423 -> 0.985322183603442)
    return np.frompyfunc(math.exp, 1, 1)(expo).astype(float)


def potential_from_s(s: float | np.ndarray, a: float, b: float, c: float,
                     D_e: float) -> float | np.ndarray:
    """V as a function of the transformed variable s, for a float or an array."""
    den = (s + a) * (s + c) * (1 + b)
    if np.any(den == 0):
        raise SingularPotential(f"(s+a)(s+c)(1+b) vanishes at s={s!r}")
    return D_e * (1.0 - (1 + a) * (1 + c) * (s + b) / den)


def potential_V(r: float | np.ndarray, params: HylleraasParams) -> float | np.ndarray:
    """V(r) at a float or an array of radii; V(0) = 0 exactly up to rounding
    for every valid parameter set."""
    abc = params.abc
    expo = _exponent(r, params.K, params.omega, params.s_sign)
    # np.exp on the whole grid: the oracle's energies, and so the golden
    # files, rest on its bits.  V reaches D_e to double precision long before
    # exp overflows; the cap keeps s finite so the far tail is D_e, not
    # inf/inf = NaN
    s = np.exp(np.minimum(expo, 300.0))
    return potential_from_s(s, abc.a, abc.b, abc.c, params.D_e)


@dataclass(frozen=True)
class AppendixConstants:
    """The constants of the dimensionless cascade that the closed forms and
    the audit read, at a trial energy E.

    All fields follow the defining formulas of the closed-form derivation's
    main chain; the rest of the cascade (Vbar, beta'^2, alpha2, alpha3, xi1,
    xi2, Lam1, Lam4, B) stays local to `appendix_constants`.  The explicit
    alternative delta, which disagrees with `delta2`, is
    `AppendixAForms.delta_a9`.  `lam` here is spelled `Lam` to match the
    audit schema.
    """

    eps2: float
    gammap2: float
    beta2: float     # eps2 - betap2, by construction
    gamma2: float    # eps2 - gammap2, by construction
    alpha1: float
    Lam2: float
    Lam3: float
    delta2: float    # Lam3^2 + 12 Lam1, by construction
    A: float
    U2: float        # delta2 * (eps2 + A)^2
    V2: float        # A^2 - B


def square(x: float | np.ndarray) -> float | np.ndarray:
    """x ** 2 of a float, which is libm pow, for arrays too: np.float_power
    repeats it bit for bit, where a numpy square can differ in the last bit."""
    return np.float_power(x, 2.0) if isinstance(x, np.ndarray) else x ** 2


def epsilon2(params: HylleraasParams, E: float) -> float:
    """eps^2 = -2 mu (1+b) Ebar / scale2 at trial energy E (float or array)."""
    Ebar = E * E - params.M * params.M
    return -2.0 * params.mu * (1 + params.abc.b) * Ebar / params.scale2


def appendix_constants(params: HylleraasParams, E: float) -> AppendixConstants:
    """Evaluate every constant of the cascade verbatim at trial energy E."""
    abc = params.abc
    a, b, c = abc.a, abc.b, abc.c
    w2 = params.scale2
    Vbar = 2.0 * params.D_e * (E + params.M)

    eps2 = epsilon2(params, E)
    betap2 = (1 + a) * (1 + c) * Vbar / w2
    gammap2 = (1 + b) * (1 + a) * (1 + c) * Vbar / w2
    beta2 = eps2 - betap2
    gamma2 = eps2 - gammap2

    alpha1 = 1 + b
    alpha2 = 2.0 * alpha1 * (a + c)
    alpha3 = 2.0 * a * c * alpha1
    xi1 = 2.0 * a * alpha1 ** 2 - betap2
    xi2 = a * a * alpha1 ** 2 - gammap2

    Lam1 = alpha2 ** 2 - 8.0 * alpha1 * alpha3
    Lam2 = 2.0 * alpha1 * xi1 - 4.0 * alpha1 ** 2 * alpha3 - 8.0 * alpha1 * xi2
    Lam3 = 2.0 * alpha2 - 4.0 * alpha3 - 8.0 * alpha1
    Lam4 = square(xi1) - 4.0 * alpha1 ** 2 * xi2
    delta2 = Lam3 ** 2 + 12.0 * Lam1
    if delta2 == 0:
        raise DegenerateParams("delta2 vanished; A and B are undefined")
    A = (2.0 * Lam2 * alpha3 + 16.0 * Lam1 * alpha1 ** 2 + 16.0 * Lam1 * xi1) / delta2
    B = (square(Lam2) - 4.0 * Lam1 * Lam4) / delta2

    U2 = delta2 * square(eps2 + A)
    V2 = A * A - B
    return AppendixConstants(eps2=eps2, gammap2=gammap2, beta2=beta2, gamma2=gamma2,
                             alpha1=alpha1, Lam2=Lam2, Lam3=Lam3,
                             delta2=delta2, A=A, U2=U2, V2=V2)


def gamma2_printed(params: HylleraasParams, E: float) -> float:
    """The direct printed form of gamma^2, [2(1+b)E - (1+a)(1+c)Vbar] / scale2.

    Kept separate from AppendixConstants.gamma2 (the by-construction form);
    the audit compares the two numerically.
    """
    abc = params.abc
    Vbar = 2.0 * params.D_e * (E + params.M)
    return (2.0 * (1 + abc.b) * E - (1 + abc.a) * (1 + abc.c) * Vbar) / params.scale2


@dataclass(frozen=True)
class AppendixAForms:
    """Explicit appendix expansions of the cascade, in terms of (a, b, c, Vbar):
    the forms that the verbatim eq45 route (A13, A14, delta A9, Lam3 A7) and
    the audit (delta A9) read.  Several of them disagree with the main chain.
    """

    Lam3_a7: float
    delta_a9: float
    A_a13: float
    B_a14: float


def appendix_a_forms(params: HylleraasParams, E: float) -> AppendixAForms:
    abc = params.abc
    a, b, c = abc.a, abc.b, abc.c
    w2 = params.scale2
    Vbar = 2.0 * params.D_e * (E + params.M)
    vw = Vbar / w2  # the recurring Vbar/((1+K)^2 w^2) combination

    Lam3_a7 = 4.0 * (1 + b) * (a + c - 2 * a * c - 2)
    delta_a9 = 64.0 * (1 + b) ** 2 * (a * (1 - c) - a * (8 * c + 1)
                                      + c * c * (1 - a) + a + 4.0)

    # A and B share the printed denominator 1024 (1+b)^2 [..]^2.  The A
    # numerator is transcribed as printed: a single product (no operator
    # appears between its factors), hence A is linear in Vbar.
    dbr = (a * a - a * a * c - 8 * a * c - a + 4.0 - a * c * c - c + c * c)
    den = 1024.0 * (1 + b) ** 2 * dbr ** 2
    if den == 0:
        raise DegenerateParams("appendix A/B denominator vanished")
    p1 = (16 * a ** 3 + 12 * a * a * c - a * a * c * c - 63 * a * a * c
          + 8 * a * a - 12 * a * c + 16 * a * c * c + 8 * c * c)
    p2 = (16 * a * a + 4 * b * c - a * c * c - 64 * a * c + 16 * c * c)
    A_a13 = 2.0 * (1 + b) ** 2 * p1 * ((1 + a) * (1 + c) / w2) * p2 * Vbar / den

    p3 = (2 * a * a * b + 2 * b * c * c - 28 * a * b * c + 4 * a * b - 3 * a)
    p4 = (16 * b * b - 4 * a * a * c * c - 56 * a * c + a - 24 * b)
    B_a14 = (a * (1 + b) ** 4 * (2 * a - c + 1)
             - 2.0 * (1 + b) ** 2 * (1 + c) * vw * p3
             + square((1 + a) * (1 + c) * vw) * p4) / den

    return AppendixAForms(Lam3_a7=Lam3_a7, delta_a9=delta_a9, A_a13=A_a13, B_a14=B_a14)

