"""Exception types shared across the toolkit."""


class HykgError(Exception):
    """Base class for all toolkit errors."""


class DegenerateParams(HykgError):
    """Parameter combination hits a zero denominator or a singular potential family."""


class OutOfRange(HykgError):
    """An evaluation would overflow; reported instead of returning non-finite values."""


class SingularPotential(HykgError):
    """The potential's denominator vanishes at the requested point."""


class NoRealK(HykgError):
    """The square-root-closure condition has no real solution."""


class DegenerateSigma(HykgError):
    """The under-root quadratic degenerates for every k; the closure condition is vacuous."""


class ImperfectSquare(HykgError):
    """No solved k leaves the under-root quadratic a perfect square within tolerance."""


class NoValidBranch(HykgError):
    """No sign branch yields a decreasing linearized coefficient."""


class ComplexRoots(HykgError):
    """The leading polynomial has complex roots; factor exponents are out of scope."""


class NotRepresentable(HykgError):
    """A printed radicand is negative; the closed-form factor does not exist as a real function."""


class DegenerateAC(HykgError):
    """The printed exponent formulas divide by c - a, which vanishes here."""


class DomainError(HykgError):
    """A base factor is nonpositive on the requested evaluation domain."""


class TailNotConverged(HykgError):
    """Samples have not decayed at the grid edge; the norm integral is not trustworthy."""


class NoRoot(HykgError):
    """A bracketed scan found no sign change."""


class ConfigError(HykgError):
    """Invalid or unknown configuration input."""


class MissingLevel(HykgError):
    """A requested level index was not produced by the selected engine."""
