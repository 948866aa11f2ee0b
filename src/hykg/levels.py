"""Energy-level records shared by every solver engine."""
from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Engine(str, enum.Enum):
    EQ45_VERBATIM = "Eq45Verbatim"
    IMPLICIT_LAMBDA = "ImplicitLambda"
    MECHANICAL_NU = "MechanicalNU"
    ORACLE = "Oracle"


# Flag vocabulary.  Kept as plain strings so level records serialize verbatim.
FLAG_EPS2_NEGATIVE = "Eps2Negative"
FLAG_NO_ROOT = "NoRoot"
FLAG_NEGATIVE_UNDER_SQRT = "NegativeUnderSqrt"
FLAG_NODE_MISMATCH = "NodeMismatch"
FLAG_TAU_PRIME_NONNEG = "TauPrimeNonNegative"
FLAG_SIGN_PLUS = "SignPlus"
FLAG_SIGN_MINUS = "SignMinus"
FLAG_ORDERING_VIOLATION = "OrderingViolation"
FLAG_MULTIPLE_ROOTS = "MultipleRoots"
FLAG_REFERENCE_FALLBACK = "ReferenceEnergyFallback"
FLAG_TAIL_NOT_CONVERGED = "TailNotConverged"
FLAG_CONFLUENT_FORM = "ConfluentForm"
FLAG_IDENTITY_NOT_COMPUTABLE = "IdentityNotComputable"

# The one engine preference order: the audit's reference energy is the first
# of these with a level, and `wavefunction` samples the first closed form
# (the oracle skipped) with one.
PREFERENCE = (Engine.MECHANICAL_NU, Engine.ORACLE, Engine.IMPLICIT_LAMBDA,
              Engine.EQ45_VERBATIM)


@dataclass(frozen=True)
class EnergyLevel:
    """One bound-state record.

    ``E`` is None when the engine could not produce the level; a flag then
    explains why.  ``Ebar`` is E^2 - M^2 for found levels.  For a closed
    form, ``residual`` is |f(E)| of the engine's residual function.  For the
    oracle's count bisection it is the half-width of the final Sturm-count
    bracket, whose ends' counts straddle n: a bound on |E - crossing|.
    """

    n: int
    E: float | None
    Ebar: float | None
    engine: Engine
    residual: float | None
    flags: frozenset[str] = field(default_factory=frozenset)

    @property
    def found(self) -> bool:
        return self.E is not None


def fmt_cell(x) -> str:
    """The one CSV cell format: floats at round-trip precision, empty for
    None, true/false, a flag set as one sorted ;-joined token."""
    if isinstance(x, float):
        return repr(float(x))
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, frozenset):
        return ";".join(sorted(x))
    return str(x)
