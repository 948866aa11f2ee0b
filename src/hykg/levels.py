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
FLAG_BRANCH_GAP = "BranchGap"
FLAG_NO_ROOT = "NoRoot"
FLAG_DUPLICATE_MERGED = "DuplicateMerged"
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


@dataclass(frozen=True)
class EnergyLevel:
    """One bound-state record.

    ``E`` is None when the engine could not produce the level; a flag then
    explains why.  ``Ebar`` is E^2 - M^2 for found levels.
    """

    n: int
    E: float | None
    Ebar: float | None
    engine: Engine
    residual: float | None
    flags: frozenset[str] = field(default_factory=frozenset)

    def with_flags(self, *extra: str) -> "EnergyLevel":
        return EnergyLevel(self.n, self.E, self.Ebar, self.engine, self.residual,
                           self.flags | frozenset(extra))

    @property
    def found(self) -> bool:
        return self.E is not None


def flags_str(flags: frozenset[str]) -> str:
    """Deterministic single-token rendering used in CSV output."""
    return ";".join(sorted(flags))
