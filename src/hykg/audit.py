"""Cross-engine comparison and identity auditing.

Every row compares the four engines at one radial quantum number and
evaluates the printed derivation's internal identities numerically.  The
printed algebra is internally inconsistent, so identity columns are
findings, not assertions: the report asserts only completeness, finiteness
and determinism.  Quantities whose printed radicands go negative are
evaluated in complex arithmetic and reported as moduli (the row carries the
NegativeUnderSqrt flag).

Column meanings (the documented identity list):

  disc_residual            scaled square-closure defect of the mechanical branch
  tau_prime_sign           True if the selected branch has a decreasing tau
  eq42_vs_derivative       printed slope formula vs the mechanical branch slope
  eq44_vs_eq12             printed lambda_n vs the mechanical lambda_n
  eq20_vs_eq23             direct printed gamma^2 vs the subtractive form
  delta_a9_vs_eq35         squared explicit delta vs the main-chain delta^2
  k39_vs_mechanical        printed closure constant vs nearest mechanical one
  ode_residual_closedform  relative L2 defect of the closed form in the radial ODE
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from itertools import combinations
from typing import Callable, Iterable

import numpy as np

from . import __version__, closedform
from .closedform import (
    build_nu_input,
    energy_eq45_result,
    energy_implicit_result,
    energy_mechanical_result,
    intermediates,
)
from .config import ENGINE_ALIASES, N_MAX, params_dict
from .errors import HykgError
from .hylleraas import HylleraasParams, appendix_a_forms, appendix_constants, gamma2_printed
from .levels import (
    FLAG_IDENTITY_NOT_COMPUTABLE,
    FLAG_MULTIPLE_ROOTS,
    FLAG_NEGATIVE_UNDER_SQRT,
    FLAG_NO_ROOT,
    FLAG_ORDERING_VIOLATION,
    FLAG_REFERENCE_FALLBACK,
    PREFERENCE,
    Engine,
    EnergyLevel,
    fmt_cell,
)
from .nu import BranchGap, quantization, solve_k
from .oracle import (
    RadialGrid,
    effective_potential,
    solve_levels,
    # part of this module's namespace: bench/tests checks that the tracer
    # wraps it here too
    solve_relativistic,  # noqa: F401
)
from .wavefunction import _is_confluent, build_radial


# The one engine x level dispatch: Engine -> (params, ns, grid) -> {n: levels};
# callers index it directly.
# Every entry returns one list per n in ns: the levels found, ascending in
# E, and an empty list for a miss.  Each entry solves every n in one call,
# so the work that does not depend on n is done once.  Each entry looks its
# solver up by module-global name at call time, so wrappers patched onto this
# module's attributes (bench/tracer.py, test monkeypatching) see every call.
# Iterating over Engine gives the column order eq45, implicit, mechanical,
# oracle.
ENGINES: dict[Engine, Callable[[HylleraasParams, Iterable[int], RadialGrid],
                               dict[int, list[EnergyLevel]]]] = {
    Engine.EQ45_VERBATIM: lambda p, ns, grid: energy_eq45_result(p, ns),
    Engine.IMPLICIT_LAMBDA: lambda p, ns, grid: energy_implicit_result(p, ns),
    Engine.MECHANICAL_NU: lambda p, ns, grid: energy_mechanical_result(p, ns),
    Engine.ORACLE: lambda p, ns, grid: solve_levels(p, ns, grid),
}

# short column names (E_eq45, diff_eq45_oracle, ...) are the config aliases
_SHORT = {engine: alias for alias, engine in ENGINE_ALIASES.items()}


@dataclass(frozen=True)
class AuditRow:
    """One per-n comparison row; numeric fields are None (with a flag) when
    the quantity could not be computed, never NaN or infinity."""

    n: int
    E_eq45: float | None
    E_implicit: float | None
    E_mechanical: float | None
    E_oracle: float | None
    diff_eq45_implicit: float | None
    diff_eq45_mechanical: float | None
    diff_eq45_oracle: float | None
    diff_implicit_mechanical: float | None
    diff_implicit_oracle: float | None
    diff_mechanical_oracle: float | None
    disc_residual: float | None
    tau_prime_sign: bool
    eq42_vs_derivative: float | None
    eq44_vs_eq12: float | None
    eq20_vs_eq23: float | None
    delta_a9_vs_eq35: float | None
    k39_vs_mechanical: float | None
    ode_residual_closedform: float | None
    ode_form: str
    reference_E: float
    flags: frozenset[str] = field(default_factory=frozenset)

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in CSV_COLUMNS if k != "flags"}
        d["flags"] = sorted(self.flags)
        return d


CSV_COLUMNS = [f.name for f in fields(AuditRow)]


@dataclass(frozen=True)
class AuditReport:
    version: str
    config: dict
    rows: tuple[AuditRow, ...]
    summary: dict

    def to_json(self) -> str:
        payload = {
            "version": self.version,
            "config": self.config,
            "rows": [r.to_dict() for r in self.rows],
            "summary": self.summary,
        }
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(fmt_cell(getattr(row, col)) for col in CSV_COLUMNS)
                  for row in self.rows]
        return "\n".join(lines) + "\n"


def _pick(levels: list[EnergyLevel]) -> tuple[float | None, frozenset[str]]:
    """Lowest root represents the engine in the row; extra roots are flagged,
    and a miss is flagged NoRoot."""
    if not levels:
        return None, frozenset({FLAG_NO_ROOT})
    first = levels[0]
    flags = set(first.flags)
    if len(levels) > 1:
        flags.add(FLAG_MULTIPLE_ROOTS)
    return first.E, frozenset(flags)


def _complex_gap(printed: complex, mechanical: float, scale: float) -> float:
    return abs(printed - mechanical) / max(1.0, scale)


def ode_residual(params: HylleraasParams, level: EnergyLevel,
                 grid: RadialGrid) -> tuple[float, str]:
    """Relative L2 defect of the closed-form R in -R'' + (W - Ebar) R = 0.

    For asymmetric parameter sets all four printed reading/ordering combos
    are tried and the best (smallest) defect is reported with its label; at
    a = c the mechanical confluent form is the only representation.
    """
    combos = ([("printed", "D_on_a")] if _is_confluent(params) else
              [(r, o) for r in ("printed", "symmetric") for o in ("D_on_a", "F_on_a")])
    w = effective_potential(params, level.E, grid)
    ebar = level.E ** 2 - params.M ** 2
    best = math.inf
    best_label = "none"
    for reading, ordering in combos:
        try:
            rad = build_radial(params, level, grid, reading=reading, ordering=ordering)
        except HykgError:
            continue
        R = rad.values
        h = grid.h
        rpp = (R[2:] - 2 * R[1:-1] + R[:-2]) / (h * h)
        resid = -rpp + (w[1:-1] - ebar) * R[1:-1]
        num = math.sqrt(float(np.sum(resid ** 2)))
        den = math.sqrt(float(np.sum(rpp ** 2))) + math.sqrt(
            float(np.sum(((w[1:-1] - ebar) * R[1:-1]) ** 2)))
        value = num / max(den, 1e-300)
        label = rad.representation
        if value < best:
            best, best_label = value, label
    if not math.isfinite(best):
        return math.inf, "none"
    return best, best_label


def _identity_columns(params: HylleraasParams, E: float, n: int) -> dict:
    """All per-row identity findings at one reference energy."""
    cst = appendix_constants(params, E)
    out: dict = {}
    flags: set[str] = set()

    # gamma^2: direct printed form vs subtractive construction
    direct = gamma2_printed(params, E)
    out["eq20_vs_eq23"] = abs(direct - cst.gamma2) / max(1.0, abs(cst.eps2) + abs(cst.gammap2))

    # the two printed deltas
    d_a9_sq = appendix_a_forms(params, E).delta_a9 ** 2
    out["delta_a9_vs_eq35"] = abs(d_a9_sq - cst.delta2) / max(1.0, d_a9_sq, cst.delta2)

    im = intermediates(params, E, n)
    if FLAG_NEGATIVE_UNDER_SQRT in im.flags:
        flags.add(FLAG_NEGATIVE_UNDER_SQRT)

    inp = build_nu_input(params, E)
    branch = quantization(inp, n)
    if isinstance(branch, BranchGap):
        out["disc_residual"] = math.inf
        out["tau_prime_sign"] = False
        out["eq42_vs_derivative"] = math.inf
        out["eq44_vs_eq12"] = math.inf
        out["k39_vs_mechanical"] = math.inf
        out["_flags"] = flags | {branch.reason}
        return out
    sol, lamn_mech, _ = branch
    scale2 = (1.0 + max(inp.scale(), 1.0)) ** 2
    out["disc_residual"] = sol.residual_square / scale2
    out["tau_prime_sign"] = bool(sol.tau_prime < 0.0)
    out["eq42_vs_derivative"] = _complex_gap(im.tau_prime_printed, sol.tau_prime,
                                             abs(sol.tau_prime))
    out["eq44_vs_eq12"] = _complex_gap(im.lam_n, lamn_mech, abs(lamn_mech))
    # the branch closed, so solve_k has real roots at this input
    out["k39_vs_mechanical"] = min(abs(im.k.real - k) / max(1.0, abs(k))
                                   for k, _ in solve_k(inp))
    out["_flags"] = flags
    return out


def run_audit(params: HylleraasParams, n_max: int, grid: RadialGrid) -> AuditReport:
    """One row per n in 0..n_max; engine failures become flags, never aborts."""
    if not 0 <= n_max <= N_MAX:
        raise ValueError(f"n_max must be in 0..{N_MAX}")

    ns = range(n_max + 1)
    levels = {eng: ENGINES[eng](params, ns, grid) for eng in Engine}
    rows: list[AuditRow] = []
    prev_e: dict[Engine, float] = {}
    for n in ns:
        per_engine = {eng: _pick(levels[eng][n]) for eng in Engine}

        flags: set[str] = set()
        for eng, (e, fl) in per_engine.items():
            flags |= {f"{eng.value}:{f}" for f in fl}
            if e is not None and eng in prev_e and e < prev_e[eng]:
                flags.add(FLAG_ORDERING_VIOLATION)
            if e is not None:
                prev_e[eng] = e

        es = {eng: e for eng, (e, _) in per_engine.items()}
        # reference energy for the identity columns
        ref_e = next((es[eng] for eng in PREFERENCE if es[eng] is not None), None)
        if ref_e is None:
            ref_e = 0.0
            flags.add(FLAG_REFERENCE_FALLBACK)

        ident = _identity_columns(params, ref_e, n)
        flags |= ident.pop("_flags", set())
        for key, val in ident.items():
            if isinstance(val, float) and not math.isfinite(val):
                ident[key] = None
                flags.add(FLAG_IDENTITY_NOT_COMPUTABLE)

        ref_level = EnergyLevel(n=n, E=ref_e, Ebar=ref_e ** 2 - params.M ** 2,
                                engine=Engine.MECHANICAL_NU, residual=0.0)
        ode_val, ode_form = ode_residual(params, ref_level, grid)
        if not math.isfinite(ode_val):
            ode_val = None
            flags.add(FLAG_IDENTITY_NOT_COMPUTABLE)

        def opt(x):
            return None if x is None else float(x)

        energies = {f"E_{_SHORT[eng]}": opt(e) for eng, e in es.items()}
        diffs = {f"diff_{_SHORT[a]}_{_SHORT[b]}":
                 None if es[a] is None or es[b] is None else float(abs(es[a] - es[b]))
                 for a, b in combinations(Engine, 2)}
        rows.append(AuditRow(
            n=n,
            **energies,
            **diffs,
            **ident,
            ode_residual_closedform=opt(ode_val),
            ode_form=ode_form,
            reference_E=float(ref_e),
            flags=frozenset(flags),
        ))

    summary = {
        "rows": len(rows),
        "levels_found": {eng.value: sum(1 for r in rows
                                        if getattr(r, f"E_{_SHORT[eng]}") is not None)
                         for eng in Engine},
        "tau_prime_negative_rows": sum(1 for r in rows if r.tau_prime_sign),
        "rows_with_negative_radicands": sum(
            1 for r in rows if FLAG_NEGATIVE_UNDER_SQRT in r.flags),
    }
    config = {
        "params": params_dict(params),
        "grid": {"r_min": grid.r_min, "r_max": grid.r_max, "n": grid.n},
        "n_max": n_max,
        "n_brackets": closedform.N_BRACKETS,
    }
    return AuditReport(version=f"hykg {__version__}", config=config,
                       rows=tuple(rows), summary=summary)

