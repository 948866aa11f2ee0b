"""The three benchmark workloads: inputs drawn from a seed, one timed
iteration each, and the checks that its outputs are correct.

Each workload has
  ``prepare(i)``          untimed: write iteration i's inputs, clear its outputs;
  ``execute(i, tracer)``  timed: drive hykg through its public entry points;
  ``check(i, raw)``       untimed: one ``Op`` per operation, ok or not;
  ``setup_code()``        what a fresh interpreter runs to be ready to work.

Every workload drives the program from this one process, so nothing waits
on anything else: no layer has a waiting time to report.
"""
from __future__ import annotations

import json
import math
import random
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from hykg.cli import main as hykg_main  # noqa: E402
from hykg.closedform import eq45_rhs, implicit_residual, mechanical_residual  # noqa: E402
from hykg.errors import HykgError  # noqa: E402
from hykg.hylleraas import DEFAULT_PARAMS, HylleraasParams, SSign  # noqa: E402
# The study calls through the modules, so that the tracer's wrappers are seen.
import hykg.oracle as oracle  # noqa: E402
import hykg.rootfind as rootfind  # noqa: E402

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Op:
    """One attempted operation: a CLI command or a study, with its checks."""

    name: str
    ok: bool
    detail: str = ""


def run_command(tracer, argv: list[str]) -> int:
    """``hykg.cli.main(argv)``; when traced, one span per command."""
    if tracer is None:
        return hykg_main(argv)
    with tracer.span("cli." + argv[0], scope=argv[0]):
        return hykg_main(argv)


def stratified(rng: random.Random, count: int) -> list[float]:
    """Latin-hypercube draws in [0, 1): one per stratum, strata shuffled."""
    strata = list(range(count))
    rng.shuffle(strata)
    return [(s + rng.random()) / count for s in strata]


# ---------------------------------------------------------------------------
# default-pipeline
# ---------------------------------------------------------------------------

DEFAULT_COMMANDS = (["spectrum"], ["audit"], ["wavefunction", "--n", "0"])
GOLDEN_FILES = {"spectrum": ("spectrum.csv", "spectrum.json"),
                "audit": ("audit.csv", "audit.json")}


def golden_n0_energies(golden_dir: Path) -> tuple[float, float]:
    """(lowest MechanicalNU, Oracle) n = 0 energies of the golden spectrum."""
    rows = [line.split(",") for line in
            (golden_dir / "spectrum.csv").read_text().splitlines()[1:]]
    mech = min(float(r[2]) for r in rows if r[0] == "0" and r[1] == "MechanicalNU")
    oracle = next(float(r[2]) for r in rows if r[0] == "0" and r[1] == "Oracle")
    return mech, oracle


def check_default_outputs(out: Path, golden: Path, rcs: dict[str, int]) -> list[Op]:
    """Spectrum and audit files byte-identical to the committed goldens; the
    wavefunction sidecar carries the golden n = 0 energies and a finite
    closed-form/oracle overlap."""
    ops = []
    for cmd, names in GOLDEN_FILES.items():
        bad = [n for n in names if not (out / n).is_file()
               or (out / n).read_bytes() != (golden / n).read_bytes()]
        ok = rcs[cmd] == 0 and not bad
        ops.append(Op(cmd, ok, "" if ok else f"exit {rcs[cmd]}, differs from golden: {bad}"))
    detail = f"exit {rcs['wavefunction']}"
    ok = rcs["wavefunction"] == 0
    if ok:
        try:
            side = json.loads((out / "wf_n0.flags.json").read_text())
            mech, oracle = golden_n0_energies(golden)
            overlap = side.get("overlap_closed_oracle")
            ok = (side.get("E_closed") == mech and side.get("E_oracle") == oracle
                  and isinstance(overlap, float) and math.isfinite(overlap))
            detail = (f"E_closed={side.get('E_closed')!r} (golden {mech!r}), "
                      f"E_oracle={side.get('E_oracle')!r} (golden {oracle!r}), "
                      f"overlap={overlap!r}")
        except (OSError, ValueError) as exc:
            ok, detail = False, repr(exc)
    ops.append(Op("wavefunction", ok, "" if ok else detail))
    return ops


class DefaultPipeline:
    name = "default-pipeline"

    def __init__(self, seed: int, work: Path):
        del seed  # inputs are fixed by the committed goldens
        self.config = ROOT / "configs" / "default.cfg"
        self.golden = ROOT / "tests" / "golden"
        self.out = work / "out"

    def setup_code(self) -> str:
        return ("import hykg.cli\nfrom hykg.config import load_config\n"
                f"load_config({str(self.config)!r})\n")

    def prepare(self, i: int) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def execute(self, i: int, tracer) -> dict[str, int]:
        return {argv[0]: run_command(tracer, argv + ["--config", str(self.config),
                                                     "--out", str(self.out)])
                for argv in DEFAULT_COMMANDS}

    def check(self, i: int, rcs: dict[str, int]) -> list[Op]:
        return check_default_outputs(self.out, self.golden, rcs)


# ---------------------------------------------------------------------------
# closedform-sweep
# ---------------------------------------------------------------------------

SWEEP_RANGES = {"K": (0.5, 3.0), "k1": (0.0, 2.0), "k2": (-0.6, 2.0),
                "omega": (0.1, 1.0), "D_e": (0.2, 5.0)}
SWEEP_POINTS = 3
SWEEP_N_MAX = 1
SWEEP_SPAN = 0.2          # linear sweep over base * (1 -/+ SWEEP_SPAN)
SWEEP_MIN_BASE = 0.05     # |base| below this collapses the sweep range
SWEEP_BLOCK = 16          # iterations per Latin-hypercube block
# A reported root E passes when the engine's residual changes sign across
# [E - ROOT_BRACKET, E + ROOT_BRACKET] (1000x the engines' 1e-12 Brent
# tolerance) and |f(E)| is below ROOT_SHRINK times |f| at either end of that
# bracket, which a jump discontinuity cannot satisfy.
ROOT_BRACKET = 1e-9
ROOT_SHRINK = 1e-2
REFERENCE_REL = 1e-9      # energies against the recorded seed-0 spectra


def _sweep_params(spec: dict, value: float) -> HylleraasParams:
    kw = dict(spec["base"], **{spec["parameter"]: value})
    return HylleraasParams(M=1.0, mu=1.0, s_sign=SSign(spec["s_sign"]), **kw)


def sweep_point_values(spec: dict) -> list[float]:
    start, stop = spec["start"], spec["stop"]
    step = (stop - start) / (SWEEP_POINTS - 1)
    return [start + k * step for k in range(SWEEP_POINTS)]


def _valid_sweep(spec: dict) -> bool:
    if abs(spec["base"][spec["parameter"]]) < SWEEP_MIN_BASE:
        return False
    try:
        for value in sweep_point_values(spec):
            _sweep_params(spec, value)
    except HykgError:
        return False
    return True


def sweep_spec(seed: int, i: int) -> dict:
    """Sweep i of the seed's stream.

    Base parameters and the s_sign/swept-parameter choice come from a Latin
    hypercube over blocks of SWEEP_BLOCK iterations, so a run's few sweeps
    cover the parameter box evenly.  An invalid or degenerate draw is redrawn
    from a fresh stream keyed by (seed, i, attempt).
    """
    block, j = divmod(i, SWEEP_BLOCK)
    rng = random.Random(f"closedform-sweep:{seed}:{block}")
    columns = {name: stratified(rng, SWEEP_BLOCK) for name in SWEEP_RANGES}
    signs = ["positive", "negative"] * (SWEEP_BLOCK // 2)
    rng.shuffle(signs)
    names = list(SWEEP_RANGES)
    swept = [names[k % len(names)] for k in range(SWEEP_BLOCK)]
    rng.shuffle(swept)
    draw = {name: columns[name][j] for name in SWEEP_RANGES}
    sign, parameter = signs[j], swept[j]
    attempt = 0
    while True:
        base = {name: lo + (hi - lo) * draw[name]
                for name, (lo, hi) in SWEEP_RANGES.items()}
        value = base[parameter]
        spec = {"base": base, "s_sign": sign, "parameter": parameter,
                "start": value * (1.0 - SWEEP_SPAN), "stop": value * (1.0 + SWEEP_SPAN)}
        if _valid_sweep(spec):
            return spec
        attempt += 1
        redraw = random.Random(f"closedform-sweep:{seed}:{i}:{attempt}")
        draw = {name: redraw.random() for name in SWEEP_RANGES}
        sign = redraw.choice(("positive", "negative"))
        parameter = redraw.choice(names)


def sweep_config_text(spec: dict) -> str:
    lines = ["[params]"]
    lines += [f"{name} = {value!r}" for name, value in spec["base"].items()]
    lines += ["M = 1.0", "mu = 1.0", f"s_sign = {spec['s_sign']}", "",
              "[run]", "engines = eq45, implicit, mechanical",
              f"n_max = {SWEEP_N_MAX}", "formats = csv, json", "",
              "[sweep]", f"parameter = {spec['parameter']}",
              f"start = {spec['start']!r}", f"stop = {spec['stop']!r}",
              f"count = {SWEEP_POINTS}", "scale = linear"]
    return "\n".join(lines) + "\n"


def engine_residual(params: HylleraasParams, engine: str, flags: list[str],
                    n: int):
    """The public residual function whose root the engine reports."""
    if engine == "MechanicalNU":
        return lambda E: mechanical_residual(params, E, n)
    if engine == "ImplicitLambda":
        return lambda E: implicit_residual(params, E, n)
    if engine == "Eq45Verbatim":
        pick = 1 if "SignPlus" in flags else 0
        m2 = params.M ** 2

        def f(E):
            rhs = eq45_rhs(params, E, n)[pick]
            return None if rhs is None else (E * E - m2) - rhs
        return f
    raise ValueError(f"unexpected engine {engine!r}")


def root_ok(f, E: float) -> bool:
    values = [f(x) for x in (E - ROOT_BRACKET, E, E + ROOT_BRACKET)]
    if not all(isinstance(v, float) and math.isfinite(v) for v in values):
        return False
    lo, mid, hi = values
    if mid == 0.0:
        return True
    return lo * hi < 0 and abs(mid) <= ROOT_SHRINK * max(abs(lo), abs(hi))


def sweep_levels(out: Path) -> list[list[tuple[int, str, float, list[str]]]]:
    """Per sweep point: (n, engine, E, flags) rows of its spectrum.csv."""
    points = []
    for entry in json.loads((out / "index.json").read_text())["points"]:
        rows = (out / entry["dir"] / "spectrum.csv").read_text().splitlines()[1:]
        points.append([(int(r[0]), r[1], float(r[2]), [f for f in r[5].split(";") if f])
                       for r in (line.split(",") for line in rows)])
    return points


def check_sweep_outputs(out: Path, spec: dict, reference: list | None) -> list[str]:
    """Problems found in one sweep's outputs; empty when correct."""
    problems = []
    index = json.loads((out / "index.json").read_text())
    values = [p["value"] for p in index["points"]]
    expected = sweep_point_values(spec)
    if index["parameter"] != spec["parameter"] or len(values) != len(expected) or any(
            abs(v - e) > 1e-12 * abs(e) for v, e in zip(values, expected)):
        problems.append(f"sweep index {index['parameter']} {values} != {expected}")
        return problems
    levels = sweep_levels(out)
    for k, (value, rows) in enumerate(zip(values, levels)):
        params = _sweep_params(spec, value)
        recorded = json.loads((out / index["points"][k]["dir"] / "spectrum.json").read_text())
        want = {name: getattr(params, name) for name in ("K", "k1", "k2", "omega", "D_e")}
        if any(recorded["params"][name] != v for name, v in want.items()):
            problems.append(f"point {k}: params {recorded['params']} != {want}")
        for n, engine, E, flags in rows:
            if not root_ok(engine_residual(params, engine, flags, n), E):
                problems.append(f"point {k}: {engine} n={n} E={E!r} is not a root")
    if reference is not None:
        got = [[(n, eng) for n, eng, _, _ in rows] for rows in levels]
        want_keys = [[(n, eng) for n, eng, _ in rows] for rows in reference]
        if got != want_keys:
            problems.append("levels differ from the recorded seed-0 spectra")
        else:
            for k, (rows, ref) in enumerate(zip(levels, reference)):
                for (n, eng, E, _), (_, _, E_ref) in zip(rows, ref):
                    if abs(E - E_ref) > REFERENCE_REL * max(1.0, abs(E_ref)):
                        problems.append(f"point {k}: {eng} n={n} E={E!r} != recorded {E_ref!r}")
    return problems


class ClosedformSweep:
    name = "closedform-sweep"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        path = REFERENCE_DIR / "closedform-sweep-seed0.json"
        self.reference = json.loads(path.read_text()) if seed == 0 else []

    def config_path(self, i: int) -> Path:
        return self.work / "inputs" / f"sweep_{i:05d}.cfg"

    def setup_code(self) -> str:
        self.prepare(0)
        return ("import hykg.cli\nfrom hykg.config import load_config\n"
                f"load_config({str(self.config_path(0))!r})\n")

    def prepare(self, i: int) -> None:
        path = self.config_path(i)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(sweep_config_text(sweep_spec(self.seed, i)))
        shutil.rmtree(self.work / "out", ignore_errors=True)

    def execute(self, i: int, tracer) -> int:
        return run_command(tracer, ["spectrum", "--config", str(self.config_path(i)),
                                    "--out", str(self.work / "out")])

    def check(self, i: int, rc: int) -> list[Op]:
        if rc != 0:
            return [Op("spectrum-sweep", False, f"exit {rc}")]
        reference = self.reference[i] if i < len(self.reference) else None
        problems = check_sweep_outputs(self.work / "out", sweep_spec(self.seed, i),
                                       reference)
        return [Op("spectrum-sweep", not problems, "; ".join(problems[:5]))]


# ---------------------------------------------------------------------------
# oracle-refinement
# ---------------------------------------------------------------------------

REFINEMENT_NS = (1000, 2000, 4000, 8000, 16000)
REFINEMENT_R_MAX = 10.0
REFINEMENT_HALFWIDTH = 0.05
REFINEMENT_D_E = (1000.0, 5000.0)
REFINEMENT_BLOCK = 16
MATRIX_ORDER = (2.0, 0.1)      # expected order, allowed deviation
NUMEROV_ORDER = (4.0, 0.15)
# The Numerov order is fitted on N = 1000..8000 only: at N = 16000 the Numerov
# error (~1e-11) is below the 1e-10 M Brent tolerance of numerov_shoot, so the
# last difference measures the root tolerance, not the stencil (fits over all
# five grids range 3.72..4.64 across D_e; over four, 3.97..4.05).
NUMEROV_ORDER_GRIDS = 4
FINEST_AGREEMENT = 1e-5        # |E0_matrix - E0_numerov| on the finest grid


def well_params(D_e: float) -> HylleraasParams:
    """The localized b < 0 well of scripts/convergence_study.py."""
    return DEFAULT_PARAMS.replace(K=1.2, k1=1.0, k2=-0.5, omega=0.25, D_e=D_e,
                                  s_sign=SSign.POSITIVE)


def refinement_grids() -> list[oracle.RadialGrid]:
    return [oracle.RadialGrid(r_min=REFINEMENT_R_MAX / n, r_max=REFINEMENT_R_MAX, n=n)
            for n in REFINEMENT_NS]


def refinement_d_e(seed: int, i: int) -> float:
    block, j = divmod(i, REFINEMENT_BLOCK)
    u = stratified(random.Random(f"oracle-refinement:{seed}:{block}"), REFINEMENT_BLOCK)[j]
    lo, hi = REFINEMENT_D_E
    return lo + (hi - lo) * u


@dataclass(frozen=True)
class Study:
    matrix: list        # EnergyLevel per grid, from solve_relativistic
    numerov: list       # EnergyLevel per grid, from numerov_shoot
    matrix_order: tuple[float, bool]
    numerov_order: tuple[float, bool]


def refinement_study(params: HylleraasParams, grids: list[oracle.RadialGrid]) -> Study:
    matrix, numerov = [], []
    for grid in grids:
        level = oracle.solve_relativistic(params, 0, grid)
        matrix.append(level)
        numerov.append(oracle.numerov_shoot(params, 0, grid,
                                            (level.E - REFINEMENT_HALFWIDTH,
                                             level.E + REFINEMENT_HALFWIDTH)))
    hs = [g.h for g in grids]
    k = NUMEROV_ORDER_GRIDS
    return Study(matrix, numerov, rootfind.estimate_order(hs, [l.E for l in matrix]),
                 rootfind.estimate_order(hs[:k], [l.E for l in numerov[:k]]))


def check_study(study: Study) -> list[str]:
    problems = []
    for label, levels in (("matrix", study.matrix), ("numerov", study.numerov)):
        for level, n in zip(levels, REFINEMENT_NS):
            bad = {"NoRoot", "NodeMismatch"} & set(level.flags)
            if not level.found or bad:
                problems.append(f"{label} N={n}: found={level.found} flags={sorted(bad)}")
    for label, (order, low), (want, tol) in (
            ("matrix", study.matrix_order, MATRIX_ORDER),
            ("numerov", study.numerov_order, NUMEROV_ORDER)):
        if low or not abs(order - want) <= tol:
            problems.append(f"{label} order {order!r} (low signal {low}), want {want}+-{tol}")
    gap = abs(study.matrix[-1].E - study.numerov[-1].E)
    if not gap <= FINEST_AGREEMENT:
        problems.append(f"finest-grid matrix/numerov gap {gap!r} > {FINEST_AGREEMENT}")
    return problems


class OracleRefinement:
    name = "oracle-refinement"

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def setup_code(self) -> str:
        return ("import hykg.oracle, hykg.rootfind\n"
                "from hykg.hylleraas import DEFAULT_PARAMS, SSign\n"
                "from hykg.oracle import RadialGrid\n"
                f"params = DEFAULT_PARAMS.replace(K=1.2, k1=1.0, k2=-0.5, omega=0.25, "
                f"D_e={refinement_d_e(self.seed, 0)!r}, s_sign=SSign.POSITIVE)\n"
                f"grids = [RadialGrid(r_min={REFINEMENT_R_MAX!r} / n, "
                f"r_max={REFINEMENT_R_MAX!r}, n=n) for n in {REFINEMENT_NS!r}]\n")

    def prepare(self, i: int) -> None:
        pass

    def execute(self, i: int, tracer) -> Study:
        return refinement_study(well_params(refinement_d_e(self.seed, i)),
                                refinement_grids())

    def check(self, i: int, study: Study) -> list[Op]:
        problems = check_study(study)
        return [Op("refinement-study", not problems, "; ".join(problems))]


WORKLOADS = {w.name: w for w in (DefaultPipeline, ClosedformSweep, OracleRefinement)}
