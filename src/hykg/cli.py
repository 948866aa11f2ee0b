"""Batch front end: spectra, wavefunctions, audits and parameter sweeps.

Exit codes: 0 success, 1 selftest or unexpected failure, 2 configuration
error, 3 I/O error, 4 requested level missing.  All numeric text is emitted
at full round-trip precision and every file is staged to a temporary name
and atomically renamed.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import traceback
from pathlib import Path
from typing import Callable

import numpy as np

from .audit import ENGINES, ode_residual, run_audit
from .config import N_MAX, RunConfig, load_config, params_dict
from .errors import ConfigError, HykgError, MissingLevel
from .levels import PREFERENCE, Engine, EnergyLevel, fmt_cell
# solve_relativistic stays in this namespace: bench/tests checks that the
# tracer wraps it here too
from .oracle import RadialGrid, oracle_eigenvector, solve_relativistic  # noqa: F401
from .wavefunction import build_radial

SPECTRUM_HEADER = "n,engine,E,Ebar,residual,flags"


def atomic_write(path: Path, text: str) -> None:
    """Write `text` to a fresh sibling temp file, then rename it onto `path`.

    The temp file is created with mode 0o666 less the umask, as a plain
    open() would, since the rename keeps its mode.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"{path.name}.tmp{os.urandom(8).hex()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def compute_levels(config: RunConfig) -> list[EnergyLevel]:
    """All found levels for the selected engines, n = 0..n_max."""
    grid = config.grid()
    ns = range(config.n_max + 1)
    levels: list[EnergyLevel] = []
    for engine in config.engines:
        for found in ENGINES[engine](config.params, ns, grid).values():
            levels.extend(found)
    return levels


def spectrum_rows(config: RunConfig) -> list[str]:
    order = {e: i for i, e in enumerate(Engine)}
    levels = sorted(compute_levels(config),
                    key=lambda l: (l.n, order[l.engine], l.E))
    return [",".join(fmt_cell(x) for x in (lvl.n, lvl.engine.value, lvl.E,
                                           lvl.Ebar, lvl.residual, lvl.flags))
            for lvl in levels]


def cmd_spectrum(config: RunConfig, out_dir: Path) -> None:
    rows = spectrum_rows(config)
    if "csv" in config.formats:
        atomic_write(out_dir / "spectrum.csv",
                     "\n".join([SPECTRUM_HEADER] + rows) + "\n")
    if "json" in config.formats:
        payload = {
            "params": params_dict(config.params),
            "levels": [dict(zip(SPECTRUM_HEADER.split(","), r.split(",")))
                       for r in rows],
        }
        atomic_write(out_dir / "spectrum.json",
                     json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _closed_form_level(config: RunConfig, n: int,
                       grid: RadialGrid) -> EnergyLevel | None:
    """The first closed form in preference order with a level n; each engine
    is solved only once the ones before it have none."""
    for engine in PREFERENCE:
        if engine is not Engine.ORACLE and engine in config.engines:
            found = ENGINES[engine](config.params, (n,), grid)[n]
            if found:
                return found[0]
    return None


def cmd_wavefunction(config: RunConfig, n: int, out_dir: Path) -> None:
    grid = config.grid()
    level = _closed_form_level(config, n, grid)
    if level is None:
        raise MissingLevel(f"no closed-form level n={n} for the selected engines")
    try:
        forms = build_radial(config.params, level.E, level.n, grid)
    except HykgError as exc:
        raise ConfigError(f"closed form n={n} cannot be sampled on the grid "
                          f"(r_max = {grid.r_max!r}): {exc}") from None
    radial = forms[0]

    oracle_col = [""] * grid.n
    overlap = None
    e_oracle = None
    if Engine.ORACLE in config.engines:
        found = ENGINES[Engine.ORACLE](config.params, (n,), grid)[n]
        if found:
            e_oracle = found[0].E
            vec = oracle_eigenvector(config.params, e_oracle, grid)
            oracle_col = [fmt_cell(float(v)) for v in vec]
            denom = (math.sqrt(float(np.sum(radial.values ** 2)))
                     * math.sqrt(float(np.sum(vec ** 2))))
            if denom > 0:
                overlap = abs(float(np.dot(radial.values, vec))) / denom

    lines = ["r,R_closed,R_oracle"]
    for r, value, oracle_cell in zip(grid.points, radial.values, oracle_col):
        lines.append(f"{fmt_cell(float(r))},{fmt_cell(float(value))},{oracle_cell}")
    atomic_write(out_dir / f"wf_n{n}.csv", "\n".join(lines) + "\n")

    ode_val, ode_form = ode_residual(config.params, level.E, grid, forms)
    sidecar = {
        "n": n,
        "closed_form_engine": level.engine.value,
        "E_closed": level.E,
        "E_oracle": e_oracle,
        "flags": sorted(radial.flags),
        "norm_constant": radial.norm_constant,
        "node_count": radial.node_count,
        "representation": radial.representation,
        "overlap_closed_oracle": overlap,
        "ode_residual_closedform": ode_val,
        "ode_form": ode_form,
    }
    atomic_write(out_dir / f"wf_n{n}.flags.json",
                 json.dumps(sidecar, sort_keys=True, indent=1) + "\n")


def cmd_audit(config: RunConfig, out_dir: Path) -> None:
    report = run_audit(config.params, config.n_max, grid=config.grid())
    if "json" in config.formats:
        atomic_write(out_dir / "audit.json", report.to_json())
    if "csv" in config.formats:
        atomic_write(out_dir / "audit.csv", report.to_csv())


# ---------------------------------------------------------------------------
# Embedded selftest fixtures
# ---------------------------------------------------------------------------

def _fixture_box_counts() -> float:
    """The number of wrong Sturm counts of the free box just below and just
    above its eigenvalues lambda_k = (4/h^2) sin^2(k pi / (2 (N + 1))),
    k = 1..49: k - 1 and k at lambda_k -/+ 2 eps / h^2, a count's own
    resolution in sigma."""
    from .oracle import SturmCounter, box_grid

    grid = box_grid(20.0, 2000)
    counter = SturmCounter(np.zeros(grid.n), grid)
    h2 = grid.h ** 2
    margin = 2.0 * np.finfo(float).eps / h2
    wrong = 0
    for k in range(1, 50):
        lam = 4.0 / h2 * math.sin(k * math.pi / (2 * (grid.n + 1))) ** 2
        wrong += counter.count(1.0, lam - margin) != k - 1
        wrong += counter.count(1.0, lam + margin) != k
    return float(wrong)


def _fixture_box_vector() -> float:
    """Largest deviation of the free box's eigenvectors k = 1..3 from the
    discrete sine sin(k pi j / (N + 1)) of unit quadrature norm."""
    from .oracle import box_grid, eigenvector_tridiagonal

    grid = box_grid(20.0, 2000)
    j = np.arange(1, grid.n + 1)
    worst = 0.0
    for k in (1, 2, 3):
        theta = k * math.pi / (grid.n + 1)
        lam = 4.0 / grid.h ** 2 * math.sin(theta / 2) ** 2
        sine = np.sin(theta * j) / math.sqrt(grid.h * (grid.n + 1) / 2)
        vec = eigenvector_tridiagonal(np.zeros(grid.n), grid, lam)
        worst = max(worst, float(np.max(np.abs(vec - sine))))
    return worst


def _fixture_oscillator() -> float:
    from .oracle import RadialGrid, eigen_tridiagonal

    grid = RadialGrid(r_min=12.0 / 2000, r_max=12.0, n=2000)
    vals = eigen_tridiagonal(grid.points ** 2, grid, 3)
    return max(abs(v - (4 * n + 3)) / (4 * n + 3) for n, v in enumerate(vals))


def _fixture_nu_hydrogen() -> float:
    from .nu import BranchGap, NUInput, Poly2, lambda_n_value, lenient_branch_array, quantization
    from .rootfind import scan_roots, seed_grid

    worst = 0.0
    beta = 2.0
    seeds = seed_grid(1e-4, beta, 1200)
    for l in (0, 2):
        def inp(eps):
            return NUInput(Poly2(0.0, 1.0, 0.0), Poly2(0.0, 0.0, 0.0),
                           Poly2(-l * (l + 1), beta, -eps * eps))

        # the seed values come from the closure's array twin, bit-identical
        # to the scalar f on every seed (NaN at the gaps); sigma'' = 0 here
        lam, tau_prime, _ = lenient_branch_array(inp(seeds))
        for n in (0, 2, 5):
            def f(eps):
                out = quantization(inp(eps), n)
                return out if isinstance(out, BranchGap) else out[0].lam - out[1]

            ys = lam - lambda_n_value(tau_prime, 0.0, n)
            res = scan_roots(f, seeds, ys, 1e-13)
            expected = beta / (2.0 * (n + l + 1))
            best = min((abs(r - expected) / expected for r in res.roots),
                       default=math.inf)
            worst = max(worst, best)
    return worst


def _fixture_radial_polynomials() -> float:
    """Relative deviation of radial_R's two polynomial factors from closed
    forms, over 200 seeded draws.

    The Rodrigues factor (a != c) is n! (c - a)^n P_n^(D,F)(x) with
    x = (2 s + a + c) / (c - a), by jacobi_P; the confluent one's
    coefficients (a = c) are C(n, k) (n + u + 1)_k v^(n - k), a generalized
    Bessel polynomial (Krall and Frink, Trans. AMS 65, 100 (1949)).
    """
    from .wavefunction import confluent_chi_coeffs, jacobi_P, rodrigues_chi

    rng = np.random.default_rng(7)
    draws = zip(rng.integers(0, 11, 200).tolist(), rng.uniform(-0.9, 3.0, (200, 3)).tolist(),
                rng.uniform(-1.0, 2.0, (200, 3)).tolist(), rng.uniform(0.05, 3.0, (200, 2)))
    worst = 0.0
    for n, (D, F, u), (a, c, v), step in draws:
        s = max(-a, -c) + step
        for got, si in zip(rodrigues_chi(n, D, F, a, c, s).tolist(), s.tolist()):
            want = (math.factorial(n) * (c - a) ** n
                    * jacobi_P(n, D, F, (2 * si + a + c) / (c - a)))
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        for k, got in enumerate(confluent_chi_coeffs(n, u, v)):
            want = math.comb(n, k) * math.prod(n + u + 1 + j for j in range(k)) * v ** (n - k)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    return worst


# Each fixture runs a kernel that spectrum, audit or wavefunction runs:
# the Sturm count, the eigenvector sweep, the count and _bisect on a fixed
# W, the NU quantization scan and radial_R's two polynomial factors.
FIXTURES = (
    ("box-counts", _fixture_box_counts, 0.0),
    ("box-vector", _fixture_box_vector, 1e-10),
    ("oscillator-odd-states", _fixture_oscillator, 1e-4),
    ("nu-hydrogen-quantization", _fixture_nu_hydrogen, 1e-10),
    ("radial-polynomials", _fixture_radial_polynomials, 1e-12),
)


def run_selftest() -> int:
    """Run the embedded fixtures; prints one line per fixture; 0 iff all
    pass.  A fixture that raises fails, with its traceback on stderr, and
    the rest still run."""
    failures = 0
    for name, fn, tol in FIXTURES:
        try:
            defect = fn()
        except Exception as exc:
            traceback.print_exc()
            failures += 1
            print(f"{name:28s} FAIL (raised {type(exc).__name__}: {exc})")
            continue
        ok = defect <= tol
        failures += 0 if ok else 1
        print(f"{name:28s} {'PASS' if ok else 'FAIL'} "
              f"(defect {defect:.1e}, tol {tol:.1e})")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _config_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None,
                   help="config file (key = value sections); defaults used if omitted")
    p.add_argument("--n-max", type=int, default=None, help="override [run] n_max")
    p.add_argument("--out", type=str, default="out", help="output directory")


def _wavefunction_arguments(p: argparse.ArgumentParser) -> None:
    _config_arguments(p)
    p.add_argument("--n", type=int, default=0, help="level index")


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The config file with --n-max applied."""
    config = load_config(args.config)
    if args.n_max is not None:
        if not 0 <= args.n_max <= N_MAX:
            raise ConfigError(f"--n-max must be in 0..{N_MAX}")
        config = dataclasses.replace(config, n_max=args.n_max)
    return config


def _each_point(worker) -> Callable[[argparse.Namespace], int]:
    """A command that runs `worker` on the config or, for a sweep, on each
    point in turn and then writes the sweep index."""
    def run(args: argparse.Namespace) -> int:
        config, out_dir = _run_config(args), Path(args.out)
        if config.sweep is None:
            worker(config, out_dir)
            return 0
        values = config.sweep.values()
        points = [config.with_param(config.sweep.parameter, v) for v in values]
        for i, cfg in enumerate(points):
            worker(cfg, out_dir / f"point_{i:03d}")
        index = {
            "parameter": config.sweep.parameter,
            "scale": config.sweep.scale,
            "points": [{"index": i, "value": v, "dir": f"point_{i:03d}"}
                       for i, v in enumerate(values)],
        }
        atomic_write(out_dir / "index.json",
                     json.dumps(index, sort_keys=True, indent=1) + "\n")
        return 0
    return run


def _wavefunction(args: argparse.Namespace) -> int:
    config = _run_config(args)
    if config.sweep is not None:
        raise ConfigError("wavefunction does not support sweeps")
    if not 0 <= args.n <= N_MAX:
        raise ConfigError(f"--n must be in 0..{N_MAX}")
    cmd_wavefunction(config, args.n, Path(args.out))
    return 0


# The one command table, in help order: name -> (adds the command's
# arguments to its subparser, runs it on the parsed arguments and returns
# the exit code).
COMMANDS: dict[str, tuple[Callable[[argparse.ArgumentParser], None],
                          Callable[[argparse.Namespace], int]]] = {
    "spectrum": (_config_arguments, _each_point(cmd_spectrum)),
    "audit": (_config_arguments, _each_point(cmd_audit)),
    "wavefunction": (_wavefunction_arguments, _wavefunction),
    "selftest": (lambda p: None, lambda args: run_selftest()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hykg",
        description="Relativistic bound states of a Hylleraas-type well: "
                    "closed-form engines, numerical oracle, consistency audit.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (add_arguments, _) in COMMANDS.items():
        add_arguments(sub.add_parser(name))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _, run = COMMANDS[args.command]
    try:
        return run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MissingLevel as exc:
        print(f"missing level: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
