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

def _fixture_box_matrix() -> float:
    from .oracle import box_grid, eigen_tridiagonal

    grid = box_grid(20.0, 2000)
    vals = eigen_tridiagonal(np.zeros(grid.n), grid, 3)
    return max(abs(v - (i * math.pi / 20.0) ** 2) / (i * math.pi / 20.0) ** 2
               for i, v in enumerate(vals, start=1))


def _fixture_box_numerov() -> float:
    from .oracle import box_grid, numerov_eigenvalue

    grid = box_grid(20.0, 800)
    exact = (2 * math.pi / 20.0) ** 2
    root, _ = numerov_eigenvalue(np.zeros(grid.n), grid,
                                 (0.98 * exact, 1.02 * exact), tol=1e-14)
    return abs(root - exact) / exact


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


def _fixture_jacobi() -> float:
    from .wavefunction import jacobi_P

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(0, 11))
        alpha, beta = rng.uniform(-0.9, 3.0, 2)
        x = rng.uniform(-1.0, 1.0)
        left = jacobi_P(n, alpha, beta, -x)
        right = (-1.0) ** n * jacobi_P(n, beta, alpha, x)
        worst = max(worst, abs(left - right) / max(1.0, abs(left), abs(right)))
        endpoint = 1.0
        for j in range(1, n + 1):
            endpoint *= (alpha + j)
        endpoint /= math.factorial(n)
        got = jacobi_P(n, alpha, beta, 1.0)
        worst = max(worst, abs(got - endpoint) / max(1.0, abs(endpoint)))
    return worst


FIXTURES = (
    ("box-matrix", _fixture_box_matrix, 1e-4),
    ("box-numerov", _fixture_box_numerov, 1e-6),
    ("oscillator-odd-states", _fixture_oscillator, 1e-4),
    ("nu-hydrogen-quantization", _fixture_nu_hydrogen, 1e-10),
    ("jacobi-identities", _fixture_jacobi, 1e-12),
)


def run_selftest() -> int:
    """Run the embedded fixtures; prints one line per fixture; 0 iff all pass."""
    failures = 0
    for name, fn, tol in FIXTURES:
        defect = fn()
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
