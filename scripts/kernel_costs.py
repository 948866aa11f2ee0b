#!/usr/bin/env python3
"""Microseconds per Sturm count, Numerov defect, fixed-W eigenvalue and closed form.

For each grid size N it solves the n = 0 oracle level once, then times

  * count: the whole solve of that level on a fresh `energy_counts` memo
    (grid set-up excluded), divided by the number of counts, which is the
    memo's size after the solve; the table splits them into the seed
    search's (`walk`, the memo's size when `_bisect` starts) and the
    bisection's (`bisect`);
  * defect: one `numerov_defect` at the level's energy, called as
    `numerov_shoot` calls it, on one `SturmCounter` of the grid's V; the
    table prints beside it the number of band solves it makes (`solves`,
    one per pass unless a pass rescales), its matching index m and the row
    its inward pass starts at.

The three cases are the default grid (`configs/default.cfg`'s parameters,
r_max 40), the localized b < 0 well at D_e = 5000 on the r_max = 10 grids of
the benchmark's oracle-refinement workload, and the c = 0 config whose W
reaches ~1e26 at the far wall.  A second table gives one `eigen_tridiagonal`
call for the three lowest eigenvalues on the selftest's box (N = 2000) and
on -d^2/dr^2 + 4 V (`schrodinger_limit`'s operator) on the default grid at
N = 4000: the Sturm counts it makes, and its time divided by three.  A
third table times the three closed-form engines at `configs/default.cfg`'s
parameters: one scalar residual evaluation (`mechanical_residual`,
`implicit_residual`, `eq45_rhs`) at n = 1, averaged over 99 energies spread
across |E| < M, and one engine call for n = 0..1
(`energy_*_result(params, (0, 1))`).  Each figure is the best of --repeat
timed rounds.  Run it from the repository root:

    python scripts/kernel_costs.py [--n 1000 4000 16000] [--repeat 7]
"""
import argparse
import sys
import time
import timeit
import warnings
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from hykg import closedform, oracle  # noqa: E402
from hykg.config import load_config  # noqa: E402
from hykg.hylleraas import DEFAULT_PARAMS, SSign, potential_V  # noqa: E402

WELL = DEFAULT_PARAMS.replace(K=1.2, k1=1.0, k2=-0.5, omega=0.25, D_e=5000.0,
                              s_sign=SSign.POSITIVE)
HUGE_W = DEFAULT_PARAMS.replace(K=0.5, k1=0.5, k2=1.0, omega=1.0, D_e=1.0,
                                s_sign=SSign.NEGATIVE)
CASES = (
    ("default grid", DEFAULT_PARAMS, lambda n: oracle.default_grid(DEFAULT_PARAMS, n)),
    ("well D_e=5000", WELL, lambda n: oracle.RadialGrid(r_min=10.0 / n, r_max=10.0, n=n)),
    ("huge W (c = 0)", HUGE_W, lambda n: oracle.default_grid(HUGE_W, n)),
)
# eigen_tridiagonal's cases: the selftest's box and schrodinger_limit's 4 V
BOX = oracle.box_grid(20.0, 2000)
DEFAULT_4000 = oracle.default_grid(DEFAULT_PARAMS, 4000)
EIGEN_CASES = (
    ("selftest box", BOX, np.zeros(BOX.n)),
    ("4V default grid", DEFAULT_4000, 4.0 * potential_V(DEFAULT_4000.points, DEFAULT_PARAMS)),
)

# the closed-form engines' cases: (name, scalar residual, engine call)
CLOSED_FORMS = (
    ("mechanical", closedform.mechanical_residual, closedform.energy_mechanical_result),
    ("implicit", closedform.implicit_residual, closedform.energy_implicit_result),
    ("eq45", closedform.eq45_rhs, closedform.energy_eq45_result),
)


def band_solves(call):
    """The number of oracle._band_solve calls that call() makes."""
    with mock.patch.object(oracle, "_band_solve", wraps=oracle._band_solve) as solve:
        call()
    return solve.call_count


def sturm_counts(call):
    """The number of oracle.SturmCounter.count calls that call() makes."""
    with mock.patch.object(oracle.SturmCounter, "count", autospec=True,
                           side_effect=oracle.SturmCounter.count) as count:
        call()
    return count.call_count


def costs(params, grid, repeat):
    """((walk, bisect) counts of the level, us per count, (us per defect,
    band solves per defect, m, inward start) or None) of the n = 0 level."""
    M = params.M
    probe = oracle.energy_counts(params, grid)
    walked = []
    bisect = oracle._bisect

    def recorded_bisect(*args):
        walked.append(probe.cache_info().currsize)
        return bisect(*args)

    with mock.patch.object(oracle, "_bisect", recorded_bisect):
        E = oracle.solve_relativistic(params, 0, grid, probe).E
    n_counts = probe.cache_info().currsize
    walk = walked[0] if walked else n_counts

    def level():
        counts = oracle.energy_counts(params, grid)
        t0 = time.perf_counter()
        oracle.solve_relativistic(params, 0, grid, counts)
        return time.perf_counter() - t0

    per_count = min(level() for _ in range(repeat)) / n_counts
    split = (walk, n_counts - walk)
    if E is None:
        return split, per_count, None
    well = oracle.SturmCounter(potential_V(grid.points, params), grid)
    c, sigma = 2.0 * (E + M), E * E - M * M
    m, rows = oracle._numerov_rows(well, c, sigma)

    def defect():
        return oracle.numerov_defect(well, c, sigma)

    per_defect = min(timeit.repeat(defect, number=1, repeat=repeat))
    return split, per_count, (per_defect, band_solves(defect), m, len(rows) - 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[1000, 2000, 4000, 8000, 16000])
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore", oracle.GridHeuristicWarning)
    print(f"{'case':16s} {'N':>6s} {'walk':>6s} {'bisect':>6s} {'us/count':>9s} "
          f"{'us/defect':>10s} {'solves':>6s} {'m':>6s} {'start':>6s}")
    for name, params, grid_of in CASES:
        for n in args.n:
            (walk, bisect), per_count, defect = costs(params, grid_of(n), args.repeat)
            per_defect, solves, m, start = ("-",) * 4 if defect is None else (
                f"{defect[0] * 1e6:.1f}", *map(str, defect[1:]))
            print(f"{name:16s} {n:6d} {walk:6d} {bisect:6d} {per_count * 1e6:9.1f} "
                  f"{per_defect:>10s} {solves:>6s} {m:>6s} {start:>6s}")
    print()
    print(f"{'eigen_tridiagonal':18s} {'N':>6s} {'counts':>6s} {'us/eigenvalue':>14s}")
    for name, grid, w in EIGEN_CASES:
        n_counts = sturm_counts(lambda: oracle.eigen_tridiagonal(w, grid, 3))
        per_value = min(timeit.repeat(lambda: oracle.eigen_tridiagonal(w, grid, 3),
                                      number=1, repeat=args.repeat)) / 3
        print(f"{name:18s} {grid.n:6d} {n_counts:6d} {per_value * 1e6:14.1f}")
    print()
    params = load_config(ROOT / "configs" / "default.cfg").params
    energies = (params.M * np.linspace(-0.98, 0.98, 99)).tolist()
    print(f"{'closed form':12s} {'us/residual':>12s} {'us/call':>10s}")
    for name, residual, engine in CLOSED_FORMS:
        per_residual = min(timeit.repeat(lambda: [residual(params, E, 1) for E in energies],
                                         number=1, repeat=args.repeat)) / len(energies)
        per_call = min(timeit.repeat(lambda: engine(params, (0, 1)),
                                     number=1, repeat=args.repeat))
        print(f"{name:12s} {per_residual * 1e6:12.1f} {per_call * 1e6:10.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
