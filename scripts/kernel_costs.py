#!/usr/bin/env python3
"""Microseconds per Sturm count and per Numerov defect on three grids.

For each grid size N it solves the n = 0 oracle level once, then times

  * count: the whole count bisection of that level on a fresh
    `SeedCounts` (grid set-up excluded), divided by the number of counts;
  * defect: one `numerov_defect` at the level's energy.

Each figure is the best of --repeat timed rounds.  The three cases are the
default grid (`configs/default.cfg`'s parameters, r_max 40), the localized
b < 0 well at D_e = 5000 on the r_max = 10 grids of the benchmark's
oracle-refinement workload, and the c = 0 config whose W reaches ~1e26 at
the far wall.  Run it from the repository root:

    python scripts/kernel_costs.py [--n 1000 4000 16000] [--repeat 7]
"""
import argparse
import sys
import time
import timeit
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hykg import oracle  # noqa: E402
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


def costs(params, grid, repeat):
    """(counts per level, us per count, us per defect) of the n = 0 level."""
    M = params.M
    probe = oracle.SeedCounts(params, grid)
    E = oracle.solve_relativistic(params, 0, grid, probe).E
    n_counts = len(probe._memo)

    def level():
        seeds = oracle.SeedCounts(params, grid)
        t0 = time.perf_counter()
        oracle.solve_relativistic(params, 0, grid, seeds)
        return time.perf_counter() - t0

    per_count = min(level() for _ in range(repeat)) / n_counts
    if E is None:
        return n_counts, per_count, None
    q = 2.0 * (E + M) * potential_V(grid.points, params) - (E * E - M * M)
    per_defect = min(timeit.repeat(lambda: oracle.numerov_defect(q, grid.h),
                                   number=1, repeat=repeat))
    return n_counts, per_count, per_defect


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[1000, 2000, 4000, 8000, 16000])
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore", oracle.GridHeuristicWarning)
    print(f"{'case':16s} {'N':>6s} {'counts':>6s} {'us/count':>9s} {'us/defect':>10s}")
    for name, params, grid_of in CASES:
        for n in args.n:
            n_counts, per_count, per_defect = costs(params, grid_of(n), args.repeat)
            defect = "-" if per_defect is None else f"{per_defect * 1e6:.1f}"
            print(f"{name:16s} {n:6d} {n_counts:6d} {per_count * 1e6:9.1f} {defect:>10s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
