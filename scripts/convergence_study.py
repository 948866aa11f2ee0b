#!/usr/bin/env python3
"""Grid self-convergence of the two oracle discretizations.

Two cases are contrasted:
  * a shape with b < 0 (k2 = -0.5) digs a genuine interior well; its
    localized ground state shows the stencil orders ~2 (matrix) and ~4
    (Numerov);
  * the default plateau well does hold bound states, at E = -2.63606175456
    (n = 0) and -3.86413410413 (n = 1), but both lie below -M, outside the
    (-M, M) window the oracle scans.  The level it finds there is a box
    state of the far wall, which moves with h (the wall sits at r_max + h),
    so both methods drift at first order -- itself a finding worth seeing.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import warnings  # noqa: E402

from hykg.hylleraas import DEFAULT_PARAMS, SSign  # noqa: E402
from hykg.oracle import (  # noqa: E402
    GridHeuristicWarning,
    RadialGrid,
    default_grid,
    numerov_shoot,
    solve_relativistic,
)
from hykg.rootfind import estimate_order  # noqa: E402


def study(name, params, grids, bracket_halfwidth):
    print(f"\n== {name}")
    matrix, numerov = [], []
    for grid in grids:
        lvl = solve_relativistic(params, 0, grid)
        matrix.append(lvl.E)
        shot = numerov_shoot(params, 0, grid,
                             (lvl.E - bracket_halfwidth, lvl.E + bracket_halfwidth))
        numerov.append(shot.E)
        print(f"N={grid.n:5d} h={grid.h:.5f}  E0_matrix={lvl.E:.12f}  "
              f"E0_numerov={shot.E:.12f}")
    hs = [g.h for g in grids]
    for label, es in (("matrix", matrix), ("numerov", numerov)):
        slope, low = estimate_order(hs, es)
        tag = " (low signal)" if low else ""
        print(f"{label:8s} self-convergence order: {slope:.2f}{tag}")


def run():
    warnings.simplefilter("ignore", GridHeuristicWarning)
    well = DEFAULT_PARAMS.replace(K=1.2, k1=1.0, k2=-0.5, D_e=1000.0,
                                  s_sign=SSign.POSITIVE)
    study("localized interior well (b < 0)", well,
          [RadialGrid(r_min=10.0 / n, r_max=10.0, n=n)
           for n in (1000, 2000, 4000, 8000)], 0.05)
    study("default plateau well (wall-dominated)", DEFAULT_PARAMS,
          [default_grid(DEFAULT_PARAMS, n=n) for n in (500, 1000, 2000, 4000)],
          0.005)


if __name__ == "__main__":
    run()
