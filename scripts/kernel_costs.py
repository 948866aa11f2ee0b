#!/usr/bin/env python3
"""Microseconds per Sturm count, Numerov defect, eigenvector and closed form; ms per selftest fixture.

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
reaches ~1e26 at the far wall.  A second table times each fixture of
`hykg selftest` (`hykg.cli.FIXTURES`), one row per fixture, in
milliseconds.  A third times one `eigenvector_tridiagonal` at the default
grid's n = 0 and n = 1 levels (N = 4000, W = 2 (E + M) V,
sigma = E^2 - M^2) beside scipy's `eigh_tridiagonal` for the same
eigenvector of the same operator, and gives max|d|, the largest |difference|
of the two vectors, each of unit quadrature norm with its first significant
component positive.  A fourth table times the three closed-form engines at
`configs/default.cfg`'s parameters: one scalar residual evaluation (`mechanical_residual`,
`implicit_residual`, `eq45_rhs`) at n = 1, averaged over 99 energies spread
across |E| < M, and one engine call for n = 0..1
(`energy_*_result(params, (0, 1))`).  A fifth table gives the start-up
costs that no benchmark iteration sees, each in a fresh interpreter, since
this script imports scipy itself: the wall time and peak resident set
growth of the first `oracle.dtbsv` call, which loads BLAS's compiled
wrapper, and the wall time of a whole `hykg spectrum` process on
`configs/default.cfg`.  Each figure is the best of --repeat timed rounds.
Run it from the repository root:

    python scripts/kernel_costs.py [--n 1000 4000 16000] [--repeat 7]
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
import timeit
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
from scipy.linalg import eigh_tridiagonal

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from hykg import cli, closedform, oracle  # noqa: E402
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
DEFAULT_4000 = oracle.default_grid(DEFAULT_PARAMS, 4000)

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


def eigenvector_costs(n, repeat):
    """(us per sweep, us per eigh_tridiagonal, max |sweep - eigh_tridiagonal|)
    for the level n eigenvector on DEFAULT_4000."""
    E = oracle.solve_relativistic(DEFAULT_PARAMS, n, DEFAULT_4000).E
    w = oracle.effective_potential(DEFAULT_PARAMS, E, DEFAULT_4000)
    sigma = E * E - DEFAULT_PARAMS.M ** 2
    h2 = DEFAULT_4000.h ** 2
    diag, off = 2.0 / h2 + w, np.full(DEFAULT_4000.n - 1, -1.0 / h2)

    def sweep():
        return oracle.eigenvector_tridiagonal(w, DEFAULT_4000, sigma)

    def lapack():
        return eigh_tridiagonal(diag, off, select="i", select_range=(n, n))

    # eigh_tridiagonal's vector in the sweep's normalization and sign
    ref = lapack()[1][:, 0]
    ref = ref / np.sqrt(np.sum(ref ** 2) * DEFAULT_4000.h)
    if ref[np.argmax(np.abs(ref) > 1e-8 * np.max(np.abs(ref)))] < 0:
        ref = -ref
    per_sweep = min(timeit.repeat(sweep, number=1, repeat=repeat))
    per_eigh = min(timeit.repeat(lapack, number=1, repeat=repeat))
    return per_sweep * 1e6, per_eigh * 1e6, float(np.max(np.abs(sweep() - ref)))


# run in a fresh interpreter: the first dtbsv call's wall time and the growth
# of the process's peak resident set, as JSON [s, kB].  The peak is VmHWM,
# not ru_maxrss: on Linux a child's ru_maxrss starts at the peak of the
# process that spawned it, here one that has imported scipy, which hides
# any smaller growth.
FIRST_DTBSV = """
import json, time
import numpy as np
from hykg import oracle

def peak_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

band, x = np.ones((3, 8)), np.ones(8)
peak = peak_kb()
t0 = time.perf_counter()
oracle.dtbsv(2, band, x, lower=1, diag=1)
elapsed = time.perf_counter() - t0
print(json.dumps([elapsed, peak_kb() - peak]))
"""
SPECTRUM = "import sys; from hykg.cli import main; sys.exit(main(sys.argv[1:]))"


def startup_costs(repeat):
    """((s, MB) of the first oracle.dtbsv call, s of a fresh hykg spectrum
    process on configs/default.cfg), each the best of `repeat` subprocesses."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    first = min(tuple(json.loads(subprocess.run(
        [sys.executable, "-c", FIRST_DTBSV], env=env, capture_output=True, text=True,
        check=True).stdout)) for _ in range(repeat))
    spectrum = []
    with tempfile.TemporaryDirectory() as out:
        for _ in range(repeat):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", SPECTRUM, "spectrum", "--config",
                            str(ROOT / "configs" / "default.cfg"), "--out", out],
                           env=env, capture_output=True, check=True)
            spectrum.append(time.perf_counter() - t0)
    return (first[0], first[1] / 1024), min(spectrum)


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
    print(f"{'selftest fixture':26s} {'ms':>8s}")
    for name, fixture, _ in cli.FIXTURES:
        ms = min(timeit.repeat(fixture, number=1, repeat=args.repeat)) * 1e3
        print(f"{name:26s} {ms:8.2f}")
    print()
    print(f"{'eigenvector':16s} {'N':>6s} {'us/sweep':>9s} {'us/eigh':>9s} {'max|d|':>8s}")
    for n in (0, 1):
        per_sweep, per_eigh, diff = eigenvector_costs(n, args.repeat)
        print(f"{f'default grid n={n}':16s} {DEFAULT_4000.n:6d} {per_sweep:9.1f} "
              f"{per_eigh:9.1f} {diff:8.1e}")
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
    print()
    (first_s, first_mb), spectrum_s = startup_costs(args.repeat)
    print(f"{'start-up':22s} {'ms':>8s} {'+MB':>6s}")
    print(f"{'first dtbsv call':22s} {first_s * 1e3:8.1f} {first_mb:6.1f}")
    print(f"{'hykg spectrum process':22s} {spectrum_s * 1e3:8.1f} {'-':>6s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
