"""The matrix oracle and the Numerov shooter against the exact levels of
the k2 = 0 slice (`_exact`).

The operator is checked, not `solve_relativistic`'s search window: each
level is the root of g_n(E) = Ebar_n(E) - (E^2 - M^2) on a bracket around
the exact energy, and must converge at the three-point stencil's order 2.
`numerov_shoot` on the same brackets, clipped to the window of bound
states, must converge at Numerov's order 4.
"""
import math
from functools import cache

import numpy as np
import pytest

from hykg.hylleraas import HylleraasParams, SSign, potential_V
from hykg.oracle import RadialGrid, eigen_tridiagonal, numerov_shoot
from hykg.rootfind import brent

from _exact import exact_levels, window

# K = 2, k1 = 1, k2 = 0, omega = 0.25, M = 1, at each D_e and s_sign; k1
# does not enter the exact levels
SLICE = dict(K=2.0, omega=0.25, M=1.0)
EXPECTED = {
    (5.0, "negative"): (-3.13542028521466, -3.98871002601087),
    (3.0, "positive"): (3.98905584246971, 5.59630661721617,
                        6.52169491790665, 6.96075963510172),
}
# the N = 8000 error bound per s_sign (measured 5.3e-6 and 1.8e-6 for
# `negative`, 1.5e-5 and 3.8e-5 for `positive`)
ERROR_BOUND = {"negative": 1e-5, "positive": 1e-4}
R_MAX = 40.0
NS = (1000, 2000, 4000, 8000)
BRACKET = 0.02


@cache
def _exact(D_e, s_sign):
    return tuple(float(E) for E in exact_levels(D_e=D_e, s_sign=s_sign, **SLICE))


@pytest.mark.parametrize("D_e, s_sign", list(EXPECTED))
def test_exact_levels_match_reference(D_e, s_sign):
    levels = _exact(D_e, s_sign)
    assert len(levels) == len(EXPECTED[D_e, s_sign])
    for E, ref in zip(levels, EXPECTED[D_e, s_sign]):
        assert abs(E - ref) <= 1e-12


def _oracle_level(params, n, grid, E_exact):
    """Root of g_n on E_exact +/- BRACKET."""
    v = potential_V(grid.points, params)
    M = params.M

    def g(E):
        w = 2.0 * (E + M) * v
        return float(eigen_tridiagonal(w, grid, n + 1)[n]) - (E * E - M * M)

    lo, hi = E_exact - BRACKET, E_exact + BRACKET
    return brent(g, lo, hi, g(lo), g(hi), 1e-13)


@pytest.mark.parametrize("D_e, s_sign, n", [(5.0, "negative", 0), (5.0, "negative", 1),
                                            (3.0, "positive", 0), (3.0, "positive", 1)])
def test_oracle_converges_at_order_two(D_e, s_sign, n):
    params = HylleraasParams(k1=1.0, k2=0.0, D_e=D_e, mu=1.0, s_sign=SSign(s_sign), **SLICE)
    E_exact = _exact(D_e, s_sign)[n]
    grids = [RadialGrid(R_MAX / N, R_MAX, N) for N in NS]
    errors = [abs(_oracle_level(params, n, grid, E_exact) - E_exact) for grid in grids]
    slope = np.polyfit([math.log(g.h) for g in grids], [math.log(e) for e in errors], 1)[0]
    assert abs(slope - 2.0) <= 0.1, (slope, errors)
    assert errors[-1] <= ERROR_BOUND[s_sign], errors


# numerov_shoot's N = 8000 errors are 3.4e-11 to 8.7e-10, except where the
# r_max = 40 cutoff bounds them: `negative` n = 1 stays at 3.9e-8 from
# N = 2000 on, so it has no order to fit
NUMEROV_FLOOR = {("negative", 1): 5e-8}
NUMEROV_BOUND = 1e-9


@pytest.mark.parametrize("D_e, s_sign, n", [(5.0, "negative", 0), (5.0, "negative", 1),
                                            (3.0, "positive", 0), (3.0, "positive", 1)])
def test_numerov_converges_at_order_four(D_e, s_sign, n):
    params = HylleraasParams(k1=1.0, k2=0.0, D_e=D_e, mu=1.0, s_sign=SSign(s_sign), **SLICE)
    E_exact = _exact(D_e, s_sign)[n]
    lo, hi = (float(E) for E in window(SLICE["K"], D_e, SLICE["M"], s_sign))
    bracket = (max(E_exact - BRACKET, lo), min(E_exact + BRACKET, hi))
    grids = [RadialGrid(R_MAX / N, R_MAX, N) for N in NS]
    levels = [numerov_shoot(params, n, grid, bracket) for grid in grids]
    assert all(level.found and not level.flags for level in levels)
    errors = [abs(level.E - E_exact) for level in levels]
    floor = NUMEROV_FLOOR.get((s_sign, n))
    if floor is not None:
        assert max(errors) <= floor, errors
        return
    slope = np.polyfit([math.log(g.h) for g in grids], [math.log(e) for e in errors], 1)[0]
    assert abs(slope - 4.0) <= 0.2, (slope, errors)
    assert errors[-1] <= NUMEROV_BOUND, errors
