"""The oracle's seed walk with no n = 0 search: every seed interval is
counted in turn up to the first where count <= n flips, which is then
bisected.  It is the reference that oracle.solve_relativistic's galloping
n = 0 search must match bit for bit.
"""
from hykg.hylleraas import potential_V
from hykg.oracle import E_TOL_REL, SturmCounter, seed_energies


def reference_level(params, n, grid):
    """(E, residual) of level n by the linear walk, or None when no seed
    interval flips."""
    M = params.M
    counter = SturmCounter(potential_V(grid.points, params), grid)

    def below(x):
        return counter.count(2.0 * (x + M), x * x - M * M) <= n

    xs = seed_energies(M)
    for x0, x1 in zip(xs, xs[1:]):
        left = below(x0)
        if left == below(x1):
            continue
        lo, hi = x0, x1
        while hi - lo > E_TOL_REL * M:
            mid = 0.5 * (lo + hi)
            if below(mid) == left:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi), 0.5 * (hi - lo)
    return None
