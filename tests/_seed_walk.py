"""The oracle's count-only reference: the seed walk with no n = 0 search,
every seed interval counted in turn up to the first where count <= n flips,
then halved on counts alone.

Its isolation bracket, halved until the counts at its ends differ by
exactly one, is the one that oracle.solve_relativistic's galloping search
and isolation must reach bit for bit.  Its crossing, that bracket halved on
to E_TOL_REL * M, is the pure count crossing: the level that a
certification fallback reports, and the one a certified level must lie
within E_TOL_REL * M of.
"""
from hykg.hylleraas import potential_V
from hykg.oracle import E_TOL_REL, SturmCounter, seed_energies


def _halve(count, n, left, lo, hi, tol, isolate):
    """Halve [lo, hi], keeping (count(lo) <= n) == left, to tol, or, with
    `isolate`, until the end counts differ by exactly one."""
    while hi - lo > tol and not (isolate and abs(count(hi) - count(lo)) == 1):
        mid = 0.5 * (lo + hi)
        if (count(mid) <= n) == left:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _isolated(params, n, grid):
    """(count, left, lo, hi): the first seed interval where count <= n
    flips, halved on counts until its end counts differ by exactly one or it
    is E_TOL_REL * M wide, with left = count(lo) <= n; or None."""
    M = params.M
    counter = SturmCounter(potential_V(grid.points, params), grid)

    def count(x):
        return counter.count(2.0 * (x + M), x * x - M * M)

    xs = seed_energies(M)
    for x0, x1 in zip(xs, xs[1:]):
        left = count(x0) <= n
        if left != (count(x1) <= n):
            return count, left, *_halve(count, n, left, x0, x1, E_TOL_REL * M, True)
    return None


def isolation_bracket(params, n, grid):
    """(lo, hi) of level n, halved on counts until its end counts differ by
    exactly one or it is E_TOL_REL * M wide; None when no interval flips."""
    isolated = _isolated(params, n, grid)
    return None if isolated is None else isolated[2:]


def count_crossing(params, n, grid):
    """(E, residual) of level n by count bisection alone to E_TOL_REL * M,
    or None when no seed interval flips."""
    isolated = _isolated(params, n, grid)
    if isolated is None:
        return None
    count, left, lo, hi = isolated
    lo, hi = _halve(count, n, left, lo, hi, E_TOL_REL * params.M, False)
    return 0.5 * (lo + hi), 0.5 * (hi - lo)
