"""Fixed-W solvers that no command needs, kept for the tests that use them.

numerov_eigenvalue is the Numerov solver on a given W: the Brent root of
the oracle's Numerov last minor in the eigenvalue, with the oracle's own
kernel and root finder.  schrodinger_limit is the fixed-mass Schroedinger
eigenvalue of the weak-coupling limit, by the oracle's count bisection of a
fixed W.
"""
from hykg.hylleraas import potential_V
from hykg.oracle import SturmCounter, _last_minor, _numerov_y, eigen_tridiagonal
from hykg.rootfind import brent


def numerov_eigenvalue(w_values, grid, bracket, tol=1e-12):
    """(eigenvalue, y on the rows that carry its nodes) of -u'' + W u = Ebar u
    inside `bracket` by the Numerov last minor's root, with coefficients
    (1, Ebar); brent's ValueError when the minor shows no sign change on the
    bracket."""
    lo, hi = bracket
    well = SturmCounter(w_values, grid)
    minor = _last_minor(well, lambda ebar: (1.0, ebar), lo, hi, numerov=True)
    root = brent(minor, lo, hi, minor(lo), minor(hi), tol * max(1.0, abs(lo), abs(hi)))
    minor(root)
    return root, _numerov_y(well, minor, 1.0, root)


def schrodinger_limit(params, n, grid):
    """(n+1)-th smallest eigenvalue of -(1/2) d^2/dr^2 + 2 V, unit-mass convention.

    -(1/2) u'' + 2 V u = lam u is -u'' + 4 V u = 2 lam u, the operator of
    eigen_tridiagonal with W = 4 V.
    """
    return 0.5 * float(eigen_tridiagonal(4.0 * potential_V(grid.points, params), grid,
                                         n + 1)[n])
