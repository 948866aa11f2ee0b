"""Fixed-W solvers that no command needs, kept for the tests that use them.

numerov_eigenvalue is the Numerov matching solver on a given W: the Brent
root of the oracle's matching defect in the eigenvalue, with the oracle's
own defect and root finder.  schrodinger_limit is the fixed-mass
Schroedinger eigenvalue of the weak-coupling limit, by the oracle's count
bisection of a fixed W.
"""
from hykg.hylleraas import potential_V
from hykg.oracle import SturmCounter, _numerov_root, eigen_tridiagonal


def numerov_eigenvalue(w_values, grid, bracket, tol=1e-12):
    """(eigenvalue, assembled solution) of -u'' + W u = Ebar u inside
    `bracket` by the matching defect's root; brent's ValueError when the
    defect shows no sign change on the bracket."""
    lo, hi = bracket
    root, _, assembled = _numerov_root(SturmCounter(w_values, grid),
                                       lambda ebar: (1.0, ebar), lo, hi,
                                       tol * max(1.0, abs(lo), abs(hi)))
    return root, assembled


def schrodinger_limit(params, n, grid):
    """(n+1)-th smallest eigenvalue of -(1/2) d^2/dr^2 + 2 V, unit-mass convention.

    -(1/2) u'' + 2 V u = lam u is -u'' + 4 V u = 2 lam u, the operator of
    eigen_tridiagonal with W = 4 V.
    """
    return 0.5 * float(eigen_tridiagonal(4.0 * potential_V(grid.points, params), grid,
                                         n + 1)[n])
