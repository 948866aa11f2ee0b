"""LAPACK stebz eigenvalues and stein eigenvectors of the oracle's three-point operator.

-d^2/dr^2 + W on a grid of spacing h is the tridiagonal matrix with diagonal
2/h^2 + W and off-diagonal -1/h^2.  scipy's stebz bisection (Barth, Martin
and Wilkinson, Numer. Math. 9, 386 (1967)) on it is the reference the count
kernel's eigenvalues and counts are tested against, and stein's inverse
iteration from stebz's eigenvalue the reference for the oracle's
eigenvector; it shares no code with src/hykg.
"""
import math

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal


def tridiagonal(w, grid):
    """Diagonal and off-diagonal of -d^2/dr^2 + W on `grid`."""
    h2 = grid.h * grid.h
    return 2.0 / h2 + w, np.full(grid.n - 1, -1.0 / h2)


def stebz_eigenvalues(w, grid, m, first=0):
    """Eigenvalues first..m-1 (0-based, ascending) of -d^2/dr^2 + W."""
    diag, off = tridiagonal(w, grid)
    return eigvalsh_tridiagonal(diag, off, select="i", select_range=(first, m - 1),
                                lapack_driver="stebz")


def stein_eigenvector(w, grid, k):
    """Eigenvector k (0-based) of -d^2/dr^2 + W with unit quadrature norm,
    h sum v^2 = 1, and its first component above 1e-8 of the largest
    positive."""
    diag, off = tridiagonal(w, grid)
    _, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(k, k),
                               lapack_driver="stebz")
    v = vecs[:, 0] / math.sqrt(float(np.sum(vecs[:, 0] ** 2)) * grid.h)
    first = np.argmax(np.abs(v) > 1e-8 * np.max(np.abs(v)))
    return v if v[first] > 0 else -v
