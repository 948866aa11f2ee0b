"""Per-eigenvalue count bisection with no memo: each eigenvalue is bisected
from the Gershgorin interval on fresh Sturm counts, so the counts of the
eigenvalues before it are made again.  It is the reference that
oracle.eigen_tridiagonal's shared count memo must match bit for bit.
"""
import numpy as np

from hykg.oracle import SturmCounter


def reference_eigenvalues(w, grid, m):
    """The m lowest eigenvalues of -d^2/dr^2 + W, one bisection loop each."""
    counter = SturmCounter(w, grid)
    bottom = float(np.min(w))
    top = float(np.max(w)) + 4.0 / grid.h ** 2
    tol = np.finfo(float).eps * max(abs(bottom), abs(top))
    vals = np.empty(m)
    for k in range(m):
        lo, hi = bottom, top
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if counter.count(1.0, mid) > k:
                hi = mid
            else:
                lo = mid
        vals[k] = 0.5 * (lo + hi)
    return vals
