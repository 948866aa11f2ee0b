"""Bracketed root finding for scalar functions that may have exclusion zones.

Engines evaluate residual functions that are continuous where defined but can
return a marker object (anything non-float-like) inside degenerate regions.
A scan takes its seeds and the residual's values on them from the caller (an
engine evaluates them as one array expression on one seed array per call); a
non-finite seed value is a hole, and a sign change is only pursued between
two adjacent valid seeds.  Brent starts from the seed values at the
bracket's ends, which must therefore be the scalar residual's values there,
and calls the scalar residual at its trial points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


def _as_value(y) -> float | None:
    if isinstance(y, (int, float)) and math.isfinite(y):
        return float(y)
    return None


_BRENT_MAX_ITER = 200


def brent(f: Callable[[float], float], a: float, b: float, fa: float, fb: float,
          tol: float) -> float:
    """Classic Brent root refinement on a sign-change interval [a, b].

    `fa` and `fb` are f(a) and f(b), which the caller already holds; f is
    called only at the trial points inside the bracket.  Inverse quadratic
    interpolation and secant steps safeguarded by bisection: R. P. Brent,
    "Algorithms for Minimization without Derivatives" (Prentice-Hall, 1973),
    ch. 4.  Raises ValueError when fa and fb have the same sign.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0 and fb > 0) or (fa < 0 and fb < 0):
        raise ValueError("no sign change on the bracket")
    c, fc = a, fa
    d = e = b - a
    eps = 2.220446049250313e-16
    for _ in range(_BRENT_MAX_ITER):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        t = 2.0 * eps * abs(b) + tol
        m = 0.5 * (c - b)
        if abs(m) <= t or fb == 0.0:
            return b
        if abs(e) < t or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            else:
                p = -p
            s, e = e, d
            if 2.0 * p < 3.0 * m * q - abs(t * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                d = e = m
        a, fa = b, fb
        if abs(d) > t:
            b += d
        else:
            b += math.copysign(t, m)
        fb = f(b)
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
    return b


@dataclass(frozen=True)
class ScanResult:
    roots: list[float]               # in seed order
    rejected: list[float]            # refined crossings `accept` turned down


def seed_grid(lo: float, hi: float, n_brackets: int) -> np.ndarray:
    """The scan's seeds lo + (hi - lo) i / n_brackets, i = 0..n_brackets."""
    return lo + (hi - lo) * np.arange(n_brackets + 1) / n_brackets


def scan_roots(f: Callable[[float], object], xs: np.ndarray, ys: np.ndarray,
               tol_x: float, accept: Callable[[float], bool] | None = None) -> ScanResult:
    """Refine each sign change of f between consecutive seeds xs.

    `ys` holds f on `xs`; a non-finite value marks a seed where f is
    undefined; a finite value must be f's own value at its seed, since Brent
    starts from it.  `f` is called only by Brent, never at a seed, and may
    return non-float markers (see the gap rule below).
    `accept(root)`, asked once per refined root, can reject roots whose
    residual did not collapse (jump discontinuities masquerading as
    crossings).  A root taken at a seed where f is exactly 0 is not refined
    and not asked about.  Brackets are disjoint and visited in seed order,
    so the roots come out ascending for ascending seeds; every refined
    crossing is reported, however close to another.
    """
    ys = np.asarray(ys, dtype=float)
    if ys.shape != np.shape(xs):
        raise ValueError(f"seed values of shape {ys.shape} for seeds of shape {np.shape(xs)}")
    valid = np.isfinite(ys)
    # compare signs, not products: a product of two tiny values underflows to 0
    signs = np.sign(ys)
    bracketed = valid[:-1] & valid[1:] & ((ys[:-1] == 0.0) | (signs[:-1] * signs[1:] < 0))

    roots: list[float] = []
    rejected: list[float] = []
    for i in np.flatnonzero(bracketed).tolist():
        y0 = float(ys[i])
        if y0 == 0.0:
            roots.append(float(xs[i]))
            continue

        def fv(x):
            v = _as_value(f(x))
            # a gap point inside a refined bracket is vanishingly rare; it
            # takes the sign of the bracket's left seed value y0, whichever
            # endpoint is nearer, so that Brent always gets a number
            return v if v is not None else math.copysign(1e300, y0)

        root = brent(fv, float(xs[i]), float(xs[i + 1]), y0, float(ys[i + 1]), tol_x)
        if accept is not None and not accept(root):
            rejected.append(root)
            continue
        roots.append(root)
    if ys[-1] == 0.0:
        roots.append(float(xs[-1]))
    return ScanResult(roots, rejected)


def estimate_order(hs: Sequence[float], values: Sequence[float]) -> tuple[float, bool]:
    """Least-squares slope of log|E(h) - E(h/2)| against log h.

    Consecutive entries must correspond to a halving of h.  Returns
    (slope, low_signal): low_signal is set when the differences sit at the
    rounding floor and the regression is not meaningful.
    """
    if len(hs) < 3 or len(hs) != len(values):
        raise ValueError("need >= 3 grids in geometric progression")
    diffs = [abs(values[i] - values[i + 1]) for i in range(len(values) - 1)]
    scale = max(abs(v) for v in values) or 1.0
    low_signal = any(d < 1e-13 * scale for d in diffs)
    pts = [(math.log(hs[i]), math.log(max(d, 1e-300))) for i, d in enumerate(diffs)]
    n = len(pts)
    sx = sum(p[0] for p in pts)
    sy = sum(p[1] for p in pts)
    sxx = sum(p[0] * p[0] for p in pts)
    sxy = sum(p[0] * p[1] for p in pts)
    denom = n * sxx - sx * sx
    if denom == 0:
        return 0.0, True
    return (n * sxy - sx * sy) / denom, low_signal
