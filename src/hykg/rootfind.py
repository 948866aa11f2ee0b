"""Bracketed root finding for scalar functions that may have exclusion zones.

Engines evaluate residual functions that are continuous where defined but can
return a marker object (anything non-float-like) inside degenerate regions.
The scanner treats marked points as holes: a sign change is only pursued
between two adjacent valid samples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence


def _as_value(y) -> float | None:
    if isinstance(y, (int, float)) and math.isfinite(y):
        return float(y)
    return None


def brent(f: Callable[[float], float], a: float, b: float, tol: float,
          max_iter: int = 200) -> float:
    """Classic Brent root refinement on a sign-change interval [a, b].

    Inverse quadratic interpolation and secant steps safeguarded by
    bisection: R. P. Brent, "Algorithms for Minimization without
    Derivatives" (Prentice-Hall, 1973), ch. 4.  Raises ValueError when
    f(a) and f(b) have the same sign.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise ValueError("no sign change on the bracket")
    c, fc = a, fa
    d = e = b - a
    eps = 2.220446049250313e-16
    for _ in range(max_iter):
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
    roots: list[float]
    merged_duplicates: list[float]   # roots dropped by the dedup tolerance
    rejected: list[float]            # crossings whose refined residual stayed large
    had_gaps: bool                   # some sample points were exclusion zones


def scan_roots(f: Callable[[float], object], lo: float, hi: float,
               n_brackets: int, tol_x: float,
               dedup: float = 0.0,
               residual_ok: Callable[[float, float], bool] | None = None) -> ScanResult:
    """Scan [lo, hi] with n_brackets subintervals; refine each sign change.

    `f` may return non-float markers; those samples are skipped.  `residual_ok`
    (root, f(root)) can reject refined roots whose residual did not collapse
    (jump discontinuities masquerading as crossings).
    """
    xs = [lo + (hi - lo) * i / n_brackets for i in range(n_brackets + 1)]
    ys = [_as_value(f(x)) for x in xs]
    had_gaps = any(y is None for y in ys)
    if all(y is None for y in ys):
        return ScanResult([], [], [], had_gaps)

    roots: list[float] = []
    rejected: list[float] = []
    for i in range(n_brackets):
        y0, y1 = ys[i], ys[i + 1]
        if y0 is None or y1 is None:
            continue
        if y0 == 0.0:
            roots.append(xs[i])
            continue
        if y0 * y1 >= 0:
            continue

        def fv(x):
            v = _as_value(f(x))
            # inside a refined bracket a gap point is vanishingly rare; treat
            # it as the nearer endpoint's sign to keep bisection moving
            return v if v is not None else math.copysign(1e300, y0)

        root = brent(fv, xs[i], xs[i + 1], tol_x)
        fr = _as_value(f(root))
        if residual_ok is not None and (fr is None or not residual_ok(root, fr)):
            rejected.append(root)
            continue
        roots.append(root)
    if ys[-1] == 0.0:
        roots.append(xs[-1])

    roots.sort()
    merged: list[float] = []
    if dedup > 0 and roots:
        kept = [roots[0]]
        for r in roots[1:]:
            if abs(r - kept[-1]) <= dedup:
                merged.append(r)
            else:
                kept.append(r)
        roots = kept
    return ScanResult(roots, merged, rejected, had_gaps)


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
