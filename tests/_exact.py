"""Exact s-wave levels on the k2 = 0 slice of the Hylleraas-type well.

With k2 = 0 the shape constants satisfy b = c, and the potential collapses to
V = D_e (s - 1) / (s + a).  For `negative` (s = exp(-lam r), lam = 2 (1+K) w)
the radial equation -u'' + [2 (E+M) V - Ebar] u = 0 has regular singular
points at s = 0, -a and infinity only, and its solution regular at r -> inf is

    u = s^p 2F1(p + sig, p - sig; 1 + 2p; -s/a),
    g = 2 (E + M) D_e,  p = sqrt(-g/a - Ebar) / lam,  sig = sqrt(g - Ebar) / lam.

r = 0 is s = 1, so u(0) = 0 is the transcendental condition

    2F1(p + sig, p - sig; 1 + 2p; -1/a) = 0.

`positive` (s = exp(+lam r)) is the same problem in t = 1/s with
(D_e, a) -> (-D_e/a, 1/a).  Bound states need p > 0, which puts them strictly
between -M and M + 2 V_inf, with V_inf = -D_e/a (`negative`) or D_e
(`positive`).

Independent of src/hykg on purpose: it is the reference the oracle is
checked against.  Evaluated with mpmath at DPS digits.
"""
import mpmath as mp

DPS = 30


def _slice(K, D_e, s_sign):
    """(D_e, a) of the equivalent `negative` problem on the k2 = 0 slice;
    k1 enters only through b = c, which cancels from V."""
    a = mp.mpf(K)  # a = (K - k2) / (1 + k2) at k2 = 0
    D_e = mp.mpf(D_e)
    if s_sign == "negative":
        return D_e, a
    if s_sign == "positive":
        return -D_e / a, 1 / a
    raise ValueError(f"unknown s_sign {s_sign!r}")


def window(K, D_e, M, s_sign):
    """(lo, hi): the open energy interval that holds every bound state."""
    with mp.workdps(DPS):
        v_inf = -mp.mpf(D_e) / mp.mpf(K) if s_sign == "negative" else mp.mpf(D_e)
        ends = sorted((-mp.mpf(M), mp.mpf(M) + 2 * v_inf))
    return ends[0], ends[1]


def quantization(E, K, omega, D_e, M, s_sign):
    """2F1(p + sig, p - sig; 1 + 2p; -1/a) at energy E; zero at a bound state."""
    with mp.workdps(DPS):
        D_e, a = _slice(K, D_e, s_sign)
        E, M = mp.mpf(E), mp.mpf(M)
        lam = 2 * (1 + mp.mpf(K)) * mp.mpf(omega)
        g = 2 * (E + M) * D_e
        ebar = E * E - M * M
        p = mp.sqrt(-g / a - ebar) / lam
        sig = mp.sqrt(g - ebar) / lam
        return mp.re(mp.hyp2f1(p + sig, p - sig, 1 + 2 * p, -1 / a))


def exact_levels(K, omega, D_e, M, s_sign, samples=400):
    """Every level in the window, ordered by level index: a sign scan of
    `quantization` on `samples` interior points, then one bracketed
    `mp.findroot` per sign change."""
    lo, hi = window(K, D_e, M, s_sign)
    with mp.workdps(DPS):
        xs = [lo + (hi - lo) * (i + 1) / (samples + 1) for i in range(samples)]
        qs = [quantization(x, K, omega, D_e, M, s_sign) for x in xs]
        roots = [mp.findroot(lambda E: quantization(E, K, omega, D_e, M, s_sign),
                             (xs[i], xs[i + 1]), solver="anderson")
                 for i in range(samples - 1) if qs[i] * qs[i + 1] < 0]
    # the deepest level is n = 0: the lowest E for `positive`, the highest
    # for `negative`, whose levels fall as n grows
    return roots[::-1] if s_sign == "negative" else roots
