"""Independent extended-precision re-evaluation of the constant cascade.

This is a second, deliberately separate transcription of the printed formulas,
evaluated with 50-digit arithmetic.  It exists to pin expected values for the
float64 implementation; it must stay independent of src/hykg.
"""
import mpmath as mp

DPS = 50


def abc_hp(K, k1, k2):
    K, k1, k2 = mp.mpf(K), mp.mpf(k1), mp.mpf(k2)
    return ((K - k2) / (1 + k2),
            (K - k1 + k2) / (1 + k1 + k2),
            (K - k1) / (1 + k1))


def potential_hp(s, a, b, c, De):
    s, a, b, c, De = (mp.mpf(x) for x in (s, a, b, c, De))
    return De * (1 - (1 + a) * (1 + c) * (s + b) / ((s + a) * (s + c) * (1 + b)))


def constants_hp(K, k1, k2, omega, De, M, mu, E):
    """Main-chain constant cascade in extended precision, as a dict."""
    with mp.workdps(DPS):
        a, b, c = abc_hp(K, k1, k2)
        omega, De, M, mu, E = (mp.mpf(x) for x in (omega, De, M, mu, E))
        w2 = (1 + mp.mpf(K)) ** 2 * omega ** 2
        Ebar = E ** 2 - M ** 2
        Vbar = 2 * De * (E + M)
        eps2 = -2 * mu * (1 + b) * Ebar / w2
        betap2 = (1 + a) * (1 + c) * Vbar / w2
        gammap2 = (1 + b) * (1 + a) * (1 + c) * Vbar / w2
        beta2 = eps2 - betap2
        gamma2 = eps2 - gammap2
        alpha1 = 1 + b
        alpha2 = 2 * alpha1 * (a + c)
        alpha3 = 2 * a * c * alpha1
        xi1 = 2 * a * alpha1 ** 2 - betap2
        xi2 = a ** 2 * alpha1 ** 2 - gammap2
        Lam1 = alpha2 ** 2 - 8 * alpha1 * alpha3
        Lam2 = 2 * alpha1 * xi1 - 4 * alpha1 ** 2 * alpha3 - 8 * alpha1 * xi2
        Lam3 = 2 * alpha2 - 4 * alpha3 - 8 * alpha1
        Lam4 = xi1 ** 2 - 4 * alpha1 ** 2 * xi2
        delta2 = Lam3 ** 2 + 12 * Lam1
        A = (2 * Lam2 * alpha3 + 16 * Lam1 * alpha1 ** 2 + 16 * Lam1 * xi1) / delta2
        B = (Lam2 ** 2 - 4 * Lam1 * Lam4) / delta2
        return {
            "Ebar": Ebar, "Vbar": Vbar, "eps2": eps2,
            "betap2": betap2, "gammap2": gammap2,
            "beta2": beta2, "gamma2": gamma2,
            "alpha1": alpha1, "alpha2": alpha2, "alpha3": alpha3,
            "xi1": xi1, "xi2": xi2,
            "Lam1": Lam1, "Lam2": Lam2, "Lam3": Lam3, "Lam4": Lam4,
            "delta2": delta2,
            "A": A, "B": B,
            "U2": delta2 * (eps2 + A) ** 2, "V2": A ** 2 - B,
        }


def appendix_forms_hp(K, k1, k2, omega, De, M, E):
    """Explicit appendix expansions in extended precision."""
    with mp.workdps(DPS):
        a, b, c = abc_hp(K, k1, k2)
        omega, De, M, E = (mp.mpf(x) for x in (omega, De, M, E))
        w2 = (1 + mp.mpf(K)) ** 2 * omega ** 2
        Vbar = 2 * De * (E + M)
        vw = Vbar / w2
        dbr = a ** 2 - a ** 2 * c - 8 * a * c - a + 4 - a * c ** 2 - c + c ** 2
        den = 1024 * (1 + b) ** 2 * dbr ** 2
        p1 = (16 * a ** 3 + 12 * a ** 2 * c - a ** 2 * c ** 2 - 63 * a ** 2 * c
              + 8 * a ** 2 - 12 * a * c + 16 * a * c ** 2 + 8 * c ** 2)
        p2 = 16 * a ** 2 + 4 * b * c - a * c ** 2 - 64 * a * c + 16 * c ** 2
        p3 = 2 * a ** 2 * b + 2 * b * c ** 2 - 28 * a * b * c + 4 * a * b - 3 * a
        p4 = 16 * b ** 2 - 4 * a ** 2 * c ** 2 - 56 * a * c + a - 24 * b
        return {
            "Lam1_a5": 4 * (1 + b) ** 2 * (a ** 2 - 14 * a * c + c ** 2),
            "Lam2_a6": (4 * a * (1 + b) ** 3 * (2 * a - c + 1)
                        - 2 * (1 + a) * (1 + b) * (1 + c) * (4 * b - 3) * vw),
            "Lam3_a7": 4 * (1 + b) * (a + c - 2 * a * c - 2),
            "Lam4_a8": (1 + a) * (1 + c) * vw * (b * (1 + b) ** 2 + (1 + a) * (1 + c) * vw),
            "delta_a9": 64 * (1 + b) ** 2 * (a * (1 - c) - a * (8 * c + 1)
                                             + c ** 2 * (1 - a) + a + 4),
            "xi1_a10": 2 * a * (1 + b) ** 2 - (1 + a) * (1 + c) * vw,
            "xi2_a11": a ** 2 * (1 + b) ** 2 - (1 + b) * (1 + a) * (1 + c) * vw,
            "gammap2_a12": (1 + b) * (1 + a) * (1 + c) * vw,
            "A_a13": 2 * (1 + b) ** 2 * p1 * ((1 + a) * (1 + c) / w2) * p2 * Vbar / den,
            "B_a14": (a * (1 + b) ** 4 * (2 * a - c + 1)
                      - 2 * (1 + b) ** 2 * (1 + c) * vw * p3
                      + ((1 + a) * (1 + c) * vw) ** 2 * p4) / den,
        }


def jacobi_series_hp(n, alpha, beta, x):
    """Jacobi polynomial from its terminating series; entire in (alpha, beta).

    P_n(x) = sum_k [prod_{j=1..n-k}(alpha+k+j)/(n-k)!] *
             [prod_{j=0..k-1}(n+beta-j)/k!] * ((x-1)/2)^k ((x+1)/2)^(n-k)
    """
    with mp.workdps(DPS):
        alpha, beta, x = mp.mpf(alpha), mp.mpf(beta), mp.mpf(x)
        total = mp.mpf(0)
        for k in range(n + 1):
            t1 = mp.mpf(1)
            for j in range(1, n - k + 1):
                t1 *= (alpha + k + j)
            t1 /= mp.factorial(n - k)
            t2 = mp.mpf(1)
            for j in range(k):
                t2 *= (n + beta - j)
            t2 /= mp.factorial(k)
            total += t1 * t2 * ((x - 1) / 2) ** k * ((x + 1) / 2) ** (n - k)
        return total
