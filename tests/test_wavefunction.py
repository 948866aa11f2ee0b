import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hykg.closedform import intermediates
from hykg.errors import DegenerateAC, DomainError, NotRepresentable, TailNotConverged
from hykg import wavefunction
from hykg.hylleraas import (
    DEFAULT_PARAMS,
    HylleraasParams,
    SSign,
    appendix_constants,
    s_of_r,
)
from hykg.oracle import RadialGrid, count_sign_changes
from hykg.wavefunction import (
    ConfluentFactor,
    NonClassicalWarning,
    build_radial,
    composite_simpson,
    confluent_chi_coeffs,
    confluent_radial_factor,
    exponents_DF,
    jacobi_P,
    jacobi_series,
    normalize,
    radial_R,
    rodrigues_chi,
)

from _highprec import jacobi_series_hp


REPRESENTABLE = HylleraasParams(K=2.0, k1=1.0, k2=0.5, omega=0.25, D_e=0.5,
                                M=1.0, mu=1.0, s_sign=SSign.NEGATIVE)
REPRESENTABLE_E = -0.5


class TestJacobi:
    def test_p0_is_one(self):
        for args in ((0.5, -0.3, 0.2), (2.0, 3.0, -0.9)):
            assert jacobi_P(0, *args) == 1.0

    def test_p1_legendre(self):
        for x in (-0.7, 0.0, 0.4):
            assert jacobi_P(1, 0.0, 0.0, x) == pytest.approx(x, rel=1e-15)

    def test_against_series_oracle(self):
        got = jacobi_P(3, 0.5, -0.3, 0.2)
        want = float(jacobi_series_hp(3, 0.5, -0.3, 0.2))
        assert got == pytest.approx(want, rel=1e-13)

    @given(n=st.integers(0, 10),
           alpha=st.floats(-0.9, 3.0), beta=st.floats(-0.9, 3.0),
           x=st.floats(-1.0, 1.0))
    @settings(max_examples=200)
    def test_symmetry(self, n, alpha, beta, x):
        left = jacobi_P(n, alpha, beta, -x)
        right = (-1.0) ** n * jacobi_P(n, beta, alpha, x)
        scale = max(1.0, abs(left), abs(right))
        assert abs(left - right) <= 1e-12 * scale

    @given(n=st.integers(0, 10), alpha=st.floats(-0.9, 3.0), beta=st.floats(-0.9, 3.0))
    @settings(max_examples=200)
    def test_endpoint(self, n, alpha, beta):
        want = 1.0
        for j in range(1, n + 1):
            want *= (alpha + j)
        want /= math.factorial(n)
        got = jacobi_P(n, alpha, beta, 1.0)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_matches_series_everywhere(self, rng):
        for _ in range(50):
            n = int(rng.integers(0, 9))
            alpha, beta = rng.uniform(-0.9, 3.0, 2)
            x = rng.uniform(-1, 1)
            assert jacobi_P(n, alpha, beta, x) == pytest.approx(
                jacobi_series(n, alpha, beta, x), rel=1e-11, abs=1e-11)

    def test_nonclassical_warns(self):
        with pytest.warns(NonClassicalWarning):
            jacobi_P(2, -1.5, 0.0, 0.3)


class TestRodrigues:
    def test_n0_is_one(self):
        s = np.array([0.5, 1.0, 3.0])
        assert np.array_equal(rodrigues_chi(0, 0.7, -0.2, 0.3, 1.1, s), np.ones(3))

    def test_n1_product_rule(self):
        D, F, a, c = 0.7, -0.2, 0.3, 1.1
        s = np.array([0.5, 2.0])
        want = (1 + D) * (s + c) + (1 + F) * (s + a)
        assert rodrigues_chi(1, D, F, a, c, s) == pytest.approx(want, rel=1e-14)

    def test_n4_against_finite_differences(self):
        D, F, a, c, s = 0.55, -0.35, 0.4, 1.3, 1.7

        def inner(t):
            return (t + a) ** (4 + D) * (t + c) ** (4 + F)

        # central 4th-derivative stencil on offsets -4..4, weights solved from
        # the moment conditions sum w_k k^m = 4! delta_{m,4}, m = 0..8
        offsets = np.arange(-4, 5)
        vander = np.vander(offsets, 9, increasing=True).T.astype(float)
        rhs = np.zeros(9)
        rhs[4] = math.factorial(4)
        weights = np.linalg.solve(vander, rhs)
        h = 0.05
        d4 = sum(w * inner(s + k * h) for k, w in zip(offsets, weights)) / h ** 4
        want = (s + a) ** (-D) * (s + c) ** (-F) * d4
        got = rodrigues_chi(4, D, F, a, c, np.array([s]))
        assert got == pytest.approx([want], rel=1e-6)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            rodrigues_chi(1, 0.5, 0.5, -2.0, 1.0, np.array([0.5]))

    def test_order_cap(self):
        with pytest.raises(ValueError):
            rodrigues_chi(13, 0.0, 0.0, 1.0, 2.0, np.array([1.0]))

    def test_hypergeometric_ode(self):
        # chi_n solves sigma y'' + tau y' + lambda_n y = 0 with
        # sigma = (s+a)(s+c) and tau = sigma' + D (s+c) + F (s+a).
        D, F, a, c, n = 0.7, -0.2, 0.3, 1.1, 3
        lam_n = -n * (2 + D + F) - n * (n - 1)
        s, h = np.array([0.6, 1.2, 2.5]), 1e-4
        y0 = rodrigues_chi(n, D, F, a, c, s)
        yp = (rodrigues_chi(n, D, F, a, c, s + h)
              - rodrigues_chi(n, D, F, a, c, s - h)) / (2 * h)
        ypp = (rodrigues_chi(n, D, F, a, c, s + h) - 2 * y0
               + rodrigues_chi(n, D, F, a, c, s - h)) / h ** 2
        sigma = (s + a) * (s + c)
        tau = (2 * s + a + c) + D * (s + c) + F * (s + a)
        resid = sigma * ypp + tau * yp + lam_n * y0
        assert np.all(np.abs(resid) <= 1e-5 * np.maximum(1.0, np.abs(lam_n * y0)))

    def test_affine_map_matches_jacobi(self):
        # Under x = (2s + a + c)/(c - a), chi_n is proportional to
        # P_n^(D,F)(x); the constant depends on n only.
        D, F, a, c = 0.7, -0.2, 0.3, 1.1
        for n in range(6):
            ratios = []
            ss = np.linspace(0.2, 4.0, 20)
            for s, ch in zip(ss, rodrigues_chi(n, D, F, a, c, ss)):
                x = (2 * s + a + c) / (c - a)
                pj = jacobi_P(n, D, F, x)
                if abs(pj) > 1e-9:
                    ratios.append(ch / pj)
            assert len(ratios) >= 15
            mid = np.median(ratios)
            for ratio in ratios:
                assert ratio == pytest.approx(mid, rel=1e-8)


class TestConfluent:
    def test_chi_coeffs_n1(self):
        u, v = 0.4, 1.3
        assert confluent_chi_coeffs(1, u, v) == pytest.approx([v, 2.0 + u])

    def test_chi_matches_finite_difference(self):
        # chi_n = (s+a)^-u e^{v/(s+a)} d^n/ds^n [(s+a)^{2n+u} e^{-v/(s+a)}]
        u, v, a, n = 0.3, 0.8, 0.5, 3
        coeffs = confluent_chi_coeffs(n, u, v)

        def inner(t):
            return (t + a) ** (2 * n + u) * math.exp(-v / (t + a))

        s = 1.4
        h = 4e-3
        stencil = [(-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)]
        d3 = sum(cf * inner(s + k * h) for k, cf in stencil) / h ** 3
        want = (s + a) ** (-u) * math.exp(v / (s + a)) * d3
        got = sum(g * (s + a) ** j for j, g in enumerate(coeffs))
        assert got == pytest.approx(want, rel=1e-5)

    def test_confluent_solves_hypergeometric_ode(self, default_params):
        from hykg.closedform import build_nu_input
        from hykg.nu import quantization

        inp = build_nu_input(default_params, -0.5)
        for n in (0, 1, 2):
            sol, lam_n, _, _ = quantization(inp, n)
            fac = confluent_radial_factor(inp, sol, n)
            coeffs = fac.chi_coeffs

            def chi(s):
                return sum(g * (s + fac.a) ** j for j, g in enumerate(coeffs))

            for s in (0.3, 0.7, 1.0):
                h = 1e-5
                y0, yp = chi(s), (chi(s + h) - chi(s - h)) / (2 * h)
                ypp = (chi(s + h) - 2 * y0 + chi(s - h)) / h ** 2
                resid = inp.sigma(s) * ypp + sol.tau(s) * yp + lam_n * y0
                scale = max(1.0, abs(inp.sigma(s) * ypp), abs(lam_n * y0))
                assert abs(resid) <= 1e-4 * scale

    def test_closure_gap_not_representable(self):
        # D_e = 0: a = c, and the NU closure gaps with ImperfectSquare
        p = DEFAULT_PARAMS.replace(D_e=0.0)
        with pytest.raises(NotRepresentable, match="ImperfectSquare"):
            radial_R(p, 0.5, 0, np.array([1.0]))


class TestExponents:
    def test_degenerate_ac(self, default_params):
        with pytest.raises(DegenerateAC):
            exponents_DF(default_params, -0.5, 0)

    def test_not_representable_when_v2_negative(self, asymmetric_params):
        with pytest.raises(NotRepresentable):
            exponents_DF(asymmetric_params, 0.5, 0)

    def test_representable_point(self):
        exponents = exponents_DF(REPRESENTABLE, REPRESENTABLE_E, 0)
        assert list(exponents) == ["printed", "symmetric"]
        assert all(math.isfinite(x) for pair in exponents.values() for x in pair)
        im = intermediates(REPRESENTABLE, REPRESENTABLE_E, 0)
        assert im.muJ.real > 0 and im.nuJ.real > 0

    def test_mu_equals_nu_where_v2_vanishes(self):
        # bisect the sign change of V2 = A^2 - B; at that energy the inner
        # radical vanishes and muJ -> nuJ.
        p = HylleraasParams(K=2.0, k1=1.0, k2=0.5, omega=0.25, D_e=3.0,
                            M=1.0, s_sign=SSign.NEGATIVE)
        lo, hi = -0.97902, -0.978021
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if appendix_constants(p, lo).V2 * appendix_constants(p, mid).V2 <= 0:
                hi = mid
            else:
                lo = mid
        E = 0.5 * (lo + hi)
        side = lo if appendix_constants(p, lo).V2 >= 0 else hi
        im = intermediates(p, side, 0)
        assert im.muJ.real == pytest.approx(im.nuJ.real, rel=1e-5)
        # the exponents read that muJ: symmetric D + F = -muJ / (2 alpha1)
        D, F = exponents_DF(p, side, 0)["symmetric"]
        assert D + F == pytest.approx(-im.muJ.real / (2.0 * (1 + p.abc.b)), rel=1e-12)

    def test_two_readings_differ(self):
        exponents = exponents_DF(REPRESENTABLE, REPRESENTABLE_E, 0)
        (printed_D, printed_F), (symmetric_D, symmetric_F) = (
            exponents["printed"], exponents["symmetric"])
        assert printed_F == symmetric_F
        assert printed_D != symmetric_D


class TestNormalize:
    # the grid starts at the physical origin: the left tail check is vacuous
    GRID = np.linspace(0.0, 12.0, 2001)
    GAUSSIAN = np.exp(-GRID ** 2 / 2.0)

    def test_gaussian_against_analytic(self):
        # integral of exp(-r^2) over (0, inf) is sqrt(pi)/2
        # the grid ends at r = 12, and erf(12) = 1 in double precision
        want = (math.pi / 4.0) ** (-0.25)
        assert normalize(self.GRID, self.GAUSSIAN) == pytest.approx(want, rel=1e-8)

    def test_idempotent(self):
        values = self.GAUSSIAN * normalize(self.GRID, self.GAUSSIAN)
        again = normalize(self.GRID, values)
        h = float(self.GRID[1] - self.GRID[0])
        assert composite_simpson((values * again) ** 2, h) == pytest.approx(1.0, abs=1e-10)
        assert again == pytest.approx(1.0, abs=1e-10)

    def test_scaling_linearity(self):
        n1 = normalize(self.GRID, self.GAUSSIAN)
        n7 = normalize(self.GRID, 7.0 * self.GAUSSIAN)
        assert n7 == pytest.approx(n1 / 7.0, rel=1e-12)

    def test_tail_not_converged(self):
        with pytest.raises(TailNotConverged):
            normalize(np.linspace(0.1, 5.0, 500), np.ones(500))

    def test_norm_integral_within_tolerance(self):
        values = self.GAUSSIAN * normalize(self.GRID, self.GAUSSIAN)
        h = float(self.GRID[1] - self.GRID[0])
        assert abs(composite_simpson(values ** 2, h) - 1.0) <= 1e-6


class TestCountNodes:
    def test_positive(self):
        assert count_sign_changes(np.ones(100)) == 0

    def test_sine(self):
        grid = np.linspace(0, 1, 400)[1:-1]
        assert count_sign_changes(np.sin(3 * math.pi * grid)) == 2

    def test_oracle_node_theorem(self, default_params):
        from hykg.oracle import default_grid, oracle_eigenvector, solve_relativistic

        grid = default_grid(default_params, n=1200)
        for n in range(6):
            lvl = solve_relativistic(default_params, n, grid)
            assert lvl.found
            vec = oracle_eigenvector(default_params, lvl.E, grid)
            assert count_sign_changes(vec) == n


class TestRadialAssembly:
    def test_pointwise_matches_formula(self):
        D, F = exponents_DF(REPRESENTABLE, REPRESENTABLE_E, 0)["printed"]
        abc = REPRESENTABLE.abc

        r = np.array([1.3])
        [s] = s_of_r(r, REPRESENTABLE.K, REPRESENTABLE.omega, REPRESENTABLE.s_sign)
        want = (s + abc.a) ** (D / 2) * (s + abc.c) ** (F / 2)
        got = radial_R(REPRESENTABLE, REPRESENTABLE_E, 0, r)["printed/D_on_a"]
        assert got[0] == pytest.approx(want, rel=1e-12)

    def test_r_zero_value(self):
        D, F = exponents_DF(REPRESENTABLE, REPRESENTABLE_E, 0)["printed"]
        abc = REPRESENTABLE.abc
        want = (1 + abc.a) ** (D / 2) * (1 + abc.c) ** (F / 2)
        got = radial_R(REPRESENTABLE, REPRESENTABLE_E, 0, np.array([0.0]))["printed/D_on_a"]
        assert got[0] == pytest.approx(want, rel=1e-12)

    def test_orderings_differ(self):
        forms = radial_R(REPRESENTABLE, REPRESENTABLE_E, 0, np.array([1.0]))
        assert forms["printed/D_on_a"][0] != forms["printed/F_on_a"][0]

    def test_build_radial_confluent_at_defaults(self, default_params):
        from hykg.oracle import default_grid

        grid = default_grid(default_params, n=800)
        [rad] = build_radial(default_params, -0.93, 0, grid)
        assert rad.representation == "confluent-mechanical"
        assert np.all(np.isfinite(rad.values))

    def test_build_radial_flags_tail(self, default_params):
        # the confluent closed form tends to a constant at infinity here:
        # normalization must fail loudly but not crash the build
        from hykg.oracle import default_grid

        grid = default_grid(default_params, n=800)
        [rad] = build_radial(default_params, -0.93, 0, grid)
        assert (rad.norm_constant is None) == ("TailNotConverged" in rad.flags)

    def test_build_radial_returns_every_form_in_order(self):
        grid = RadialGrid(r_min=0.05, r_max=30.0, n=400)
        forms = build_radial(REPRESENTABLE, REPRESENTABLE_E, 1, grid)
        assert [f.representation for f in forms] == [
            "printed/D_on_a", "printed/F_on_a", "symmetric/D_on_a", "symmetric/F_on_a"]
        for rad in forms:
            assert rad.node_count == count_sign_changes(rad.values)
            assert (rad.norm_constant is None) == ("TailNotConverged" in rad.flags)
            assert "ConfluentForm" not in rad.flags


def _printed_R_pointwise(params, E, n, r, reading, ordering):
    """The printed R(r) of level n at energy E at one radius in plain math:
    Leibniz chi_n times the two powers, with the exponents placed by
    `ordering`."""
    D, F = exponents_DF(params, E, n)[reading]
    e_a, e_c = (D, F) if ordering == "D_on_a" else (F, D)
    a, c = params.abc.a, params.abc.c
    [s] = s_of_r(np.array([r]), params.K, params.omega, params.s_sign)
    chi = sum(math.comb(n, k) * math.prod(n + D - j for j in range(k))
              * math.prod(n + F - j for j in range(n - k))
              * (s + a) ** (n - k) * (s + c) ** k for k in range(n + 1))
    return (s + a) ** (e_a / 2.0) * (s + c) ** (e_c / 2.0) * chi


def _counting(monkeypatch, name):
    calls = []
    real = getattr(wavefunction, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(wavefunction, name, counted)
    return calls


class TestArraySampler:
    RADII = np.array([0.0, 0.3, 1.3, 2.7, 5.0, 9.5])

    def test_one_exponent_derivation_per_printed_build(self, monkeypatch):
        calls = _counting(monkeypatch, "exponents_DF")
        grid = RadialGrid(r_min=0.05, r_max=30.0, n=400)
        build_radial(REPRESENTABLE, REPRESENTABLE_E, 1, grid)
        assert len(calls) == 1

    def test_one_s_of_r_and_intermediates_call_for_all_four_forms(self, monkeypatch):
        s_calls = _counting(monkeypatch, "s_of_r")
        im_calls = _counting(monkeypatch, "intermediates")
        grid = RadialGrid(r_min=0.05, r_max=30.0, n=400)
        forms = build_radial(REPRESENTABLE, REPRESENTABLE_E, 1, grid)
        assert len(forms) == 4
        assert (len(s_calls), len(im_calls)) == (1, 1)

    def test_one_confluent_derivation_per_build(self, default_params, monkeypatch):
        from hykg.oracle import default_grid

        calls = _counting(monkeypatch, "_confluent_for")
        [rad] = build_radial(default_params, -0.93, 0,
                             default_grid(default_params, n=800))
        assert rad.representation == "confluent-mechanical"
        assert len(calls) == 1

    @pytest.mark.parametrize("confluent", [True, False])
    def test_one_s_of_r_call_per_sample(self, confluent, default_params, monkeypatch):
        params, E = (default_params, -0.93) if confluent else (REPRESENTABLE, REPRESENTABLE_E)
        calls = _counting(monkeypatch, "s_of_r")
        forms = radial_R(params, E, 1, self.RADII)
        assert len(forms) == (1 if confluent else 4)
        for values in forms.values():
            assert values.shape == self.RADII.shape
        assert len(calls) == 1

    @pytest.mark.parametrize("reading", ["printed", "symmetric"])
    @pytest.mark.parametrize("ordering", ["D_on_a", "F_on_a"])
    def test_array_matches_pointwise_formula(self, reading, ordering):
        got = radial_R(REPRESENTABLE, REPRESENTABLE_E, 2, self.RADII)[f"{reading}/{ordering}"]
        assert isinstance(got, np.ndarray) and got.shape == self.RADII.shape
        want = [_printed_R_pointwise(REPRESENTABLE, REPRESENTABLE_E, 2, float(r), reading,
                                     ordering)
                for r in self.RADII]
        assert got == pytest.approx(want, rel=1e-13)

    def test_negative_radicand_not_representable(self, asymmetric_params):
        with pytest.raises(NotRepresentable):
            radial_R(asymmetric_params, 0.5, 0, self.RADII)

    def test_non_positive_base_is_domain_error_without_warnings(self):
        # a = -1/3 < 0: s + a <= 0 once s = exp(-r) <= 1/3, i.e. r >= ln 3
        params = HylleraasParams(K=1.0, k1=0.2, k2=2.0, omega=0.25, D_e=0.5,
                                 M=1.0, s_sign=SSign.NEGATIVE)
        assert params.abc.a < 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                radial_R(params, -0.5, 1, self.RADII)
