import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hykg.errors import DegenerateParams, OutOfRange
from hykg.hylleraas import (
    DEFAULT_PARAMS,
    HylleraasParams,
    SSign,
    appendix_a_forms,
    appendix_constants,
    derive_abc,
    gamma2_printed,
    potential_V,
    potential_from_s,
    s_of_r,
)

from _highprec import appendix_forms_hp, constants_hp

# Parameter strategy: keeps shape parameters away from the singular denominators.
shape_floats = st.floats(min_value=-0.8, max_value=4.0, allow_nan=False)


def valid_shape(K, k1, k2):
    try:
        derive_abc(K, k1, k2)
        return True
    except DegenerateParams:
        return False


class TestDeriveAbc:
    def test_hand_value(self):
        abc = derive_abc(2.0, 1.0, 1.0)
        assert abc.a == pytest.approx(0.5, abs=0)
        assert abc.b == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert abc.c == pytest.approx(0.5, abs=0)

    @given(k1=shape_floats, k2=shape_floats)
    @settings(max_examples=100)
    def test_K_equals_k2_forces_a_zero(self, k1, k2):
        if not valid_shape(k2, k1, k2):
            return
        assert derive_abc(k2, k1, k2).a == 0.0

    @given(k1=shape_floats, k2=shape_floats)
    @settings(max_examples=100)
    def test_K_equals_k1_forces_c_zero(self, k1, k2):
        if not valid_shape(k1, k1, k2):
            return
        assert derive_abc(k1, k1, k2).c == 0.0

    def test_zero_denominator_raises(self):
        with pytest.raises(DegenerateParams):
            derive_abc(1.0, -1.0, 0.5)
        with pytest.raises(DegenerateParams):
            derive_abc(1.0, 0.5, -1.0)
        with pytest.raises(DegenerateParams):
            derive_abc(1.0, 0.5, -1.5)

    def test_singular_family_raises(self):
        # K, k2 chosen so a = -1: (K-k2)/(1+k2) = -1 -> K = -1.
        with pytest.raises(DegenerateParams):
            derive_abc(-1.0, 0.5, 0.0)


class TestSOfR:
    def test_r_zero(self):
        assert s_of_r(0.0, 1.0, 0.25, SSign.POSITIVE) == 1.0

    def test_log2_exponent(self):
        # 2(1+K) w = 1 at K=1, w=0.25, so s(ln 2) = 2.
        assert s_of_r(math.log(2.0), 1.0, 0.25, SSign.POSITIVE) == pytest.approx(2.0, rel=1e-15)
        assert s_of_r(math.log(2.0), 1.0, 0.25, SSign.NEGATIVE) == pytest.approx(0.5, rel=1e-15)

    def test_overflow_is_reported(self):
        with pytest.raises(OutOfRange):
            s_of_r(1e6, 1.0, 1.0, SSign.POSITIVE)

    def test_negative_r_rejected(self):
        with pytest.raises(OutOfRange):
            s_of_r(-1.0, 1.0, 1.0, SSign.POSITIVE)

    @pytest.mark.parametrize("s_sign", list(SSign))
    def test_array_is_pointwise(self, s_sign):
        rs = np.linspace(0.0, 40.0, 401)
        got = s_of_r(rs, 2.0, 0.25, s_sign)
        assert got.dtype == float and got.shape == rs.shape
        assert np.array_equal(got, [s_of_r(r, 2.0, 0.25, s_sign) for r in rs])

    def test_array_overflow_reports_the_first_offending_exponent(self):
        rs = np.array([1.0, 750.0, 800.0])
        with pytest.raises(OutOfRange, match="exponent 750$"):
            s_of_r(rs, 0.0, 0.5, SSign.POSITIVE)
        with pytest.raises(OutOfRange, match="r must be >= 0"):
            s_of_r(np.array([1.0, -1.0]), 0.0, 0.5, SSign.POSITIVE)

    def test_monotone(self):
        rs = np.linspace(0.0, 5.0, 50)
        vals = [s_of_r(r, 2.0, 0.25, SSign.POSITIVE) for r in rs]
        assert all(x < y for x, y in zip(vals, vals[1:]))
        vals = [s_of_r(r, 2.0, 0.25, SSign.NEGATIVE) for r in rs]
        assert all(x > y for x, y in zip(vals, vals[1:]))


class TestPotential:
    def test_rational_point(self):
        # Exact rational arithmetic: 1 - (1.5*1.5*(8/3)) / (2.5*2.5*(5/3)) = 53/125.
        v = potential_from_s(2.0, 0.5, 2.0 / 3.0, 0.5, 1.0)
        assert v == pytest.approx(53.0 / 125.0, rel=1e-15)
        assert v == pytest.approx(0.424, abs=5e-4)

    def test_zero_at_origin_default(self, default_params):
        assert potential_V(0.0, default_params) == pytest.approx(0.0, abs=1e-14)

    @given(K=shape_floats, k1=shape_floats, k2=shape_floats,
           omega=st.floats(min_value=0.05, max_value=2.0),
           De=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=150)
    def test_zero_at_origin_randomized(self, K, k1, k2, omega, De):
        if not valid_shape(K, k1, k2):
            return
        abc = derive_abc(K, k1, k2)
        # s(0) = 1 must not sit on a pole of the family.
        if abs((1 + abc.a) * (1 + abc.c) * (1 + abc.b)) < 1e-6:
            return
        p = HylleraasParams(K=K, k1=k1, k2=k2, omega=omega, D_e=De, M=1.0)
        assert potential_V(0.0, p) == pytest.approx(0.0, abs=1e-9 * De)

    def test_large_r_limit_positive_exponent(self):
        p = DEFAULT_PARAMS.replace(s_sign=SSign.POSITIVE)
        scale = (1 + p.K) * p.omega
        r = 50.0 / scale
        assert abs(potential_V(r, p) - p.D_e) < p.D_e * math.exp(-scale * r) * 1e3

    def test_d_e_zero_everywhere_zero(self):
        p = DEFAULT_PARAMS.replace(D_e=0.0)
        for r in (0.0, 1.0, 5.0):
            assert potential_V(r, p) == 0.0


class TestAppendixConstants:
    def test_alpha1_with_b_zero(self):
        # b = 0 at K = k1 - k2 ... easiest: k1=1, k2=0, K=1 gives b=(1-1+0)/2=0.
        p = HylleraasParams(K=1.0, k1=1.0, k2=0.0, omega=0.25, D_e=1.0, M=1.0)
        assert appendix_constants(p, 0.5).alpha1 == 1.0

    def test_symmetry_in_a_c(self):
        # Swapping k1 and k2 at K fixed swaps a and c.
        p1 = HylleraasParams(K=2.0, k1=1.0, k2=0.5, omega=0.25, D_e=1.0, M=1.0)
        p2 = HylleraasParams(K=2.0, k1=0.5, k2=1.0, omega=0.25, D_e=1.0, M=1.0)
        a1m, a2m = p1.abc, p2.abc
        assert (a1m.a, a1m.c) == (a2m.c, a2m.a)
        # b differs between the two sets, so compare the a<->c symmetric
        # combinations directly at matched (a, c, alpha1):
        # Lam3 = 2 alpha2 - 4 alpha3 - 8 alpha1 and Lam1 = (delta2 - Lam3^2) / 12
        c1 = appendix_constants(p1, 0.3)
        a, c = a1m.a, a1m.c
        assert c1.Lam3 == pytest.approx(4 * c1.alpha1 * (a + c - 2 * a * c - 2), rel=1e-15)
        assert (c1.delta2 - c1.Lam3 ** 2) / 12 == pytest.approx(
            4 * c1.alpha1 ** 2 * (a - c) ** 2, rel=1e-12)

    def test_identities_by_construction(self, default_params):
        p = default_params
        a, b, c = p.abc.a, p.abc.b, p.abc.c
        # beta'^2 and Lam1 as appendix_constants forms them
        alpha1 = 1 + b
        Lam1 = (2.0 * alpha1 * (a + c)) ** 2 - 8.0 * alpha1 * (2.0 * a * c * alpha1)
        for E in (-0.9, -0.3, 0.0, 0.4, 0.95):
            cst = appendix_constants(p, E)
            betap2 = (1 + a) * (1 + c) * (2.0 * p.D_e * (E + p.M)) / p.scale2
            assert cst.beta2 == cst.eps2 - betap2
            assert cst.gamma2 == cst.eps2 - cst.gammap2
            assert cst.delta2 == cst.Lam3 ** 2 + 12 * Lam1
            assert cst.Ebar == E * E - p.M ** 2

    @pytest.mark.parametrize("E", [-0.75, 0.5, 0.9])
    def test_against_extended_precision(self, E, default_params):
        p = default_params
        got = appendix_constants(p, E)
        want = constants_hp(p.K, p.k1, p.k2, p.omega, p.D_e, p.M, p.mu, E)
        # the kept fields read every constant of the cascade
        for field in fields(got):
            val = getattr(got, field.name)
            ref = float(want[field.name])
            assert val == pytest.approx(ref, rel=1e-12, abs=1e-12), field.name

    @pytest.mark.parametrize("E", [-0.75, 0.5])
    def test_appendix_forms_against_extended_precision(self, E, asymmetric_params):
        p = asymmetric_params
        got = appendix_a_forms(p, E)
        want = appendix_forms_hp(p.K, p.k1, p.k2, p.omega, p.D_e, p.M, E)
        for name, hp in want.items():
            val = getattr(got, name)
            assert val == pytest.approx(float(hp), rel=1e-12, abs=1e-12), name

    def test_gamma2_printed_differs_from_constructed(self, default_params):
        # The two printed gamma^2 forms disagree; the audit records the gap.
        c = appendix_constants(default_params, 0.5)
        direct = gamma2_printed(default_params, 0.5)
        assert direct != pytest.approx(c.gamma2, rel=1e-6)


class TestParamsValidation:
    def test_rejects_bad_scales(self):
        with pytest.raises(DegenerateParams):
            HylleraasParams(K=2, k1=1, k2=1, omega=0.0, D_e=1, M=1)
        with pytest.raises(DegenerateParams):
            HylleraasParams(K=2, k1=1, k2=1, omega=0.25, D_e=-1, M=1)
        with pytest.raises(DegenerateParams):
            HylleraasParams(K=2, k1=1, k2=1, omega=0.25, D_e=1, M=0)
        with pytest.raises(DegenerateParams):
            HylleraasParams(K=2, k1=1, k2=1, omega=0.25, D_e=1, M=1, mu=0)

    def test_d_e_zero_allowed(self):
        HylleraasParams(K=2, k1=1, k2=1, omega=0.25, D_e=0.0, M=1)

    def test_degenerate_shape_rejected_at_construction(self):
        with pytest.raises(DegenerateParams):
            HylleraasParams(K=1.0, k1=-1.0, k2=0.5, omega=0.25, D_e=1, M=1)
        with pytest.raises(DegenerateParams):
            HylleraasParams(K=-1.0, k1=0.5, k2=0.0, omega=0.25, D_e=1, M=1)


class TestAbcCache:
    def test_derived_once(self):
        p = HylleraasParams(K=2.0, k1=1.0, k2=0.5, omega=0.25, D_e=1, M=1)
        assert p.abc is p.abc
        assert p.abc == derive_abc(2.0, 1.0, 0.5)

    def test_replace_derives_afresh(self):
        p = HylleraasParams(K=2.0, k1=1.0, k2=0.5, omega=0.25, D_e=1, M=1)
        q = p.replace(K=3.0)
        assert q.abc == derive_abc(3.0, 1.0, 0.5)
        assert q.abc != p.abc

    def test_equality_and_hash_ignore_the_cache(self):
        p = HylleraasParams(K=2.0, k1=1.0, k2=0.5, omega=0.25, D_e=1, M=1)
        q = HylleraasParams(K=2.0, k1=1.0, k2=0.5, omega=0.25, D_e=1, M=1)
        del q.__dict__["abc"]  # q's cache empty, p's filled
        assert p == q and hash(p) == hash(q)
        assert q.abc == p.abc
