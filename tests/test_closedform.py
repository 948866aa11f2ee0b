import math

import pytest

from hykg.closedform import (
    build_nu_input,
    energy_eq45_result,
    energy_implicit_result,
    energy_mechanical_result,
    eq45_rhs,
    intermediates,
    mechanical_residual,
)
from hykg.hylleraas import DEFAULT_PARAMS, HylleraasParams, appendix_constants
from hykg.levels import (
    FLAG_NEGATIVE_UNDER_SQRT,
    FLAG_NO_ROOT,
    FLAG_TAU_PRIME_NONNEG,
    Engine,
)
from hykg.nu import BranchGap

from _highprec import constants_hp


class TestBuildNuInput:
    def test_b_zero_a_c_zero(self):
        # K = k1 = k2 = 0 gives a = b = c = 0: sigma = 2 s^2, tau_tilde = 2 s.
        p = HylleraasParams(K=0.0, k1=0.0, k2=0.0, omega=0.25, D_e=1.0, M=1.0)
        inp = build_nu_input(p, 0.5)
        assert inp.sigma.coeffs() == (0.0, 0.0, 2.0)
        assert inp.tau_tilde.coeffs() == (0.0, 2.0, 0.0)

    def test_linear_coefficient_is_constructed_beta2(self, default_params):
        cst = appendix_constants(default_params, 0.5)
        inp = build_nu_input(default_params, 0.5)
        assert inp.sigma_tilde.c1 == cst.beta2
        assert inp.sigma_tilde.c1 == cst.eps2 - cst.betap2

    def test_coefficients_extended_precision(self, default_params):
        p = default_params
        hp = constants_hp(p.K, p.k1, p.k2, p.omega, p.D_e, p.M, p.mu, 0.5)
        inp = build_nu_input(p, 0.5)
        b = p.abc.b
        assert inp.sigma.c2 == pytest.approx(2 * (1 + b), rel=1e-15)
        assert inp.sigma_tilde.c2 == pytest.approx(float(-hp["eps2"]), rel=1e-12)
        assert inp.sigma_tilde.c1 == pytest.approx(float(hp["beta2"]), rel=1e-12)
        assert inp.sigma_tilde.c0 == pytest.approx(float(hp["gamma2"]), rel=1e-12)


class TestIntermediates:
    def test_n0_lambda_n_zero(self, default_params):
        im = intermediates(default_params, 0.5, 0)
        assert im.lam_n == 0

    def test_lambda_equals_head_when_v2_cancels(self, default_params):
        # U^2 - V^2 = 0 collapses lambda to -(Lam2 + Lam3 eps^2); verify the
        # formula wiring by reconstructing it from the stored constants.
        cst = appendix_constants(default_params, 0.3)
        im = intermediates(default_params, 0.3, 1)
        head = -(cst.Lam2 + cst.Lam3 * cst.eps2)
        assert im.lam.real == pytest.approx(head - math.sqrt(cst.U2 - cst.V2), rel=1e-12)

    def test_default_params_radicands_negative(self, default_params):
        # A^2 - B < 0 across the window at the symmetric defaults: muJ, nuJ
        # and lam_n (n >= 1) are complex and flagged.
        for E in (-0.9, 0.0, 0.5, 0.9):
            im = intermediates(default_params, E, 1)
            assert FLAG_NEGATIVE_UNDER_SQRT in im.flags
            assert im.muJ.imag != 0.0
            assert im.lam_n.imag != 0.0

    def test_printed_tau_prime_offset(self, asymmetric_params):
        # tau'_printed - d/ds(tau_printed) = 4 alpha1 identically.
        cst = appendix_constants(asymmetric_params, 0.2)
        im = intermediates(asymmetric_params, 0.2, 1)
        diff = im.tau_prime_printed - im.tau_slope
        assert diff == pytest.approx(4.0 * cst.alpha1, rel=1e-12)


class TestMechanical:
    def test_residual_is_branchgap_when_closure_fails(self):
        p = DEFAULT_PARAMS.replace(D_e=0.0)
        # with no coupling the square never closes on a real branch here
        out = mechanical_residual(p, 0.5, 0)
        assert isinstance(out, BranchGap) or isinstance(out, float)

    def test_default_ground_state_exists(self, default_params):
        res = energy_mechanical_result(default_params, (0,))[0]
        assert res.levels, "expected at least one n=0 root"
        for lvl in res.levels:
            assert -1 < lvl.E < 1
            assert lvl.engine is Engine.MECHANICAL_NU
            assert lvl.residual <= 1e-8
            # at these parameters no decreasing-tau branch exists anywhere;
            # the lenient selection is recorded on every level
            assert FLAG_TAU_PRIME_NONNEG in lvl.flags

    def test_levels_sorted_and_deterministic(self, default_params):
        a = energy_mechanical_result(default_params, (0,))[0].levels
        b = energy_mechanical_result(default_params, (0,))[0].levels
        assert a == b
        es = [l.E for l in a]
        assert es == sorted(es)

    def test_free_case_empty(self):
        p = DEFAULT_PARAMS.replace(D_e=0.0)
        res = energy_mechanical_result(p, (0,), n_brackets=400)[0]
        assert res.levels == []
        assert FLAG_NO_ROOT in res.region_flags


class TestImplicit:
    def test_n0_root_exists_at_defaults(self, default_params):
        # lam_n = 0 at n = 0 keeps the printed quantization real wherever
        # U^2 - V^2 >= 0; a sign change exists inside the window.
        res = energy_implicit_result(default_params, (0,))[0]
        assert res.levels
        for lvl in res.levels:
            assert lvl.residual <= 1e-8 or lvl.residual <= 1e-8 * (1 + abs(lvl.E))

    def test_n1_empty_at_defaults(self, default_params):
        # lam_n is complex for n >= 1 across the window -> exclusion zone.
        res = energy_implicit_result(default_params, (1,), n_brackets=400)[1]
        assert res.levels == []
        assert FLAG_NO_ROOT in res.region_flags

    def test_free_case_empty(self):
        p = DEFAULT_PARAMS.replace(D_e=0.0)
        res = energy_implicit_result(p, (0,), n_brackets=400)[0]
        assert res.levels == []


class TestEq45:
    def test_rhs_none_when_radicand_negative(self):
        p = DEFAULT_PARAMS.replace(D_e=0.0)
        # A = 0 at zero coupling and B > 0: A^2 - B < 0 -> no real branch.
        assert eq45_rhs(p, 0.5, 0) == (None, None)

    def test_free_case_no_levels(self):
        p = DEFAULT_PARAMS.replace(D_e=0.0)
        res = energy_eq45_result(p, (0,), n_brackets=400)[0]
        assert res.levels == []
        assert FLAG_NO_ROOT in res.region_flags

    def test_plus_minus_flags_and_dedup(self, default_params):
        res = energy_eq45_result(default_params, (0,), n_brackets=400)[0]
        for lvl in res.levels:
            assert ("SignPlus" in lvl.flags) or ("SignMinus" in lvl.flags)
        es = [l.E for l in res.levels]
        assert es == sorted(es)
        for x, y in zip(es, es[1:]):
            assert abs(x - y) > 1e-9 * default_params.M

    def test_residual_definition(self, default_params):
        res = energy_eq45_result(default_params, (0,), n_brackets=400)[0]
        for lvl in res.levels:
            assert lvl.residual / default_params.M ** 2 <= 1e-10


class TestDeterminism:
    def test_engines_bitwise_stable(self, default_params):
        for fn in (energy_mechanical_result, energy_implicit_result,
                   energy_eq45_result):
            one = fn(default_params, (0,), n_brackets=400)[0].levels
            two = fn(default_params, (0,), n_brackets=400)[0].levels
            assert one == two
