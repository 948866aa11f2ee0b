import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hykg import closedform, nu, rootfind
from hykg.closedform import (
    build_nu_input,
    energy_eq45_result,
    energy_implicit_result,
    energy_mechanical_result,
    eq45_rhs,
    intermediates,
    mechanical_residual,
)
from hykg.errors import DegenerateParams
from hykg.hylleraas import DEFAULT_PARAMS, HylleraasParams, SSign, appendix_constants
from hykg.levels import (
    FLAG_EPS2_NEGATIVE,
    FLAG_NEGATIVE_UNDER_SQRT,
    FLAG_TAU_PRIME_NONNEG,
    Engine,
)
from hykg.nu import BranchGap
from hykg.rootfind import sample

from _highprec import constants_hp


@pytest.fixture
def coarse_scan(monkeypatch):
    monkeypatch.setattr(closedform, "N_BRACKETS", 400)


class TestBuildNuInput:
    def test_b_zero_a_c_zero(self):
        # K = k1 = k2 = 0 gives a = b = c = 0: sigma = 2 s^2, tau_tilde = 2 s.
        p = HylleraasParams(K=0.0, k1=0.0, k2=0.0, omega=0.25, D_e=1.0, M=1.0)
        inp = build_nu_input(p, 0.5)
        assert (inp.sigma.c0, inp.sigma.c1, inp.sigma.c2) == (0.0, 0.0, 2.0)
        assert (inp.tau_tilde.c0, inp.tau_tilde.c1, inp.tau_tilde.c2) == (0.0, 2.0, 0.0)

    def test_linear_coefficient_is_constructed_beta2(self, default_params):
        cst = appendix_constants(default_params, 0.5)
        inp = build_nu_input(default_params, 0.5)
        assert inp.sigma_tilde.c1 == cst.beta2

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
        # tau'_printed - d/ds(tau_printed) = 4 alpha1 identically, where the
        # printed tau = 2 alpha1 [2 s + (a + c)] - 2 [muJ s - nuJ]
        cst = appendix_constants(asymmetric_params, 0.2)
        im = intermediates(asymmetric_params, 0.2, 1)
        diff = im.tau_prime_printed - (4.0 * cst.alpha1 - 2.0 * im.muJ)
        assert diff == pytest.approx(4.0 * cst.alpha1, rel=1e-12)


class TestMechanical:
    def test_residual_is_branchgap_when_closure_fails(self):
        p = DEFAULT_PARAMS.replace(D_e=0.0)
        # with no coupling a = c and the square never closes on a real branch
        assert mechanical_residual(p, 0.5, 0) == BranchGap("ImperfectSquare")

    def test_default_ground_state_exists(self, default_params):
        res = energy_mechanical_result(default_params, (0,))[0]
        assert res, "expected at least one n=0 root"
        for lvl in res:
            assert -1 < lvl.E < 1
            assert lvl.engine is Engine.MECHANICAL_NU
            assert lvl.residual <= 1e-8
            # at these parameters no decreasing-tau branch exists anywhere;
            # the lenient selection is recorded on every level
            assert FLAG_TAU_PRIME_NONNEG in lvl.flags

    def test_levels_sorted_and_deterministic(self, default_params):
        a = energy_mechanical_result(default_params, (0,))[0]
        b = energy_mechanical_result(default_params, (0,))[0]
        assert a == b
        es = [l.E for l in a]
        assert es == sorted(es)

    @pytest.mark.usefixtures("coarse_scan")
    def test_free_case_empty(self):
        p = DEFAULT_PARAMS.replace(D_e=0.0)
        res = energy_mechanical_result(p, (0,))[0]
        assert res == []


class TestImplicit:
    def test_n0_root_exists_at_defaults(self, default_params):
        # lam_n = 0 at n = 0 keeps the printed quantization real wherever
        # U^2 - V^2 >= 0; a sign change exists inside the window.
        res = energy_implicit_result(default_params, (0,))[0]
        assert res
        for lvl in res:
            assert lvl.residual <= 1e-8 or lvl.residual <= 1e-8 * (1 + abs(lvl.E))

    @pytest.mark.usefixtures("coarse_scan")
    def test_n1_empty_at_defaults(self, default_params):
        # lam_n is complex for n >= 1 across the window -> exclusion zone.
        res = energy_implicit_result(default_params, (1,))[1]
        assert res == []

    @pytest.mark.usefixtures("coarse_scan")
    def test_free_case_empty(self):
        p = DEFAULT_PARAMS.replace(D_e=0.0)
        res = energy_implicit_result(p, (0,))[0]
        assert res == []


class TestEq45:
    def test_rhs_none_when_radicand_negative(self):
        p = DEFAULT_PARAMS.replace(D_e=0.0)
        # A = 0 at zero coupling and B > 0: A^2 - B < 0 -> no real branch.
        assert eq45_rhs(p, 0.5, 0) == (None, None)

    @pytest.mark.usefixtures("coarse_scan")
    def test_free_case_no_levels(self):
        p = DEFAULT_PARAMS.replace(D_e=0.0)
        res = energy_eq45_result(p, (0,))[0]
        assert res == []

    @pytest.mark.usefixtures("coarse_scan")
    def test_plus_minus_flags_and_distinct_levels(self, default_params):
        res = energy_eq45_result(default_params, (0,))[0]
        for lvl in res:
            assert ("SignPlus" in lvl.flags) or ("SignMinus" in lvl.flags)
        es = [l.E for l in res]
        assert es == sorted(es)
        for x, y in zip(es, es[1:]):
            assert abs(x - y) > 1e-9 * default_params.M

    @pytest.mark.usefixtures("coarse_scan")
    def test_residual_definition(self, default_params):
        res = energy_eq45_result(default_params, (0,))[0]
        for lvl in res:
            assert lvl.residual / default_params.M ** 2 <= 1e-10


class TestDeterminism:
    @pytest.mark.usefixtures("coarse_scan")
    def test_engines_bitwise_stable(self, default_params):
        for fn in (energy_mechanical_result, energy_implicit_result,
                   energy_eq45_result):
            one = fn(default_params, (0,))[0]
            two = fn(default_params, (0,))[0]
            assert one == two


# The parameter box of the benchmark's closedform-sweep workload.
SWEEP_BOX = {"K": (0.5, 3.0), "k1": (0.0, 2.0), "k2": (-0.6, 2.0),
             "omega": (0.1, 1.0), "D_e": (0.2, 5.0)}
ENGINE_RESULTS = (energy_mechanical_result, energy_implicit_result, energy_eq45_result)


class TestSeedValues:
    """Each engine's array seed values against its scalar residual, seed by seed."""

    @given(point=st.fixed_dictionaries({name: st.floats(lo, hi)
                                        for name, (lo, hi) in SWEEP_BOX.items()}),
           s_sign=st.sampled_from(SSign))
    # U2 = delta2 (eps2 + A)^2 squared by numpy, not pow, put the implicit
    # seed 1.3e-13 off a residual of -6.98 made by cancellation
    @example(point={"K": 2.225520697864559, "k1": 0.0, "k2": 0.0, "omega": 0.1, "D_e": 0.2},
             s_sign=SSign.POSITIVE)
    # numpy squares in B_a14 and the eq45 radicand made every eq45 scan here
    # differ from the scalar residual in the last bits
    @example(point={"K": 2.7641, "k1": 1.1001, "k2": 0.7203, "omega": 0.9704, "D_e": 2.9263},
             s_sign=SSign.POSITIVE)
    @settings(max_examples=60, deadline=None)
    def test_array_seeds_match_scalar_residual(self, point, s_sign):
        try:
            params = HylleraasParams(M=1.0, s_sign=s_sign, **point)
        except DegenerateParams:
            assume(False)
        seen = []
        scan_roots = closedform.scan_roots

        def recording(f, xs, ys, tol_x, **kwargs):
            # sampled at call time: eq45's f reads its loop's sign branch
            seen.append((np.asarray(ys), sample(f, xs)))
            return scan_roots(f, xs, ys, tol_x, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(closedform, "N_BRACKETS", 200)
            mp.setattr(closedform, "scan_roots", recording)
            for engine_result in ENGINE_RESULTS:
                seen.clear()
                engine_result(params, range(4))
                assert len(seen) == (8 if engine_result is energy_eq45_result else 4)
                for ys, scalar in seen:
                    valid = np.isfinite(scalar)
                    assert np.array_equal(np.isfinite(ys), valid)
                    ys, scalar = ys[valid], scalar[valid]
                    assert ys.tobytes() == scalar.tobytes()


class TestWorkCount:
    """One engine call evaluates its seeds as arrays: a per-seed scalar
    fallback would make ~2,000 of these calls."""

    @staticmethod
    def _count(monkeypatch, name, module=closedform):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("n_brackets", [closedform.N_BRACKETS, 150])
    @pytest.mark.parametrize("engine_result", ENGINE_RESULTS)
    def test_one_seed_array_per_call(self, monkeypatch, engine_result, n_brackets):
        # every scan of the call (each n, both eq45 signs) brackets on the
        # one seed array the call builds
        grids, scanned = [], []
        seed_grid, scan_roots = rootfind.seed_grid, closedform.scan_roots

        def counted_grid(*args):
            grids.append(seed_grid(*args))
            return grids[-1]

        def recording(f, xs, *args, **kwargs):
            scanned.append(xs)
            return scan_roots(f, xs, *args, **kwargs)

        monkeypatch.setattr(closedform, "N_BRACKETS", n_brackets)
        monkeypatch.setattr(closedform, "seed_grid", counted_grid)
        monkeypatch.setattr(rootfind, "seed_grid", counted_grid)
        monkeypatch.setattr(closedform, "scan_roots", recording)
        engine_result(DEFAULT_PARAMS, range(4))
        assert len(grids) == 1 and grids[0].shape == (n_brackets + 1,)
        assert len(scanned) == (8 if engine_result is energy_eq45_result else 4)
        assert all(xs is grids[0] for xs in scanned)

    def test_mechanical_pi_candidates_calls(self, monkeypatch):
        calls = self._count(monkeypatch, "pi_candidates", nu)
        energy_mechanical_result(DEFAULT_PARAMS, range(4))
        assert 0 < len(calls) < 200

    def test_eq45_appendix_a_forms_calls(self, monkeypatch):
        # DEFAULT_PARAMS has no eq45 root: the seed array's one call serves
        # every n, NegativeUnderSqrt flag included
        calls = self._count(monkeypatch, "appendix_a_forms")
        energy_eq45_result(DEFAULT_PARAMS, range(4))
        assert len(calls) == 1

    @pytest.mark.parametrize("engine_result, residual", [
        (energy_mechanical_result, "mechanical_residual"),
        (energy_implicit_result, "implicit_residual"),
    ])
    def test_public_residual_serves_brent_only(self, monkeypatch, engine_result, residual):
        # each refined root is judged by one private evaluation, so the
        # public residual is called exactly once per Brent f-evaluation
        calls = self._count(monkeypatch, residual)
        fevals = []
        brent = rootfind.brent

        def counting_brent(f, a, b, tol):
            def counted(x):
                fevals.append(x)
                return f(x)
            return brent(counted, a, b, tol)

        monkeypatch.setattr(rootfind, "brent", counting_brent)
        results = engine_result(DEFAULT_PARAMS, range(4))
        assert any(results.values())
        assert fevals
        assert len(calls) == len(fevals)


class TestRootFlags:
    """Each engine's verdict flags EPS2_NEGATIVE exactly where the cascade's
    eps^2 <= 0.  1 + b < 0 makes eps^2 negative on the whole window; the
    mechanical closure finds no root there."""

    CASES = {
        "default": (DEFAULT_PARAMS, set()),
        "implicit-eps2-negative": (
            HylleraasParams(K=0.142, k1=-2.971, k2=0.2, omega=0.86, D_e=1.54, M=1.0,
                            s_sign=SSign.POSITIVE), {Engine.IMPLICIT_LAMBDA}),
        "eq45-eps2-negative": (
            HylleraasParams(K=-3.0, k1=1.0, k2=0.0, omega=0.25, D_e=0.5, M=1.0,
                            s_sign=SSign.POSITIVE), {Engine.EQ45_VERBATIM}),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_flag_follows_eps2(self, coarse_scan, case):
        params, flagged_engines = self.CASES[case]
        flagged = set()
        for engine_result in ENGINE_RESULTS:
            for levels in engine_result(params, range(2)).values():
                for level in levels:
                    negative = appendix_constants(params, level.E).eps2 <= 0
                    assert (FLAG_EPS2_NEGATIVE in level.flags) == negative, level
                    if negative:
                        flagged.add(level.engine)
        assert flagged == flagged_engines


class TestScan:
    def test_close_crossings_are_both_levels(self, default_params):
        # two crossings 1e-10 apart, one on either side of a seed, give two
        # ascending levels that carry only the judge's flags
        seeds = closedform._seed_energies(default_params)
        mid = float(seeds[len(seeds) // 3])
        lo, hi = mid - 5e-11, mid + 5e-11
        f = lambda E: (E - lo) * (E - hi)
        levels = closedform._scan(default_params, 0, Engine.MECHANICAL_NU, f, seeds,
                                  (seeds - lo) * (seeds - hi),
                                  lambda E: (abs(f(E)), True, ()))
        tol = 3 * closedform.TOL_E
        assert [level.E for level in levels] == [pytest.approx(lo, abs=tol),
                                                 pytest.approx(hi, abs=tol)]
        assert [level.flags for level in levels] == [frozenset(), frozenset()]
