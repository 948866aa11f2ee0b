import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hykg import audit, closedform, nu, oracle
from hykg.audit import (
    CSV_COLUMNS,
    ENGINES,
    ode_residual,
    run_audit,
)
from hykg.config import default_config
from hykg.errors import DegenerateParams, NotRepresentable
from hykg.hylleraas import DEFAULT_PARAMS, HylleraasParams, SSign, potential_V
from hykg.levels import (
    FLAG_IDENTITY_NOT_COMPUTABLE,
    FLAG_REFERENCE_FALLBACK,
    Engine,
    EnergyLevel,
)
from hykg.oracle import RadialGrid, default_grid
from hykg.wavefunction import build_radial

from _stebz import stebz_eigenvalues
from test_closedform import SWEEP_BOX

AUDIT_GRID = None  # use the engine default


@pytest.fixture(scope="module")
def small_audit():
    # coarse scan + grid keeps the full matrix honest but fast
    grid = default_grid(DEFAULT_PARAMS, n=800)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(closedform, "N_BRACKETS", 300)
        return run_audit(DEFAULT_PARAMS, n_max=1, grid=grid)


def synthetic_engine(eng, E_values):
    """An ENGINES entry reporting one level E_values[n] at each n."""
    def levels(params, ns, grid):
        return {n: [EnergyLevel(n=n, E=E_values[n], Ebar=E_values[n] ** 2 - 1.0,
                                engine=eng, residual=0.0)]
                for n in ns}
    return levels


class TestEngineTable:
    def test_one_entry_per_engine(self):
        assert set(audit.ENGINES) == set(Engine)

    # the contract of the table: {n: the levels found, ascending in E}, and
    # an empty list for a miss, for every entry
    @pytest.mark.parametrize("engine", list(Engine))
    def test_entry_reports_a_miss_as_no_root(self, engine):
        params = DEFAULT_PARAMS.replace(D_e=0.0)
        results = ENGINES[engine](params, (0, 1), default_grid(params, n=400))
        assert results == {0: [], 1: []}

    @pytest.mark.parametrize("engine", list(Engine))
    def test_entry_reports_found_levels_ascending(self, engine):
        config = default_config()
        ns = range(config.n_max + 1)
        results = ENGINES[engine](config.params, ns, config.grid())
        assert list(results) == list(ns)
        for n, levels in results.items():
            assert isinstance(levels, list)
            assert all(isinstance(level, EnergyLevel) and level.found
                       and level.engine is engine and level.n == n for level in levels)
            energies = [level.E for level in levels]
            assert energies == sorted(energies)

    # bench/tracer.py wraps the solvers by patching module attributes, so the
    # table must look each one up by module-global name at call time
    @pytest.mark.parametrize("engine, solver", [
        (Engine.EQ45_VERBATIM, "energy_eq45_result"),
        (Engine.IMPLICIT_LAMBDA, "energy_implicit_result"),
        (Engine.MECHANICAL_NU, "energy_mechanical_result"),
    ])
    def test_closed_form_entry_calls_patched_solver(self, monkeypatch, engine, solver):
        calls = []
        level = EnergyLevel(n=0, E=-0.5, Ebar=-0.75, engine=engine, residual=0.0)

        def stub(params, ns):
            calls.append((params, list(ns)))
            return {n: [level] for n in ns}

        monkeypatch.setattr(audit, solver, stub)
        levels = ENGINES[engine](DEFAULT_PARAMS, (0, 1),
                                 default_grid(DEFAULT_PARAMS, n=400))
        assert levels == {n: [level] for n in (0, 1)}
        assert calls == [(DEFAULT_PARAMS, [0, 1])]

    def test_oracle_entry_calls_patched_solver(self, monkeypatch):
        calls = []

        def stub(params, n, grid, counts=None):
            calls.append(n)
            return EnergyLevel(n=n, E=-0.5, Ebar=-0.75, engine=Engine.ORACLE, residual=0.0)

        monkeypatch.setattr(oracle, "solve_relativistic", stub)
        levels = ENGINES[Engine.ORACLE](DEFAULT_PARAMS, (0, 1),
                                        default_grid(DEFAULT_PARAMS, n=400))
        assert calls == [0, 1]
        assert levels == {n: [stub(DEFAULT_PARAMS, n, None)] for n in (0, 1)}

    def test_patched_n_brackets_reaches_scan_and_report(self, monkeypatch):
        seen = []
        scan_roots = closedform.scan_roots

        def recording(f, xs, *args, **kwargs):
            seen.append(len(xs) - 1)
            return scan_roots(f, xs, *args, **kwargs)

        monkeypatch.setattr(closedform, "N_BRACKETS", 50)
        monkeypatch.setattr(closedform, "scan_roots", recording)
        report = run_audit(DEFAULT_PARAMS, n_max=0, grid=default_grid(DEFAULT_PARAMS, n=400))
        # one scan per eq45 sign, one each for implicit and mechanical
        assert seen == [50] * 4
        assert report.config["n_brackets"] == 50


def _asymmetric_positive():
    params = HylleraasParams(K=2.0, k1=1.0, k2=0.5, omega=0.25, D_e=1.0, M=1.0,
                             s_sign=SSign.POSITIVE)
    return params, default_grid(params)


# (params, grid) per case; all at n_max = 3
BATCH_CASES = {
    "default-config": lambda: (default_config().params, default_config().grid()),
    # the b < 0 well of scripts/convergence_study.py at N = 1000
    "b-negative-well": lambda: (
        DEFAULT_PARAMS.replace(K=1.2, k1=1.0, k2=-0.5, D_e=1000.0, s_sign=SSign.POSITIVE),
        RadialGrid(r_min=10.0 / 1000, r_max=10.0, n=1000)),
    "asymmetric-positive": _asymmetric_positive,
    "negative-De3": lambda: (DEFAULT_PARAMS.replace(D_e=3.0),
                             default_grid(DEFAULT_PARAMS.replace(D_e=3.0))),
}


def seed_signs(params, grid, ns):
    """(count <= n, g_n, accuracy) at every seed of the oracle's seed walk,
    with g_n the single-index g of an eigensolve and `accuracy` a bound on
    its absolute error: stebz bisects to eps times the matrix norm."""
    M, v = params.M, potential_V(grid.points, params)
    counts = oracle.energy_counts(params, grid)
    for x in oracle.seed_energies(M):
        w = 2.0 * (x + M) * v
        accuracy = 8.0 * np.finfo(float).eps * (float(np.max(np.abs(w))) + 4.0 / grid.h ** 2)
        for n in ns:
            ebar_n = float(stebz_eigenvalues(w, grid, n + 1, first=n)[0])
            yield counts(x) <= n, ebar_n - (x * x - M * M), accuracy


class TestBatchedLevels:
    @pytest.mark.parametrize("engine", list(Engine))
    @pytest.mark.parametrize("case", list(BATCH_CASES))
    def test_batched_equals_single_level(self, case, engine):
        params, grid = BATCH_CASES[case]()
        ns = range(4)
        batched = ENGINES[engine](params, ns, grid)
        assert list(batched) == list(ns)
        for n in ns:
            assert batched[n] == ENGINES[engine](params, (n,), grid)[n]

    @pytest.mark.parametrize("case", list(BATCH_CASES))
    def test_seed_counts_give_the_sign_of_g(self, case):
        params, grid = BATCH_CASES[case]()
        for positive, g, _ in seed_signs(params, grid, range(4)):
            assert positive == (g > 0)

    @given(point=st.fixed_dictionaries({name: st.floats(lo, hi)
                                        for name, (lo, hi) in SWEEP_BOX.items()}),
           s_sign=st.sampled_from(SSign))
    @settings(max_examples=30, deadline=None)
    @pytest.mark.filterwarnings("ignore::hykg.oracle.GridHeuristicWarning")
    def test_seed_counts_give_the_sign_of_g_anywhere(self, point, s_sign):
        try:
            params = HylleraasParams(M=1.0, s_sign=s_sign, **point)
        except DegenerateParams:
            assume(False)
        for positive, g, accuracy in seed_signs(params, default_grid(params, n=400), range(4)):
            # where c = 0 and s -> 0 (s_sign negative), W reaches ~1e26 and
            # g is known only to ~1e10 (see TestSturmCount)
            if abs(g) > max(1e-9, accuracy):
                assert positive == (g > 0)


class TestRunAudit:
    def test_rows_and_columns_finite(self, small_audit):
        assert len(small_audit.rows) == 2
        for row in small_audit.rows:
            for col in ("disc_residual", "eq42_vs_derivative", "eq44_vs_eq12",
                        "eq20_vs_eq23", "delta_a9_vs_eq35",
                        "ode_residual_closedform"):
                assert math.isfinite(getattr(row, col)), col
            assert isinstance(row.tau_prime_sign, bool)

    def test_identity_columns_document_inconsistency(self, small_audit):
        # nonzero by a wide margin: these findings are the point of the audit
        for row in small_audit.rows:
            assert row.eq42_vs_derivative > 1e-3
            assert row.delta_a9_vs_eq35 > 1e-3
            assert row.eq20_vs_eq23 > 1e-6

    def test_determinism_byte_identical(self, small_audit, monkeypatch):
        grid = default_grid(DEFAULT_PARAMS, n=800)
        monkeypatch.setattr(closedform, "N_BRACKETS", 300)
        again = run_audit(DEFAULT_PARAMS, n_max=1, grid=grid)
        assert small_audit.to_json() == again.to_json()
        assert small_audit.to_csv() == again.to_csv()

    def test_free_case_totality(self, monkeypatch):
        params = DEFAULT_PARAMS.replace(D_e=0.0)
        grid = default_grid(params, n=400)
        monkeypatch.setattr(closedform, "N_BRACKETS", 150)
        report = run_audit(params, n_max=1, grid=grid)
        for row in report.rows:
            assert row.E_eq45 is None and row.E_oracle is None
            assert any(f.endswith("NoRoot") for f in row.flags)
            # a = c and the NU closure gaps: the mechanical identities and the
            # closed-form ODE defect have nothing to evaluate
            assert row.disc_residual is None and row.eq44_vs_eq12 is None
            assert row.ode_residual_closedform is None and row.ode_form == "none"
            assert {"ImperfectSquare", FLAG_IDENTITY_NOT_COMPUTABLE,
                    FLAG_REFERENCE_FALLBACK} <= set(row.flags)

    def test_injected_identical_levels(self, monkeypatch):
        grid = default_grid(DEFAULT_PARAMS, n=400)
        for eng in Engine:
            monkeypatch.setitem(audit.ENGINES, eng, synthetic_engine(eng, [-0.5, -0.2]))
        report = run_audit(DEFAULT_PARAMS, n_max=1, grid=grid)
        for row in report.rows:
            for col in ("diff_eq45_implicit", "diff_eq45_mechanical",
                        "diff_eq45_oracle", "diff_implicit_mechanical",
                        "diff_implicit_oracle", "diff_mechanical_oracle"):
                assert getattr(row, col) == 0.0

    def test_n_max_bound(self):
        with pytest.raises(ValueError):
            run_audit(DEFAULT_PARAMS, n_max=11, grid=default_grid(DEFAULT_PARAMS, n=400))

    def test_identity_columns_solve_k_once_per_row(self, monkeypatch):
        # k39_vs_mechanical reads the closure constants that the row's
        # quantization solved: one solve_k per row, and the same column as
        # a second solve_k at the row's reference energy gives
        grid = default_grid(DEFAULT_PARAMS, n=400)
        for eng in Engine:
            monkeypatch.setitem(audit.ENGINES, eng, synthetic_engine(eng, [-0.5, -0.2]))
        solve_k, identity_columns = nu.solve_k, audit._identity_columns
        calls, per_row = [], []

        def counted_solve_k(inp):
            calls.append(inp)
            return solve_k(inp)

        def counted_identity_columns(params, E, n):
            before = len(calls)
            out = identity_columns(params, E, n)
            per_row.append(len(calls) - before)
            return out

        monkeypatch.setattr(nu, "solve_k", counted_solve_k)
        monkeypatch.setattr(audit, "_identity_columns", counted_identity_columns)
        report = run_audit(DEFAULT_PARAMS, n_max=1, grid=grid)
        assert per_row == [1, 1]
        for row in report.rows:
            im = closedform.intermediates(DEFAULT_PARAMS, row.reference_E, row.n)
            ks = solve_k(closedform.build_nu_input(DEFAULT_PARAMS, row.reference_E))
            assert row.k39_vs_mechanical == min(abs(im.lam.real - k) / max(1.0, abs(k))
                                                for k, _ in ks)


class TestSerialization:
    def test_csv_shape(self, small_audit):
        lines = small_audit.to_csv().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(small_audit.rows)
        for line in lines[1:]:
            assert len(line.split(",")) == len(CSV_COLUMNS)

    def test_version_string(self, small_audit):
        assert small_audit.version.startswith("hykg ")


class TestOdeResidual:
    def test_reports_finite_at_defaults(self, default_params):
        grid = default_grid(default_params, n=600)
        forms = build_radial(default_params, -0.93, 0, grid)
        val, label = ode_residual(default_params, -0.93, grid, forms)
        assert math.isfinite(val)
        assert label == "confluent-mechanical"

    def test_oracle_eigenvector_is_better(self, default_params):
        # sanity scale: the oracle eigenvector nearly solves the same ODE, so
        # its defect must be far below the closed form's
        from hykg.oracle import oracle_eigenvector, solve_relativistic
        from hykg.oracle import effective_potential

        grid = default_grid(default_params, n=600)
        lvl = solve_relativistic(default_params, 0, grid)
        vec = oracle_eigenvector(default_params, lvl.E, grid)
        w = effective_potential(default_params, lvl.E, grid)
        h = grid.h
        rpp = (vec[2:] - 2 * vec[1:-1] + vec[:-2]) / (h * h)
        resid = -rpp + (w[1:-1] - lvl.Ebar) * vec[1:-1]
        den = (math.sqrt(float(np.sum(rpp ** 2)))
               + math.sqrt(float(np.sum(((w[1:-1] - lvl.Ebar) * vec[1:-1]) ** 2))))
        oracle_defect = math.sqrt(float(np.sum(resid ** 2))) / den

        forms = build_radial(default_params, lvl.E, lvl.n, grid)
        closed_defect, _ = ode_residual(default_params, lvl.E, grid, forms)
        assert oracle_defect < 1e-6
        assert closed_defect > 10 * oracle_defect

    def test_genuine_defect_propagates(self, default_params, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("defect in the closed form")

        monkeypatch.setattr(audit, "build_radial", broken)
        grid = default_grid(default_params, n=400)
        with pytest.raises(RuntimeError):
            run_audit(default_params, n_max=0, grid=grid)

    def test_not_representable_reports_none(self, default_params, monkeypatch):
        def unrepresentable(*args, **kwargs):
            raise NotRepresentable("negative radicand")

        monkeypatch.setattr(audit, "build_radial", unrepresentable)
        grid = default_grid(default_params, n=400)
        [row] = run_audit(default_params, n_max=0, grid=grid).rows
        assert (row.ode_residual_closedform, row.ode_form) == (None, "none")
        assert FLAG_IDENTITY_NOT_COMPUTABLE in row.flags
        assert ode_residual(default_params, -0.93, grid, []) == (math.inf, "none")
