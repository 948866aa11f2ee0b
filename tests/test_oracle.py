import ast
import math
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import dtbsv

from hykg import oracle
from hykg.errors import DegenerateParams, OutOfRange
from hykg.hylleraas import DEFAULT_PARAMS, HylleraasParams, SSign, potential_V, s_of_r
from hykg.levels import FLAG_COUNT_FALLBACK, FLAG_NO_ROOT, FLAG_NODE_MISMATCH
from hykg.config import default_config, parse_config
from hykg.oracle import (
    E_TOL_REL,
    GridHeuristicWarning,
    RadialGrid,
    SturmCounter,
    box_grid,
    check_grid,
    count_sign_changes,
    default_grid,
    effective_potential,
    eigen_tridiagonal,
    eigenvector_tridiagonal,
    numerov_shoot,
    oracle_eigenvector,
    solve_levels,
    solve_relativistic,
)
from hykg.rootfind import estimate_order

from _count_bisection import reference_eigenvalues
from _exact import window
from _fixed_w import numerov_eigenvalue, schrodinger_limit
from _seed_walk import count_crossing, isolation_bracket
from _stebz import stebz_eigenvalues, stein_eigenvector, tridiagonal
from test_cli import ASYMMETRIC_CFG
from test_closedform import SWEEP_BOX

L = 20.0
ASYMMETRIC = parse_config(ASYMMETRIC_CFG)


def box_levels(n_points, m=3):
    grid = box_grid(L, n_points)
    w = np.zeros(grid.n)
    return grid, eigen_tridiagonal(w, grid, m)


class TestBox:
    def test_eigenvalues_match_analytic(self):
        _, vals = box_levels(4000)
        for i, v in enumerate(vals, start=1):
            exact = (i * math.pi / L) ** 2
            assert abs(v - exact) / exact < 1e-4

    def test_compact_result(self):
        # a new array of the m values, not a view into a longer one
        grid = box_grid(L, 2000)
        for m in (1, 3):
            vals = eigen_tridiagonal(np.zeros(grid.n), grid, m)
            assert vals.base is None
            assert vals.nbytes == 8 * m

    def test_interlacing(self):
        _, vals = box_levels(1000, m=6)
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_matrix_convergence_order(self):
        hs, es = [], []
        for n_points in (200, 400, 800, 1600):
            grid, vals = box_levels(n_points)
            hs.append(grid.h)
            es.append(float(vals[2]))
        slope, low = estimate_order(hs, es)
        assert not low
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_numerov_matches_matrix(self):
        # Numerov is O(h^4), the stencil matrix O(h^2): they agree within the
        # combined error model, dominated by the matrix truncation k^2 h^2 / 12.
        grid, vals = box_levels(1000)
        w = np.zeros(grid.n)
        for i, v in enumerate(vals, start=1):
            exact = (i * math.pi / L) ** 2
            root, assembled = numerov_eigenvalue(w, grid, (0.95 * v, 1.05 * v), tol=1e-14)
            budget = 2.0 * exact * exact * grid.h ** 2 / 12.0
            assert abs(root - v) <= budget
            assert count_sign_changes(assembled) == i - 1
            assert abs(root - exact) / exact < 1e-8  # Numerov itself is near-exact here

    def test_numerov_convergence_order(self):
        hs, es = [], []
        exact = (3 * math.pi / L) ** 2
        for n_points in (200, 400, 800):
            grid = box_grid(L, n_points)
            w = np.zeros(grid.n)
            root, _ = numerov_eigenvalue(w, grid, (0.99 * exact, 1.01 * exact), tol=1e-15)
            hs.append(grid.h)
            es.append(root)
        slope, low = estimate_order(hs, es)
        assert not low
        assert slope == pytest.approx(4.0, abs=0.2)


class TestOscillator:
    def test_half_line_odd_spectrum(self):
        # -u'' + w^2 r^2 u = Ebar u with u(0) = 0: Ebar_n = (4n+3) w.
        for w_osc in (1.0, 2.0):
            grid = RadialGrid(r_min=12.0 / 4000, r_max=12.0, n=4000)
            w = w_osc ** 2 * grid.points ** 2
            vals = eigen_tridiagonal(w, grid, 3)
            for n, v in enumerate(vals):
                exact = (4 * n + 3) * w_osc
                assert abs(v - exact) / exact < 1e-4

    def test_numerov_agrees(self):
        grid = RadialGrid(r_min=12.0 / 2000, r_max=12.0, n=2000)
        w = grid.points ** 2
        vals = eigen_tridiagonal(w, grid, 3)
        for n, v in enumerate(vals):
            root, assembled = numerov_eigenvalue(w, grid, (v - 0.2, v + 0.2), tol=1e-13)
            exact = 4.0 * n + 3.0
            # Numerov near-exact against the analytic value; matrix only to h^2
            assert abs(root - exact) < 1e-6
            assert abs(root - v) < exact * (math.sqrt(exact) * grid.h) ** 2
            assert count_sign_changes(assembled) == n


class TestEigenTridiagonal:
    """Count bisection against LAPACK stebz on the same matrix.  Both stop
    at eps times the Gershgorin bound on its norm, max W + 4/h^2 here."""

    OPERATORS = {
        "box": (lambda n: box_grid(L, n), lambda grid: np.zeros(grid.n)),
        "oscillator": (lambda n: RadialGrid(r_min=12.0 / n, r_max=12.0, n=n),
                       lambda grid: grid.points ** 2),
        "4V": (lambda n: default_grid(DEFAULT_PARAMS, n),
               lambda grid: 4.0 * potential_V(grid.points, DEFAULT_PARAMS)),
        # W ~3e26 at the far wall; a count there restarts every few rows,
        # which makes the larger grids cost seconds
        "huge W": (lambda n: default_grid(HUGE_W_PARAMS, n),
                   lambda grid: 2.0 * (0.5 + HUGE_W_PARAMS.M)
                   * potential_V(grid.points, HUGE_W_PARAMS)),
    }

    @pytest.mark.parametrize("operator, n_points",
                             [(op, n) for op in ("box", "oscillator", "4V")
                              for n in (400, 2000, 4000)] + [("huge W", 400)])
    def test_matches_stebz(self, operator, n_points):
        grid_of, w_of = self.OPERATORS[operator]
        grid = grid_of(n_points)
        w = w_of(grid)
        floor = np.finfo(float).eps * (float(np.max(w)) + 4.0 / grid.h ** 2)
        for m in (3, 9):
            vals = eigen_tridiagonal(w, grid, m)
            assert np.all(np.diff(vals) >= 0)
            assert np.max(np.abs(vals - stebz_eigenvalues(w, grid, m))) <= 2.0 * floor

    # a free box, the selftest's oscillator, schrodinger_limit's 4 V, and huge W
    @pytest.mark.parametrize("operator, n_points, most", [
        ("box", 2000, 120), ("oscillator", 2000, 130), ("4V", 4000, 118), ("huge W", 400, 53)])
    def test_counts_each_sigma_once(self, monkeypatch, operator, n_points, most):
        # the three eigenvalues bisect from one interval, so they share their
        # first midpoints; one memo counts those once (157, 159, 159 and 159
        # counts without it) and leaves every bit of the result unchanged
        grid_of, w_of = self.OPERATORS[operator]
        grid = grid_of(n_points)
        w = w_of(grid)
        expected = reference_eigenvalues(w, grid, 3)
        sigmas = []
        count = oracle.SturmCounter.count

        def counted(self, c, sigma):
            sigmas.append(sigma)
            return count(self, c, sigma)

        monkeypatch.setattr(oracle.SturmCounter, "count", counted)
        vals = eigen_tridiagonal(w, grid, 3)
        assert len(sigmas) == len(set(sigmas)) <= most
        assert vals.tobytes() == expected.tobytes()

    def test_invalid_ranges_raise(self):
        grid = box_grid(L, 400)
        w = np.zeros(grid.n)
        for m in (0, grid.n + 1, -1):
            with pytest.raises(ValueError):
                eigen_tridiagonal(w, grid, m)
        top = eigen_tridiagonal(w, grid, grid.n)
        assert np.max(np.abs(top - stebz_eigenvalues(w, grid, grid.n))) \
            <= 2.0 * np.finfo(float).eps * 4.0 / grid.h ** 2


class TestEigenvector:
    # k = 2's central node sits 1.5 samples from the matching point
    # m = N // 2 - 1, where the samples are 0.5% of the peak: a join there
    # would scale the inward pass by their rounding, the join at the outward
    # pass's largest sample does not
    @pytest.mark.parametrize("k, tol", [(1, 5e-12), (2, 5e-12), (3, 5e-12)])
    def test_box_is_the_discrete_sine(self, k, tol):
        grid = box_grid(L, 2000)
        theta = k * math.pi / (grid.n + 1)
        sigma = (2.0 - 2.0 * math.cos(theta)) / grid.h ** 2
        sine = np.sin(theta * np.arange(1, grid.n + 1))
        sine /= math.sqrt(float(np.sum(sine * sine)) * grid.h)
        vec = eigenvector_tridiagonal(np.zeros(grid.n), grid, sigma)
        assert np.max(np.abs(vec - sine)) < tol

    @pytest.mark.parametrize("params, grid, ns, tol", [
        (DEFAULT_PARAMS, default_config().grid(), range(4), 5e-9),
        (ASYMMETRIC.params, ASYMMETRIC.grid(), range(4), 5e-9),
        (DEFAULT_PARAMS.replace(K=1.2, k1=1.0, k2=-0.5, omega=0.25, D_e=1000.0,
                                s_sign=SSign.POSITIVE),
         RadialGrid(r_min=10.0 / 4000, r_max=10.0, n=4000), range(1), 1e-10),
    ], ids=["default", "asymmetric", "well D_e=1000"])
    def test_levels_match_lapack(self, params, grid, ns, tol):
        # at each level's energy the sweep's vector is LAPACK's, up to the
        # kink that the level's E tolerance leaves at the join, and it has
        # n nodes
        for n, found in solve_levels(params, ns, grid).items():
            [level] = found
            vec = oracle_eigenvector(params, level.E, grid)
            w = effective_potential(params, level.E, grid)
            assert np.max(np.abs(vec - stein_eigenvector(w, grid, n))) < tol
            assert count_sign_changes(vec) == n


class TestRelativistic:
    def test_free_case_has_no_root(self):
        params = DEFAULT_PARAMS.replace(D_e=0.0)
        grid = default_grid(params, n=600)
        level = solve_relativistic(params, 0, grid)
        assert not level.found
        assert FLAG_NO_ROOT in level.flags

    def test_default_ground_state(self):
        grid = default_grid(DEFAULT_PARAMS, n=1200)
        level = solve_relativistic(DEFAULT_PARAMS, 0, grid)
        assert level.found
        assert -1 < level.E < 1
        assert level.residual < 1e-8
        assert level.Ebar == pytest.approx(level.E ** 2 - 1.0, abs=1e-14)

    def test_grid_self_consistency(self):
        e_values = []
        for n_points in (1000, 2000):
            grid = default_grid(DEFAULT_PARAMS, n=n_points)
            e_values.append(solve_relativistic(DEFAULT_PARAMS, 0, grid).E)
        assert abs(e_values[0] - e_values[1]) < 1e-5

    def test_effective_eigen_stability(self):
        vals = []
        for n_points in (1000, 2000):
            grid = default_grid(DEFAULT_PARAMS, n=n_points)
            w = effective_potential(DEFAULT_PARAMS, 0.5, grid)
            vals.append(eigen_tridiagonal(w, grid, 1)[0])
        assert abs(vals[0] - vals[1]) < 1e-5 * max(1.0, abs(vals[1]))

    def test_node_counts(self):
        grid = default_grid(DEFAULT_PARAMS, n=1500)
        for n in range(4):
            level = solve_relativistic(DEFAULT_PARAMS, n, grid)
            assert level.found
            vec = oracle_eigenvector(DEFAULT_PARAMS, level.E, grid)
            assert count_sign_changes(vec) == n

    def test_numerov_cross_check(self):
        # Bracket must stay below the local level spacing; agreement is set by
        # the matrix h^2 truncation, and halving h shrinks the gap ~4x.
        gaps = []
        for n_points in (1500, 3000):
            grid = default_grid(DEFAULT_PARAMS, n=n_points)
            matrix = solve_relativistic(DEFAULT_PARAMS, 0, grid)
            span = 0.005
            shot = numerov_shoot(DEFAULT_PARAMS, 0, grid,
                                 (matrix.E - span, matrix.E + span))
            assert shot.found
            assert FLAG_NODE_MISMATCH not in shot.flags
            gaps.append(abs(shot.E - matrix.E))
        assert gaps[0] < 1e-3
        assert gaps[1] < 0.35 * gaps[0]

    def test_limit_trend(self):
        # Weak coupling: ratio M / D_e spans three decades with M = 1 fixed;
        # the relativistic shift approaches the unit-mass two-body limit.
        grid = default_grid(DEFAULT_PARAMS, n=1200)
        diffs = []
        for de in (0.1, 0.01, 0.001):
            params = DEFAULT_PARAMS.replace(D_e=de)
            level = solve_relativistic(params, 0, grid)
            assert level.found
            e_nr = schrodinger_limit(params, 0, grid)
            diffs.append(abs((level.E - params.M) - e_nr))
        assert diffs[0] > diffs[1] > diffs[2]


def record_energy_counts(monkeypatch, record):
    """Make every memo from oracle.energy_counts call record(x, count) on
    each count it is asked for, whether the memo holds it or not; the
    wrapper keeps the memo's well."""
    energy_counts = oracle.energy_counts

    def recording_counts(params, grid):
        counts = energy_counts(params, grid)

        def recorded(x):
            count = counts(x)
            record(x, count)
            return count
        recorded.well = counts.well
        return recorded

    monkeypatch.setattr(oracle, "energy_counts", recording_counts)


@pytest.fixture
def solved_rows(monkeypatch):
    """The rows each oracle.dtbsv call solves, appended as the calls are made."""
    rows = []

    def recording(k, ab, x, **kwargs):
        rows.append(len(x) - 2)
        return dtbsv(k, ab, x, **kwargs)

    monkeypatch.setattr(oracle, "dtbsv", recording)
    return rows


@pytest.fixture
def band_solves(monkeypatch):
    """What each oracle._band_solve call returns, appended as the calls are
    made: None, or the solved sample past _RESCALE from which it restarts."""
    returns = []
    solve = oracle._band_solve

    def recording(band, x):
        returns.append(solve(band, x))
        return returns[-1]

    monkeypatch.setattr(oracle, "_band_solve", recording)
    return returns


class TestSturmCount:
    def test_free_box_counts(self):
        # the three-point box Laplacian has lambda_k = (4/h^2) sin^2(k pi / (2(N+1)))
        grid = box_grid(L, 1000)
        w = np.zeros(grid.n)
        k = np.arange(1, 13)
        exact = 4.0 / grid.h ** 2 * np.sin(k * math.pi / (2 * (grid.n + 1))) ** 2
        vals = stebz_eigenvalues(w, grid, 12)
        counter = SturmCounter(w, grid)
        for i in range(11):
            sigma = 0.5 * (exact[i] + exact[i + 1])
            assert counter.count(1.0, sigma) == i + 1
            assert counter.count(1.0, sigma) == int(np.sum(vals <= sigma))

    def test_below_spectrum_is_zero_and_silent(self, capfd):
        grid = box_grid(L, 400)
        w = np.zeros(grid.n)
        for sigma in (0.5 * (math.pi / L) ** 2, 0.0, -1.0, -1e12):
            assert SturmCounter(w, grid).count(1.0, sigma) == 0
        assert capfd.readouterr().err == ""

    def test_default_operator_agrees_with_eigenvalues(self):
        config = default_config()
        params, grid = config.params, config.grid()
        M = params.M
        for E in (-0.9, -0.5, 0.0, 0.3, 0.9):
            w = effective_potential(params, E, grid)
            sigma = E * E - M * M
            count = SturmCounter(w, grid).count(1.0, sigma)
            vals = stebz_eigenvalues(w, grid, count + 1)
            assert vals[count] > sigma
            assert count == 0 or vals[count - 1] <= sigma

    @pytest.mark.filterwarnings("ignore::hykg.oracle.GridHeuristicWarning")
    def test_exact_where_bisection_is_not(self):
        # c = 0 with s -> 0: W reaches ~1e26 at the far wall, where stebz's
        # absolute accuracy (eps times the matrix norm) is ~1e10, so a
        # bisection solve cannot give the sign of g; the count still equals
        # the 60-digit Sturm count of the same matrix at every seed
        params = DEFAULT_PARAMS.replace(K=0.5, k1=0.5, omega=1.0)
        assert params.abc.c == 0.0
        grid = default_grid(params, n=400)
        M, v = params.M, potential_V(grid.points, params)
        for x in oracle.seed_energies(M):
            w = 2.0 * (x + M) * v
            sigma = x * x - M * M
            assert SturmCounter(w, grid).count(1.0, sigma) == sturm_count_hp(w, grid, sigma)

    @given(point=st.fixed_dictionaries({name: st.floats(lo, hi)
                                        for name, (lo, hi) in SWEEP_BOX.items()}),
           s_sign=st.sampled_from(SSign),
           u=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings("ignore::hykg.oracle.GridHeuristicWarning")
    def test_matches_high_precision_anywhere(self, point, s_sign, u):
        # the count of W with c = 1, and energy_counts' count, which forms
        # W = c V on the rows it solves only
        try:
            params = HylleraasParams(M=1.0, s_sign=s_sign, **point)
        except DegenerateParams:
            assume(False)
        grid = default_grid(params, n=400)
        M, x = params.M, u * params.M
        w = 2.0 * (x + M) * potential_V(grid.points, params)
        sigma = x * x - M * M
        expected = sturm_count_hp(w, grid, sigma)
        assert SturmCounter(w, grid).count(1.0, sigma) == expected
        assert oracle.energy_counts(params, grid)(x) == expected

    # h = 1/16 exactly, so t = 2 + h^2 (W - sigma) is exact for these W
    ZERO_GRID = RadialGrid(r_min=0.0625, r_max=16.0, n=256)

    def test_exact_zero_minor(self):
        # t_0 = 0 exactly makes y_1 = 0: it takes the sign opposite to y_0,
        # then y_2 = -y_0 continues with that sign
        grid = self.ZERO_GRID
        assert grid.h == 0.0625
        w = np.zeros(grid.n)
        w[0] = -2.0 / grid.h ** 2
        assert 2.0 + grid.h ** 2 * (w[0] - 0.0) == 0.0
        assert SturmCounter(w, grid).count(1.0, 0.0) == sturm_count_hp(w, grid, 0.0) == 1

    def test_exact_zero_last_minor(self):
        # t = 2 gives y_k = k + 1, and t_(N-1) = (N-1)/N then gives y_N = 0:
        # sigma = 0 is a simple eigenvalue with every other one above it
        grid = self.ZERO_GRID
        w = np.zeros(grid.n)
        w[-1] = -257.0
        assert 2.0 + grid.h ** 2 * w[-1] == (grid.n - 1) / grid.n
        assert SturmCounter(w, grid).count(1.0, 0.0) == 1
        assert SturmCounter(w, grid).count(1.0, -1e-9) == 0

    def test_overflow_restart(self, band_solves):
        # sigma above the spectrum (4/h^2 + max W): every t < -2, so y
        # alternates and grows by |t| per step and passes 1e100 many times
        params, grid = B_NEGATIVE_WELL.replace(D_e=5000.0), well_grid(1000)
        w = 2.0 * (0.5 + params.M) * potential_V(grid.points, params)
        sigma = 1e5
        assert sigma > 4.0 / grid.h ** 2 + float(np.max(w))
        assert SturmCounter(w, grid).count(1.0, sigma) == sturm_count_hp(w, grid, sigma) == grid.n
        assert sum(k is not None for k in band_solves) >= 3

    def test_tail_stop(self, solved_rows):
        # W ~1e26 at the far wall: the count stops soon after the last
        # W < sigma and still agrees with the full 60-digit count
        grid = default_grid(HUGE_W_PARAMS, n=4000)
        M, v = HUGE_W_PARAMS.M, potential_V(grid.points, HUGE_W_PARAMS)
        for x in (-0.9, -0.0873129, 0.5):
            w, sigma = 2.0 * (x + M) * v, x * x - M * M
            solved_rows.clear()
            assert SturmCounter(w, grid).count(1.0, sigma) == sturm_count_hp(w, grid, sigma)
            assert sum(solved_rows) < grid.n / 4

    def test_tail_stop_waits_for_a_late_crossing(self):
        # a square well, W = 0 on the first 100 points and 4 beyond: just
        # above its eigenvalue, y decays through the barrier for about a
        # thousand rows before it crosses zero, far past 4x the last W < sigma
        grid = RadialGrid(r_min=0.01, r_max=40.0, n=4000)
        w = np.where(np.arange(grid.n) < 100, 0.0, 4.0)
        lam = float(stebz_eigenvalues(w, grid, 1)[0])
        assert lam < 4.0
        counter = SturmCounter(w, grid)
        for sigma, count in ((lam * (1 + 1e-9), 1), (lam * (1 - 1e-9), 0)):
            assert counter.count(1.0, sigma) == sturm_count_hp(w, grid, sigma) == count

    def test_work_stays_near_the_allowed_region(self, solved_rows):
        # the count at the refinement well's level, where y decays longest
        # past the turning point, solves a small part of the finest grid
        params, grid = B_NEGATIVE_WELL.replace(D_e=5000.0), well_grid(16000)
        E = solve_relativistic(params, 0, grid).E
        w = 2.0 * (E + params.M) * potential_V(grid.points, params)
        solved_rows.clear()
        SturmCounter(w, grid).count(1.0, E * E - params.M ** 2)
        assert 0 < sum(solved_rows) < grid.n / 4

    def test_oracle_work_counts(self, monkeypatch):
        # every default level lies in the first seed interval: two seed counts
        # serve all four.  Halving it until its end counts differ by one
        # isolates each level, on midpoints the four share through one memo
        # (four in all); Brent refines each on the last minor in 7 to 10
        # sweeps, and two counts around its root certify it.  No eigensolve.
        # Count bisection to E_TOL_REL * M took 112 counts.
        config = default_config()
        seeds = oracle.seed_energies(config.params.M)
        per_level, counts, eigensolves = [], [], []
        count, last_minor = oracle.SturmCounter.count, oracle._last_minor
        solve, eigen = oracle.solve_relativistic, oracle.eigen_tridiagonal

        def counted_count(self, c, sigma):
            counts.append(sigma)
            return count(self, c, sigma)

        def counted_minor(*args):
            minor = last_minor(*args)

            def swept(x):
                per_level[-1][1] += 1
                return minor(x)
            return swept

        def grouped_solve(*args):
            per_level.append([[], 0])
            return solve(*args)

        def counted_eigen(*args, **kwargs):
            eigensolves.append(args[2:])
            return eigen(*args, **kwargs)

        record_energy_counts(monkeypatch, lambda x, _: per_level[-1][0].append(x))
        monkeypatch.setattr(oracle.SturmCounter, "count", counted_count)
        monkeypatch.setattr(oracle, "_last_minor", counted_minor)
        monkeypatch.setattr(oracle, "solve_relativistic", grouped_solve)
        monkeypatch.setattr(oracle, "eigen_tridiagonal", counted_eigen)
        results = solve_levels(config.params, range(4), config.grid())
        assert [len(levels) for levels in results.values()] == [1, 1, 1, 1]
        assert all(not level.flags for [level] in results.values())
        assert eigensolves == []
        assert len(per_level) == 4
        distinct = list(dict.fromkeys(x for xs, _ in per_level for x in xs))
        assert [x for x in distinct if x in seeds] == seeds[:2]
        assert len(counts) == len(distinct) == 14
        for (xs, sweeps), [level] in zip(per_level, results.values()):
            # the last two counts of each level are its certificate
            assert xs[-2:] == [level.E - level.residual, level.E + level.residual]
            assert 7 <= sweeps <= 10
        assert sum(sweeps for _, sweeps in per_level) == 34

    def test_counts_touch_only_the_rows_they_solve(self):
        # the count at the refinement well's level solves a small part of the
        # finest grid, and allocates far less than one N-long array: W, the
        # band and y live only on the solved rows or in the grid's buffers
        params, grid = B_NEGATIVE_WELL.replace(D_e=5000.0), well_grid(16000)
        counts = oracle.energy_counts(params, grid)
        E = solve_relativistic(params, 0, grid, counts).E
        x = math.nextafter(E, 1.0)
        memo = counts.cache_info().currsize
        tracemalloc.start()
        try:
            counts(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # x was not in the memo: this call counted it
        assert counts.cache_info().currsize == memo + 1
        assert peak < 8 * grid.n / 2


class TestTailRule:
    """SturmCounter.tail, a binary search of v's suffix extrema, against the
    last fl(c v_k) < sigma found by a full scan."""

    @staticmethod
    def scanned(c, v, sigma):
        below = np.flatnonzero(c * v < sigma)
        return int(below[-1]) + 1 if below.size else 0

    def check(self, v, c, sigma):
        counter = oracle.SturmCounter(v, RadialGrid(r_min=0.01, r_max=10.0, n=len(v)))
        assert counter.tail(c, sigma) == self.scanned(c, v, sigma)
        return counter.tail(c, sigma)

    def test_sigma_equal_to_a_product(self):
        # sigma at fl(c v_k) itself, which is not below it, and at the
        # floats on either side
        v = potential_V(well_grid(1000).points, B_NEGATIVE_WELL)
        for c in (2.0 * (0.3 + 1.0), 1.0, 0.7071067811865476, -1.9):
            for k in (0, 1, 17, 500, 998, 999):
                sigma = c * float(v[k])
                for s in (math.nextafter(sigma, -math.inf), sigma,
                          math.nextafter(sigma, math.inf)):
                    self.check(v, c, s)

    def test_flat_plateaus(self):
        v = np.repeat([3.0, 1.0, 1.0, 2.0, 0.5, 0.5, 4.0, 4.0], 25)
        for c in (1.0, 1.5, -1.5, 0.0):
            for u in (0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0):
                for s in (math.nextafter(c * u, -math.inf), c * u,
                          math.nextafter(c * u, math.inf)):
                    self.check(v, c, s)

    def test_no_row_and_every_row(self):
        v = potential_V(well_grid(1000).points, B_NEGATIVE_WELL)
        c = 1.3
        assert self.check(v, c, c * float(np.min(v))) == 0
        assert self.check(v, c, -math.inf) == 0
        assert self.check(v, c, math.nextafter(c * float(v[-1]), math.inf)) == len(v)
        assert self.check(v, c, math.inf) == len(v)

    @given(point=st.fixed_dictionaries({name: st.floats(lo, hi)
                                        for name, (lo, hi) in SWEEP_BOX.items()}),
           s_sign=st.sampled_from(SSign),
           u=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
           k=st.integers(0, 399))
    @settings(max_examples=60, deadline=None)
    def test_sweep_box_grids(self, point, s_sign, u, k):
        try:
            params = HylleraasParams(M=1.0, s_sign=s_sign, **point)
        except DegenerateParams:
            assume(False)
        v = potential_V(default_grid(params, n=400).points, params)
        c = 2.0 * (u + params.M)
        for sigma in (u * u - params.M ** 2, c * float(v[k])):
            self.check(v, c, sigma)
            self.check(v, -c, sigma)


def sturm_count_hp(w, grid, sigma):
    """The Sturm count of -d^2/dr^2 + W in 60-digit arithmetic: the number of
    negative pivots of T - sigma.  A pivot that is exactly 0 counts as
    negative and goes on as a negligible negative one, as in LAPACK stebz."""
    diag, off = tridiagonal(w, grid)
    with mpmath.workdps(60):
        off2 = mpmath.mpf(float(off[0])) ** 2
        q, count = None, 0
        for d in diag.tolist():
            q = mpmath.mpf(d) - mpmath.mpf(sigma) - (off2 / q if q is not None else 0)
            if q == 0:
                q = -mpmath.mpf(10) ** -40
            count += q < 0
    return count


# c = 0 and s_sign negative: W grows like e^{2(1+K) w r}, ~1e26 at the far
# wall, and the value of g read off a computed eigenvalue is noise
HUGE_W_PARAMS = DEFAULT_PARAMS.replace(K=0.5, k1=0.5, k2=1.0, omega=1.0, D_e=1.0,
                                       s_sign=SSign.NEGATIVE)


@pytest.mark.filterwarnings("ignore::hykg.oracle.GridHeuristicWarning")
class TestCountBisection:
    # Brent on g returned NoRoot at N = 400 and -0.0733769, unflagged, at 4000
    @pytest.mark.parametrize("n_points, crossing", [(400, -0.5989846), (4000, -0.0873129)])
    def test_level_is_the_exact_count_crossing(self, monkeypatch, n_points, crossing):
        grid = default_grid(HUGE_W_PARAMS, n=n_points)
        counted = []
        record_energy_counts(monkeypatch, lambda x, count: counted.append((x, count)))
        level = solve_relativistic(HUGE_W_PARAMS, 0, grid)
        assert level.found
        assert abs(level.E - crossing) < 5e-8
        # the final bracket: the nearest counted energies on either side
        lo = max(c for c in counted if c[0] < level.E)
        hi = min(c for c in counted if c[0] > level.E)
        assert hi[0] - lo[0] <= E_TOL_REL * HUGE_W_PARAMS.M
        assert (lo[1] <= 0) != (hi[1] <= 0)
        M, v = HUGE_W_PARAMS.M, potential_V(grid.points, HUGE_W_PARAMS)
        for x, count in (lo, hi):
            assert sturm_count_hp(2.0 * (x + M) * v, grid, x * x - M * M) == count
        # the residual bounds |E - crossing|; the stebz |g_n| it replaced
        # read 8.6e9 at N = 400 and 1.6e4 at 4000
        assert level.residual <= E_TOL_REL * HUGE_W_PARAMS.M / 2
        ends = [sturm_count_hp(2.0 * (x + M) * v, grid, x * x - M * M) <= 0
                for x in (level.E - level.residual, level.E + level.residual)]
        assert ends[0] != ends[1]

    @given(point=st.fixed_dictionaries({name: st.floats(lo, hi)
                                        for name, (lo, hi) in SWEEP_BOX.items()}),
           s_sign=st.sampled_from(SSign))
    @settings(max_examples=30, deadline=None)
    def test_levels_are_count_crossings_anywhere(self, point, s_sign):
        try:
            params = HylleraasParams(M=1.0, s_sign=s_sign, **point)
        except DegenerateParams:
            assume(False)
        grid = default_grid(params, n=400)
        counts = oracle.energy_counts(params, grid)
        tol = E_TOL_REL * params.M
        for n, levels in solve_levels(params, range(4), grid).items():
            for level in levels:
                assert -params.M < level.E < params.M
                assert (counts(level.E - tol) <= n) != (counts(level.E + tol) <= n)
                # the residual is the final bracket's half-width: a bound on E
                assert 0 < level.residual <= tol / 2
                lo, hi = level.E - level.residual, level.E + level.residual
                assert (counts(lo) <= n) != (counts(hi) <= n)


def sweep_box_case(n_points, **point):
    """(params, [default grid], (3,)) of a `negative` sweep-box point."""
    params = HylleraasParams(M=1.0, s_sign=SSign.NEGATIVE, **point)
    return params, [default_grid(params, n_points)], (3,)


@pytest.mark.filterwarnings("ignore::hykg.oracle.GridHeuristicWarning")
class TestSeedSearch:
    """solve_relativistic's galloping n = 0 search and its isolation against
    the count-only walk of tests/_seed_walk.py: the isolation bracket that
    Brent refines bit for bit, and the certified level within
    E_TOL_REL * M of the walk's pure count crossing."""

    @staticmethod
    def assert_matches_the_walk(params, grid, ns=(0,)):
        for n in ns:
            brackets = []
            last_minor = oracle._last_minor

            def recorded(well, coeffs, lo, hi):
                brackets.append((lo.hex(), hi.hex()))
                return last_minor(well, coeffs, lo, hi)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(oracle, "_last_minor", recorded)
                level = solve_relativistic(params, n, grid)
            bracket = isolation_bracket(params, n, grid)
            if bracket is None:
                assert level.E is None and level.flags == frozenset({FLAG_NO_ROOT})
                assert count_crossing(params, n, grid) is None
                continue
            lo, hi = bracket
            tol = E_TOL_REL * params.M
            # a bracket that reaches tol before it is isolated is reported
            # as it stands, with no refinement
            assert brackets == ([(lo.hex(), hi.hex())] if hi - lo > tol else [])
            assert level.flags == frozenset()
            assert abs(level.E - count_crossing(params, n, grid)[0]) <= tol

    @given(point=st.fixed_dictionaries({name: st.floats(lo, hi)
                                        for name, (lo, hi) in SWEEP_BOX.items()}),
           s_sign=st.sampled_from(SSign))
    # c = 0: n = 0's bracket starts 1e-9 above -M, where W past the turning
    # point is tiny, and ends where it reaches 1e24, so that the pass to the
    # bracket's e outgrows the float range; divided by its WKB factor as a
    # plain ratio the minor divided by zero there
    @example(point={"K": 1.0, "k1": 1.0, "k2": 2.0, "omega": 0.109375, "D_e": 1.0},
             s_sign=SSign.NEGATIVE)
    @settings(max_examples=40, deadline=None)
    def test_matches_the_walk_on_the_sweep_box(self, point, s_sign):
        try:
            params = HylleraasParams(M=1.0, s_sign=s_sign, **point)
        except DegenerateParams:
            assume(False)
        self.assert_matches_the_walk(params, default_grid(params, n=400), range(4))

    @given(D_e=st.floats(1000.0, 5000.0))
    @settings(max_examples=20, deadline=None)
    def test_matches_the_walk_on_the_refinement_well(self, D_e):
        self.assert_matches_the_walk(B_NEGATIVE_WELL.replace(D_e=D_e), well_grid(1000))

    # (params, grids, ns) per case: both k2 = 0 slices of
    # tests/test_exact_reference.py, whose window levels lie outside (-M, M),
    # so that their levels here are box states; the free box, with no level;
    # the huge-W config; the refinement wells; and two sweep-box points where
    # Brent run to E_TOL_REL * M, not a quarter of it, stopped 7e-11 and
    # 5e-11 from the crossing, outside the certificate
    CERTIFIED = {
        "F3 negative": lambda: (
            HylleraasParams(K=2.0, k1=1.0, k2=0.0, omega=0.25, D_e=5.0, M=1.0,
                            s_sign=SSign.NEGATIVE),
            [RadialGrid(40.0 / n, 40.0, n) for n in (1000, 4000)], range(4)),
        "F3 positive": lambda: (
            HylleraasParams(K=2.0, k1=1.0, k2=0.0, omega=0.25, D_e=3.0, M=1.0,
                            s_sign=SSign.POSITIVE),
            [RadialGrid(40.0 / n, 40.0, n) for n in (1000, 4000)], range(4)),
        "free box": lambda: (DEFAULT_PARAMS.replace(D_e=0.0), [box_grid(L, 2000)], range(2)),
        "huge W": lambda: (HUGE_W_PARAMS,
                           [default_grid(HUGE_W_PARAMS, n) for n in (400, 4000)], range(4)),
        "well D_e=1000": lambda: (B_NEGATIVE_WELL,
                                  [well_grid(n) for n in (1000, 4000, 16000)], range(1)),
        "well D_e=5000": lambda: (B_NEGATIVE_WELL.replace(D_e=5000.0),
                                  [well_grid(n) for n in (1000, 16000)], range(1)),
        "sweep box N=4000": lambda: sweep_box_case(
            4000, K=2.241117910958737, k1=0.5466458759892674, k2=-0.5943070988384872,
            omega=0.6313079913505477, D_e=3.993580861435585),
        "sweep box N=1000": lambda: sweep_box_case(
            1000, K=0.853006021178419, k1=1.8440066873922936, k2=1.0130451605905364,
            omega=0.2523609182119877, D_e=2.706532887943029),
    }

    @pytest.mark.parametrize("case", list(CERTIFIED))
    def test_certified_level_is_the_count_crossing(self, case):
        params, grids, ns = self.CERTIFIED[case]()
        for grid in grids:
            self.assert_matches_the_walk(params, grid, ns)

    @pytest.mark.parametrize("fault", ["wrong root", "no sign change"])
    def test_certification_catches_a_wrong_refinement(self, monkeypatch, fault):
        # Brent refines a minor shifted by 1e-6, or one with no sign change,
        # on which it raises: either way the level is the walk's pure count
        # crossing, bit for bit, flagged as the fallback
        last_minor = oracle._last_minor

        def faulty(well, coeffs, lo, hi):
            minor = last_minor(well, coeffs, lo, hi)
            return (lambda x: minor(x - 1e-6)) if fault == "wrong root" else (lambda x: 1.0)

        monkeypatch.setattr(oracle, "_last_minor", faulty)
        grid = well_grid(1000)
        level = solve_relativistic(B_NEGATIVE_WELL, 0, grid)
        E, residual = count_crossing(B_NEGATIVE_WELL, 0, grid)
        assert (level.E.hex(), level.residual.hex()) == (E.hex(), residual.hex())
        assert level.flags == frozenset({FLAG_COUNT_FALLBACK})

    def test_count_bound(self, monkeypatch):
        # the level lies in seed interval 61: the walk counted seeds 0..62
        # and the bisection 29 midpoints, 92 counts.  The search counts seeds
        # 0, 1, 3, 7, 15, 31, 63 and halves (31, 63) in five more, which
        # leaves it isolated; Brent refines it in six sweeps and two counts
        # certify it.  Count bisection to E_TOL_REL * M took 41 counts.
        counted, sweeps = [], []
        count, last_minor = oracle.SturmCounter.count, oracle._last_minor

        def counted_count(self, c, sigma):
            counted.append(sigma)
            return count(self, c, sigma)

        def counted_minor(*args):
            minor = last_minor(*args)
            return lambda x: sweeps.append(x) or minor(x)

        monkeypatch.setattr(oracle.SturmCounter, "count", counted_count)
        monkeypatch.setattr(oracle, "_last_minor", counted_minor)
        level = solve_relativistic(B_NEGATIVE_WELL, 0, well_grid(1000))
        assert level.found and not level.flags
        assert len(counted) == 14
        assert len(sweeps) == 6

    def test_nonzero_first_count_walks(self):
        # count(x0) >= 1 leaves the zero counts no prefix: every seed up to
        # the first zero count is asked for in turn
        seeds = oracle.seed_energies(1.0)
        asked = []

        def counts(x):
            asked.append(x)
            return int(x < 0.3)

        # the well's own last minor has no root at 0.3, so the level is
        # certified by these counts only through the fallback
        counts.well = oracle._well(B_NEGATIVE_WELL, well_grid(1000))
        level = solve_relativistic(B_NEGATIVE_WELL, 0, well_grid(1000), counts)
        first_zero = next(i for i, x in enumerate(seeds) if x >= 0.3)
        assert list(dict.fromkeys(x for x in asked if x in seeds)) == seeds[:first_zero + 1]
        assert abs(level.E - 0.3) <= E_TOL_REL
        assert level.flags == frozenset({FLAG_COUNT_FALLBACK})

    def test_zero_counts_on_every_seed_have_no_root(self):
        seeds = oracle.seed_energies(1.0)
        asked = []

        def counts(x):
            asked.append(x)
            return 0

        level = solve_relativistic(B_NEGATIVE_WELL, 0, well_grid(1000), counts)
        assert level.E is None and level.flags == frozenset({FLAG_NO_ROOT})
        assert asked == [seeds[i] for i in (0, 1, 3, 7, 15, 31, 63, 64)]


class TestNumerovShooter:
    def test_one_integration_per_brent_evaluation(self, monkeypatch):
        # one Numerov pass per Brent evaluation, one at each end of the
        # bracket, handed to Brent, and one more at the root for the
        # residual and the node count
        grid = default_grid(DEFAULT_PARAMS, n=600)
        E = solve_relativistic(DEFAULT_PARAMS, 0, grid).E
        lo, hi = E - 0.005, E + 0.005
        counts = {"defect": 0, "fevals": 0}
        defect, brent = oracle.numerov_defect, oracle.brent

        def counted_defect(*args):
            counts["defect"] += 1
            return defect(*args)

        def counted_brent(f, a, b, fa, fb, tol):
            def counted_f(x):
                counts["fevals"] += 1
                return f(x)
            return brent(counted_f, a, b, fa, fb, tol)

        monkeypatch.setattr(oracle, "numerov_defect", counted_defect)
        monkeypatch.setattr(oracle, "brent", counted_brent)
        shot = numerov_shoot(DEFAULT_PARAMS, 0, grid, (lo, hi))
        assert shot.found
        assert counts["fevals"] > 0
        assert counts["defect"] == counts["fevals"] + 3
        # the residual is the minor at the root, evaluated as the shooter does
        M, E = DEFAULT_PARAMS.M, shot.E
        well = SturmCounter(potential_V(grid.points, DEFAULT_PARAMS), grid)
        minor = oracle._last_minor(well, lambda x: (2.0 * (x + M), x * x - M * M), lo, hi,
                                   numerov=True)
        assert shot.residual == abs(minor(E))

    def test_one_well_per_params_and_grid(self, monkeypatch):
        # the level's counts and the shot's defects read one V, sampled once,
        # though each call is given a grid of its own
        sampled = []
        sample = oracle.potential_V

        def counted_sample(r, params):
            sampled.append(params)
            return sample(r, params)

        monkeypatch.setattr(oracle, "potential_V", counted_sample)
        oracle._well.cache_clear()
        E = solve_relativistic(B_NEGATIVE_WELL, 0, well_grid(1000)).E
        assert numerov_shoot(B_NEGATIVE_WELL, 0, well_grid(1000), (E - 0.05, E + 0.05)).found
        assert sampled == [B_NEGATIVE_WELL]

    def test_shared_well_is_read_only(self):
        well = oracle._well(B_NEGATIVE_WELL, well_grid(1000))
        with pytest.raises(ValueError, match="read-only"):
            well.v[0] = 0.0

    @pytest.mark.parametrize("n", [4000, 16000])
    def test_huge_w_never_rescales(self, band_solves, n):
        # the Numerov pass ends before the far wall's B <= 0 rows, where t
        # reads about -10 and z passed 1e100 every ~100 rows: an inward pass
        # from the far wall rescaled 986 times per shoot at N = 4000 and
        # 4,290 at N = 16000
        grid = default_grid(HUGE_W_PARAMS, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridHeuristicWarning)
            E = solve_relativistic(HUGE_W_PARAMS, 0, grid).E
        band_solves.clear()
        shot = numerov_shoot(HUGE_W_PARAMS, 0, grid, (E - 0.05, E + 0.05))
        assert shot.found
        assert shot.flags == frozenset()
        assert band_solves and all(j is None for j in band_solves)

    def test_wrong_state_is_flagged(self):
        # n = 0 asked on the bracket of the n = 1 level at the defaults: the
        # root is that level, and the node count finds its one node
        grid = default_grid(DEFAULT_PARAMS, n=1500)
        E = solve_relativistic(DEFAULT_PARAMS, 1, grid).E
        wrong, right = (numerov_shoot(DEFAULT_PARAMS, n, grid, (E - 0.005, E + 0.005))
                        for n in (0, 1))
        assert wrong.found and wrong.E == right.E
        assert wrong.flags == frozenset({FLAG_NODE_MISMATCH})
        assert right.flags == frozenset()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_refinement_wells_are_not_flagged(self, workloads, seed):
        # the node count reads y only up to one row past the last
        # classically allowed one: at Brent's root the pass still carries
        # the solution that grows outward, at about the root's error times
        # e^D, and counted on every row to e it flagged levels of these
        # wells NodeMismatch
        for i in range(workloads.REFINEMENT_BLOCK):
            params = workloads.well_params(workloads.refinement_d_e(seed, i))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", GridHeuristicWarning)
                study = workloads.refinement_study(params, workloads.refinement_grids())
            assert all(level.found and not level.flags for level in study.numerov)

    def test_no_sign_change(self):
        # free particle in a box: no level below the first box eigenvalue
        grid = box_grid(L, 400)
        exact = (math.pi / L) ** 2
        with pytest.raises(ValueError, match="no sign change"):
            numerov_eigenvalue(np.zeros(grid.n), grid, (0.2 * exact, 0.5 * exact))
        params = DEFAULT_PARAMS.replace(D_e=0.0)
        level = numerov_shoot(params, 0, default_grid(params, n=400), (-0.9, -0.8))
        assert not level.found
        assert level.flags == frozenset({FLAG_NO_ROOT})


def reference_outward(q, h, upto, rescales):
    """The per-sample Numerov recurrence in y that the banded solve of z = B y
    replaced, verbatim, from the ghost point y(-1) = 0 and y[0] = h.  It
    rescales where the z form does: where |B[k] y[k]| first passes
    _RESCALE, samples 0..k are divided by it, and k is recorded."""
    t = h * h / 12.0
    y = [0.0] * (upto + 1)
    y[0] = h
    for i in range(upto):
        back = (1.0 - t * q[i - 1]) * y[i - 1] if i else 0.0
        y[i + 1] = (2.0 * (1.0 + 5.0 * t * q[i]) * y[i] - back) / (1.0 - t * q[i + 1])
        scale = abs((1.0 - t * q[i + 1]) * y[i + 1])
        if scale > oracle._RESCALE:
            rescales.append(i + 1)
            for j in range(i + 2):
                y[j] /= scale
    return y


def reference_z(t, z0, rescales):
    """The per-sample z recurrence z[i+1] = t[i] z[i] - z[i-1] from z[-1] = 0
    and z[0] = z0, with the sweep's rescale rule: returns z[0..len(t)], and
    the samples at which it rescaled are recorded."""
    z = [0.0, z0]
    for ti in t:
        z.append(ti * z[-1] - z[-2])
        if abs(z[-1]) > oracle._RESCALE:
            rescales.append(len(z) - 2)
            scale = abs(z[-1])
            z = [x / scale for x in z]
    return z[1:]


# the b < 0 well of scripts/convergence_study.py (bench/workloads.well_params
# at D_e = 1000) on r_max = 10 grids
B_NEGATIVE_WELL = DEFAULT_PARAMS.replace(K=1.2, k1=1.0, k2=-0.5, D_e=1000.0,
                                        s_sign=SSign.POSITIVE)


def well_grid(n):
    return RadialGrid(r_min=10.0 / n, r_max=10.0, n=n)


# the well's Numerov ground state at N = 1000
WELL_E0 = 0.9105063368870955


def well_q(n, E=WELL_E0):
    """q = W - Ebar of the well; E defaults to WELL_E0."""
    M, v = B_NEGATIVE_WELL.M, potential_V(well_grid(n).points, B_NEGATIVE_WELL)
    return 2.0 * (E + M) * v - (E * E - M * M)


def reference_defect(q, h, m):
    """The two-pass Numerov matching defect from the per-sample y
    recurrence: the centred Wronskian at m of the pass outward to m+1 and
    the pass inward from q's last row, the outward recurrence of the
    mirrored q, to m-1, each scaled to O(1) there."""
    n = len(q)
    out3 = reference_outward(q.tolist(), h, m + 1, [])[m - 1:]
    in3 = reference_outward(q[::-1].tolist(), h, n - m, [])[:-4:-1]
    s_out, s_in = max(map(abs, out3)), max(map(abs, in3))
    o0, o1, o2 = (y / s_out for y in out3)
    i0, i1, i2 = (y / s_in for y in in3)
    return o1 * (i2 - i0) / (2 * h) - i1 * (o2 - o0) / (2 * h)


def farthest_rows(q, m, h):
    """q up to the farthest row a Numerov pass may start on: the far wall,
    or the last row past m before B = 1 - h^2 q / 12 <= 0."""
    invalid = np.flatnonzero(q[m + 1:] * (h ** 2 / 12.0) >= 1.0)
    return q[:m + 1 + invalid[0]] if invalid.size else q


# the k2 = 0 slices of tests/test_exact_reference.py: D_e and the exact n = 0
# and 1 levels per s_sign
F3_D_E = {"negative": 5.0, "positive": 3.0}
F3_LEVELS = {"negative": (-3.13542028521466, -3.98871002601087),
             "positive": (3.98905584246971, 5.59630661721617)}


def level_bracket(params, grid):
    """(params, 0, grid, E -/+ 0.05) about solve_relativistic's ground state."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridHeuristicWarning)
        E = solve_relativistic(params, 0, grid).E
    return params, 0, grid, (E - 0.05, E + 0.05)


def f3_bracket(s_sign, n):
    """The exact F3 level's E -/+ 0.02, clipped to its window."""
    lo, hi = (float(E) for E in window(2.0, F3_D_E[s_sign], 1.0, s_sign))
    E = F3_LEVELS[s_sign][n]
    return max(E - 0.02, lo), min(E + 0.02, hi)


def numerov_t(q, h):
    """(t, B): t = 2 + h^2 q / B with B = 1 - h^2 q / 12, the Numerov steps
    of y'' = q y as the count's recurrence in z = B y, and the B that
    converts back: B[i+1] y[i+1] - A[i] y[i] + B[i-1] y[i-1] = 0 with
    A = 2 (1 + 5 h^2 q / 12) is z[i+1] = t[i] z[i] - z[i-1], t = A / B."""
    b = 1.0 - q * (h * h / 12.0)
    return 2.0 + q * (h * h) / b, b


def numerov_case(case):
    """(well, c, sigma), q = c well.v - sigma, of the four integrator cases:
    the well's and the huge-W config's level (B < 0 at its far wall), a
    steep q and a box level; and on the steep q's grid, "ramp", a q that
    turns at row 19 and reaches the decay depth only at row 213, and two
    steps of q at row 1500: "cliff" rises to B = 1/6 for five rows, then to
    B = -1/4, "wall" to B = -1/4 at once."""
    if case in ("steep", "ramp", "cliff", "wall"):
        grid = RadialGrid(r_min=0.01, r_max=30.0, n=3000)
        v = np.linspace(1e4, 3e4, grid.n)
        if case == "ramp":
            v = np.linspace(-100.0, 14900.0, grid.n)
        elif case != "steep":
            v[:1500], v[1500:] = -100.0, 1.5e5
            if case == "cliff":
                v[1500:1505] = 1e5
        return SturmCounter(v, grid), 1.0, 0.0
    if case == "box":
        grid = box_grid(L, 4000)
        return SturmCounter(np.zeros(grid.n), grid), 1.0, (3 * math.pi / L) ** 2
    params = B_NEGATIVE_WELL if case == "well" else HUGE_W_PARAMS
    grid = well_grid(16000) if case == "well" else default_grid(params, n=4000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridHeuristicWarning)
        E = solve_relativistic(params, 0, grid).E
    M = params.M
    return SturmCounter(potential_V(grid.points, params), grid), 2.0 * (E + M), E * E - M * M


class TestNumerovIntegrator:
    @staticmethod
    def agree(y, ref, rel=1e-12):
        # relative to the largest sample so far: rounding differences of the
        # two evaluation orders grow with the recurrence, not with |y[i]|,
        # which passes through zero at every node; samples rescaled to
        # subnormals carry no relative precision, so they are compared
        # absolutely, at the smallest normal float
        envelope = np.maximum.accumulate(np.abs(ref))
        assert np.all(np.abs(y - ref) <= rel * envelope + np.finfo(float).tiny)

    def check(self, band_solves, q, h, upto, y_rel=1e-12):
        """Samples 0..upto of the sweep of q's Numerov t from z[0] = B[0] h,
        taken both from t and, as an inward pass takes it, from the reversed
        t of the mirrored q: z against the per-sample z recurrence, which must
        also rescale as often, and y = z / B against the per-sample y
        recurrence, to y_rel of its envelope.  The sweep makes one band
        solve, and one more after each rescale.  Returns the rescale count."""
        t, b = numerov_t(q, h)
        expected = []
        z_ref = np.array(reference_z(t[:upto].tolist(), b[0] * h, expected))
        y_ref = np.array(reference_outward(q.tolist(), h, upto, []))
        mirrored, _ = numerov_t(q[::-1].copy(), h)
        for tt in (t[:upto], mirrored[len(q) - upto:][::-1]):
            band_solves.clear()
            z = oracle._numerov_sweep(tt, b[0] * h)
            assert z.shape == (upto + 1,)
            assert len(band_solves) == len(expected) + 1
            assert np.all(np.abs(z) <= oracle._RESCALE)
            self.agree(z, z_ref)
            self.agree(z / b[:upto + 1], y_ref, y_rel)
        return len(expected)

    @pytest.mark.parametrize("upto", [0, 1, 2, 999])
    def test_short_and_full_ranges(self, band_solves, upto):
        q = well_q(1000)[::-1]
        self.check(band_solves, q, well_grid(1000).h, upto)

    def test_free_box_never_rescales(self, band_solves):
        # the lowest box level: one half-wave, bounded everywhere.  The
        # near-double root of the recurrence turns a last-bit difference of
        # its coefficient into a growing phase drift: against the recurrence
        # in exact arithmetic, y = z / B drifts by 1.6e-12 of the envelope at
        # N = 400 and the per-sample y form, whose t is A / B of the rounded
        # A and B, by 3.9e-12; the two forms differ by 2.3e-12.  So the box
        # compares y at 1e-11 of the envelope, the well and the steep q at
        # 1e-12.
        grid = box_grid(L, 400)
        q = np.full(grid.n, -(math.pi / L) ** 2)
        assert self.check(band_solves, q, grid.h, grid.n - 1, y_rel=1e-11) == 0

    @pytest.mark.parametrize("n", [1000, 16000])
    def test_well_both_directions(self, band_solves, n):
        # the two ranges of a two-pass matching on Numerov's t, the passes
        # of eigenvector_tridiagonal: outward to the matching point, and
        # inward from the far wall back to it, which is the outward sweep
        # of the mirrored q
        q, h = well_q(n), well_grid(n).h
        m = oracle._matching_index(q)
        outward = self.check(band_solves, q, h, m + 1)
        inward = self.check(band_solves, q[::-1], h, n - m)
        assert outward + inward >= 1

    def test_steep_q_rescales_repeatedly(self, band_solves):
        # growth e^(h sqrt(q)) = e per step passes 1e100 every ~230 samples
        q = np.full(1000, 1e4)
        assert self.check(band_solves, q, 0.01, 999) >= 3

    @pytest.mark.parametrize("case", ["well", "huge-w", "steep", "box"])
    def test_defect_keeps_its_value_and_sign(self, case):
        # The Numerov last minor is the two-pass matching defect of the
        # per-sample y recurrence times factors of one sign: the Casoratian
        # of the outward and inward passes, matched where the inward one
        # starts, is -z_(e+1) times its first z, and the defect is the same
        # Casoratian times positive scales.  The pass starts at z_0 = B_0,
        # so y = 1 at row 0, and ends before any B <= 0 row, as the huge-W
        # config's far rows are.  Ebar is 0.1 below each case's level, where
        # the defect (0.07 to 23 in size) stands far above rounding.  The
        # reference's inward pass starts at the minor's last row e, and
        # again at the farthest row a pass may start on: the far wall, or on
        # the huge-W config row 841, the last before B <= 0.
        # test_root_is_the_reference_defect_root checks the minor's value
        # where it matters, at its root.
        well, c, sigma = numerov_case(case)
        sigma -= 0.1
        minor = oracle._last_minor(well, lambda s: (c, s), sigma, sigma, numerov=True)
        got = minor(sigma)
        m, e = minor.rows
        q = c * well.v - sigma
        assert got != 0.0
        for start in (q[:e + 1], farthest_rows(q, m, well.h)):
            want = reference_defect(start, well.h, m)
            assert want != 0.0
            assert math.copysign(1.0, got) == -math.copysign(1.0, want)

    # (params, n, grid, bracket) of each level: the well's and the huge-W
    # config's ground state at their numerov_case grids, on the level's
    # E -/+ 0.05, and the four F3 levels of tests/test_exact_reference.py at
    # N = 2000, on the exact E -/+ 0.02 clipped to the window of bound states
    ROOT_CASES = {
        "well": lambda: level_bracket(B_NEGATIVE_WELL, well_grid(16000)),
        "huge-w": lambda: level_bracket(HUGE_W_PARAMS, default_grid(HUGE_W_PARAMS, n=4000)),
        **{f"F3 {s} n={n}": (lambda s=s, n=n: (
            HylleraasParams(K=2.0, k1=1.0, k2=0.0, omega=0.25, D_e=F3_D_E[s], M=1.0,
                            s_sign=SSign(s)), n, RadialGrid(40.0 / 2000, 40.0, 2000),
            f3_bracket(s, n)))
           for s in F3_LEVELS for n in (0, 1)},
    }

    @pytest.mark.parametrize("case", list(ROOT_CASES))
    def test_root_is_the_reference_defect_root(self, case):
        # Brent to 1e-13 M on the Numerov last minor and on the two-pass
        # defect of the per-sample y recurrence, from the farthest row a
        # pass may start on, give one root to E_TOL_REL * M: one outward
        # pass to the depth _DEPTH finds the level of the whole operator
        params, n, grid, (lo, hi) = self.ROOT_CASES[case]()
        M = params.M
        well = SturmCounter(potential_V(grid.points, params), grid)

        def coeffs(x):
            return 2.0 * (x + M), x * x - M * M

        def reference(x):
            c, sigma = coeffs(x)
            q = c * well.v - sigma
            m = oracle._matching_index(q)
            return reference_defect(farthest_rows(q, m, well.h), well.h, m)

        tol = 1e-13 * M
        minor = oracle._last_minor(well, coeffs, lo, hi, numerov=True)
        got = oracle.brent(minor, lo, hi, minor(lo), minor(hi), tol)
        want = oracle.brent(reference, lo, hi, reference(lo), reference(hi), tol)
        assert abs(got - want) <= E_TOL_REL * M

    @pytest.mark.parametrize("case", ["well", "huge-w", "steep", "box", "ramp", "cliff",
                                      "wall"])
    @pytest.mark.parametrize("shift", [-1.0, -0.1, 0.0, 0.1, 1.0])
    def test_rows_match_the_whole_q(self, case, shift):
        # the defect's q is the whole q's rows 0..e bit for bit, its m is
        # _matching_index of the whole q, and e is the first row past m at
        # depth _DEPTH, the last before a B <= 0, or the far wall: the ramp
        # reaches the depth past the rows first formed, 6 (m + 8); on the
        # cliff the depth reaches only 16 before B <= 0 at row 1505, and on
        # the wall B <= 0 right past m, where no row can start the pass
        well, c, sigma = numerov_case(case)
        sigma += shift
        m, rows = oracle._depth_rows(well, c, sigma, True)
        q, h, e = c * well.v - sigma, well.h, len(rows) - 1
        assert m == oracle._matching_index(q)
        assert e == {"ramp": 213, "cliff": 1504, "wall": len(q) - 1}.get(case, e)
        assert np.array_equal(rows, q[:e + 1])
        if e < len(q) - 1:
            past = q[m + 1:e + 1]
            assert not np.any(past * (h * h / 12.0) >= 1.0)
            depth = np.cumsum(np.sqrt(past))  # D / h
            assert np.all(depth[:-1] < oracle._DEPTH / h)
            assert depth[-1] >= oracle._DEPTH / h or q[e + 1] * (h * h / 12.0) >= 1.0

    def test_one_defect_solves_each_row_about_once(self, solved_rows, band_solves):
        # One Numerov pass on the well's finest grid is one band solve of
        # z_1..z_(e+1) from the ghost z_(-1) = 0 and z_0 = B_0, e + 1 rows.
        # The truncated operator ends at the decay depth _DEPTH, e < N / 4
        # here, and the pass grows past m by about e^_DEPTH, far below
        # _RESCALE, so it does not rescale and no row is solved twice; from
        # the far wall a pass solved 17.4k rows in windows.
        n = 16000
        grid = well_grid(n)
        well = SturmCounter(potential_V(grid.points, B_NEGATIVE_WELL), grid)
        E, M = WELL_E0, B_NEGATIVE_WELL.M
        c, sigma = 2.0 * (E + M), E * E - M * M
        m, rows = oracle._depth_rows(well, c, sigma, True)
        e = len(rows) - 1
        solved_rows.clear()
        oracle.numerov_defect(well, c, sigma, m, e)
        assert e < n // 4
        assert band_solves == [None]
        assert sum(solved_rows) == e + 1


class TestNumerovRegression:
    # numerov_shoot's E0 on the b < 0 well, recorded from the per-sample
    # recurrence before it became a banded solve (N = 1000 to 4000) and from
    # the banded solve whose inward pass started at the far wall (N = 8000,
    # 16000); Brent's tolerance is 1e-10 M, so a new rounding or start row
    # may move a root by far less than that
    RECORDED = {1000: 0.9105063368870955, 2000: 0.9105068762515323,
                4000: 0.9105069099548586, 8000: 0.9105069120609967,
                16000: 0.9105069121931914}

    @pytest.mark.parametrize("n", sorted(RECORDED))
    def test_ground_state_pinned(self, n):
        grid = well_grid(n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridHeuristicWarning)
            E = solve_relativistic(B_NEGATIVE_WELL, 0, grid).E
            shot = numerov_shoot(B_NEGATIVE_WELL, 0, grid, (E - 0.05, E + 0.05))
        assert shot.found
        assert shot.flags == frozenset()
        assert abs(shot.E - self.RECORDED[n]) <= 1e-11 * B_NEGATIVE_WELL.M


class TestPotential:
    def test_far_tail_is_finite(self):
        # 2 (1+K) w r_max = 750: exp(750) overflows, V's limit there is D_e
        params = DEFAULT_PARAMS.replace(s_sign=SSign.POSITIVE)
        grid = RadialGrid(r_min=500.0 / 4000, r_max=500.0, n=4000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = potential_V(grid.points, params)
        assert np.all(np.isfinite(v))
        assert v[-1] == params.D_e
        with pytest.raises(OutOfRange):
            s_of_r(grid.points, params.K, params.omega, params.s_sign)

    @pytest.mark.parametrize("s_sign", list(SSign))
    def test_array_is_pointwise_and_is_what_the_oracle_solves(self, s_sign):
        params = DEFAULT_PARAMS.replace(s_sign=s_sign)
        grid = default_grid(params, 4000)
        v = potential_V(grid.points, params)
        assert np.array_equal(v, [potential_V(r, params) for r in grid.points])
        E = -0.5
        assert np.array_equal(effective_potential(params, E, grid),
                              2.0 * (E + params.M) * v)


class TestSchrodinger:
    def test_free_box(self):
        params = DEFAULT_PARAMS.replace(D_e=0.0)
        grid = box_grid(L, 1500)
        for n in range(3):
            val = schrodinger_limit(params, n, grid)
            exact = ((n + 1) * math.pi / L) ** 2 / 2.0
            assert val == pytest.approx(exact, rel=1e-4)

    def test_monotone_in_prefactor(self):
        # doubling D_e shifts every eigenvalue of the (negative) well down
        grid = default_grid(DEFAULT_PARAMS, n=800)
        v1 = schrodinger_limit(DEFAULT_PARAMS.replace(D_e=0.5), 0, grid)
        v2 = schrodinger_limit(DEFAULT_PARAMS.replace(D_e=1.0), 0, grid)
        assert v2 < v1


# Runs in a fresh interpreter: the test process has long since loaded scipy.
_SHARED_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from hykg import oracle
grid = oracle.box_grid(20.0, 400)
assert oracle.SturmCounter(np.zeros(grid.n), grid).count(1.0, 0.05) == 1
fblas = sys.modules["scipy.linalg._fblas"]
assert "scipy" not in sys.modules and oracle.dtbsv is fblas.dtbsv
import scipy.linalg.blas
assert sys.modules["scipy.linalg._fblas"] is fblas
assert scipy.linalg.blas.dtbsv is oracle.dtbsv
"""


class TestScipyStandIns:
    def test_first_call_puts_scipy_in_place(self, monkeypatch):
        # a stand-in loads its routine on its first call and leaves it in
        # its place, so later calls go straight to scipy
        stand_in = oracle._on_first_call("scipy.linalg._fblas", "dtbsv")
        monkeypatch.setattr(oracle, "dtbsv", stand_in)
        grid = box_grid(L, 400)
        assert SturmCounter(np.zeros(grid.n), grid).count(1.0, 0.05) == 1
        assert oracle.dtbsv is dtbsv

    def test_a_substitute_keeps_its_place(self, monkeypatch):
        # a substitute that calls the stand-in it replaced is not displaced
        stand_in = oracle._on_first_call("scipy.linalg._fblas", "dtbsv")
        calls = []

        def substitute(*args, **kwargs):
            calls.append(len(args[2]))
            return stand_in(*args, **kwargs)

        monkeypatch.setattr(oracle, "dtbsv", substitute)
        grid = box_grid(L, 400)
        for _ in range(2):
            assert SturmCounter(np.zeros(grid.n), grid).count(1.0, 0.05) == 1
        assert oracle.dtbsv is substitute
        assert len(calls) >= 2

    @pytest.mark.parametrize("module, searched", [
        ("scipy.linalg._no_such_extension", "linalg/_no_such_extension"),
        ("no_such_package_here._fblas", "sys.path"),
    ])
    def test_a_missing_extension_raises_import_error(self, monkeypatch, module, searched):
        # no fallback: the first call names the path it searched, and the
        # stand-in stays in place
        stand_in = oracle._on_first_call(module, "dtbsv")
        monkeypatch.setattr(oracle, "dtbsv", stand_in)
        grid = box_grid(L, 400)
        with pytest.raises(ImportError, match=searched):
            SturmCounter(np.zeros(grid.n), grid).count(1.0, 0.05)
        assert module not in sys.modules
        assert oracle.dtbsv is stand_in

    def test_a_later_scipy_import_shares_the_routine(self):
        # in a fresh interpreter the first count loads the extension module
        # from its file; scipy.linalg.blas, imported afterwards, re-exports
        # the same routine from that module rather than loading it again
        src = Path(oracle.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", _SHARED_SCRIPT, str(src)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_dtbsv_is_the_only_scipy_routine(self):
        # scipy is reached only through _on_first_call, and only for
        # scipy.linalg._fblas's dtbsv
        routines = []
        for path in sorted(Path(oracle.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    modules = [alias.name for alias in node.names]
                    modules.append(getattr(node, "module", None) or "")
                    assert not any(m.startswith("scipy") for m in modules), path
                if isinstance(node, ast.Call) and any(
                        isinstance(a, ast.Constant) and str(a.value).startswith("scipy")
                        for a in node.args):
                    assert getattr(node.func, "id", None) == "_on_first_call", path
                    routines.append((node.args[0].value, node.args[1].value))
        assert routines == [("scipy.linalg._fblas", "dtbsv")]


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            RadialGrid(r_min=0.1, r_max=10.0, n=100)
        with pytest.raises(ValueError):
            RadialGrid(r_min=0.0, r_max=10.0, n=500)
        with pytest.raises(ValueError):
            RadialGrid(r_min=11.0, r_max=10.0, n=500)

    def test_default_grid_geometry(self):
        grid = default_grid(DEFAULT_PARAMS)
        assert grid.r_max == pytest.approx(40.0)
        assert grid.r_min == pytest.approx(grid.h, rel=1e-9)

    def test_origin_wall_mismatch_warns(self):
        grid = RadialGrid(r_min=0.05, r_max=10.0, n=1000)
        with pytest.warns(GridHeuristicWarning, match="r_min"):
            check_grid(grid, 0.0)

    def test_shipped_grids_do_not_warn(self):
        cfg = default_config()
        grids = [default_grid(DEFAULT_PARAMS), default_grid(DEFAULT_PARAMS, n=777),
                 cfg.grid(), replace(cfg, r_max=12.5, grid_n=3001).grid(),
                 box_grid(L, 2000), box_grid(7.3, 999)]
        # the refinement study's grids (bench/workloads.py)
        grids += [RadialGrid(r_min=10.0 / n, r_max=10.0, n=n)
                  for n in (1000, 2000, 4000, 8000, 16000)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", GridHeuristicWarning)
            for grid in grids:
                check_grid(grid, 0.0)

    @pytest.mark.parametrize("n", [1000, 16000])
    def test_refinement_solve_does_not_warn(self, n):
        # E0 of this well moves by < 1e-12 when r_max doubles at the same h,
        # so a short box is no grid fault here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solve_relativistic(B_NEGATIVE_WELL, 0, well_grid(n)).found

    def test_stencil_warning_fires(self):
        params = B_NEGATIVE_WELL.replace(D_e=5000.0)
        with pytest.warns(GridHeuristicWarning, match="stencil"):
            solve_relativistic(params, 0, well_grid(1000))

    def test_levels_check_their_grid_once(self):
        # the check does not depend on n: one per grid, not one per level
        params = B_NEGATIVE_WELL.replace(D_e=5000.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve_levels(params, range(4), well_grid(1000))
        assert [str(w.message) for w in caught
                if issubclass(w.category, GridHeuristicWarning)] == [
            "h^2 * max|W| >= 0.5; stencil accuracy is degraded"]

    def test_warning_names_the_calling_line(self):
        # the check runs inside the count memo that either entry builds, and
        # its warning points past both at the line that called the entry
        params, grid = B_NEGATIVE_WELL.replace(D_e=5000.0), well_grid(1000)
        for entry, n in ((solve_relativistic, 0), (solve_levels, (0,))):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                line = sys._getframe().f_lineno + 1
                entry(params, n, grid)
            assert [(w.filename, w.lineno) for w in caught
                    if issubclass(w.category, GridHeuristicWarning)] == [(__file__, line)]

    def test_warning_names_the_calling_line_on_a_cache_hit(self):
        # the second solve reads the well the first one built; the check
        # still runs, and its warning still names the calling line
        params, grid = B_NEGATIVE_WELL.replace(D_e=5000.0), well_grid(1000)
        oracle._well.cache_clear()
        for hits in (0, 1):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                line = sys._getframe().f_lineno + 1
                solve_relativistic(params, 0, grid)
            assert oracle._well.cache_info().hits == hits
            assert [(w.filename, w.lineno) for w in caught
                    if issubclass(w.category, GridHeuristicWarning)] == [(__file__, line)]

    def test_low_signal_flagged(self):
        slope, low = estimate_order([0.1, 0.05, 0.025], [1.0, 1.0, 1.0])
        assert low


class TestCountSignChanges:
    def test_positive_everywhere(self):
        assert count_sign_changes(np.ones(50)) == 0

    def test_sine_nodes(self):
        r = np.linspace(0, 1, 400)
        assert count_sign_changes(np.sin(3 * math.pi * r[1:-1])) == 2

    def test_noise_band_ignored(self):
        vals = np.ones(100)
        vals[50] = -1e-12
        assert count_sign_changes(vals) == 0
