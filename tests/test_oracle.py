import math
import tracemalloc
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import dtbsv

from hykg import oracle
from hykg.errors import DegenerateParams, NoRoot, OutOfRange
from hykg.hylleraas import DEFAULT_PARAMS, HylleraasParams, SSign, potential_V, s_of_r
from hykg.levels import FLAG_NO_ROOT, FLAG_NODE_MISMATCH
from hykg.config import default_config
from hykg.oracle import (
    E_TOL_REL,
    GridHeuristicWarning,
    RadialGrid,
    box_grid,
    check_grid,
    count_sign_changes,
    default_grid,
    effective_potential,
    eigen_tridiagonal,
    eigenvector_tridiagonal,
    numerov_eigenvalue,
    numerov_shoot,
    oracle_eigenvector,
    schrodinger_limit,
    solve_levels,
    solve_relativistic,
    sturm_count,
)
from hykg.rootfind import estimate_order

from test_closedform import SWEEP_BOX

L = 20.0


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
        # a view into stebz's N-long work array would keep that array alive
        grid = box_grid(L, 2000)
        for m, first in ((1, 0), (3, 0), (3, 2)):
            vals = eigen_tridiagonal(np.zeros(grid.n), grid, m, first=first)
            assert vals.base is None
            assert vals.nbytes == 8 * (m - first)

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
            vec = oracle_eigenvector(DEFAULT_PARAMS, level.E, grid, n)
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


@pytest.fixture
def solved_rows(monkeypatch):
    """The rows each oracle.dtbsv call solves, appended as the calls are made."""
    rows = []

    def recording(k, ab, x, **kwargs):
        rows.append(len(x) - 2)
        return dtbsv(k, ab, x, **kwargs)

    monkeypatch.setattr(oracle, "dtbsv", recording)
    return rows


class TestSturmCount:
    def test_free_box_counts(self):
        # the three-point box Laplacian has lambda_k = (4/h^2) sin^2(k pi / (2(N+1)))
        grid = box_grid(L, 1000)
        w = np.zeros(grid.n)
        k = np.arange(1, 13)
        exact = 4.0 / grid.h ** 2 * np.sin(k * math.pi / (2 * (grid.n + 1))) ** 2
        vals = eigen_tridiagonal(w, grid, 12)
        for i in range(11):
            sigma = 0.5 * (exact[i] + exact[i + 1])
            assert sturm_count(w, grid, sigma) == i + 1
            assert sturm_count(w, grid, sigma) == int(np.sum(vals <= sigma))

    def test_below_spectrum_is_zero_and_silent(self, capfd):
        grid = box_grid(L, 400)
        w = np.zeros(grid.n)
        for sigma in (0.5 * (math.pi / L) ** 2, 0.0, -1.0, -1e12):
            assert sturm_count(w, grid, sigma) == 0
        assert capfd.readouterr().err == ""

    def test_default_operator_agrees_with_eigenvalues(self):
        config = default_config()
        params, grid = config.params, config.grid()
        M = params.M
        for E in (-0.9, -0.5, 0.0, 0.3, 0.9):
            w = effective_potential(params, E, grid)
            sigma = E * E - M * M
            count = sturm_count(w, grid, sigma)
            vals = eigen_tridiagonal(w, grid, count + 1)
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
        for x in oracle.SeedCounts(params, grid).xs:
            w = 2.0 * (x + M) * v
            sigma = x * x - M * M
            assert sturm_count(w, grid, sigma) == sturm_count_hp(w, grid, sigma)

    @given(point=st.fixed_dictionaries({name: st.floats(lo, hi)
                                        for name, (lo, hi) in SWEEP_BOX.items()}),
           s_sign=st.sampled_from(SSign),
           u=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings("ignore::hykg.oracle.GridHeuristicWarning")
    def test_matches_high_precision_anywhere(self, point, s_sign, u):
        # sturm_count of W, and SeedCounts' count, which forms W = c V on
        # the rows it solves only
        try:
            params = HylleraasParams(M=1.0, s_sign=s_sign, **point)
        except DegenerateParams:
            assume(False)
        grid = default_grid(params, n=400)
        M, x = params.M, u * params.M
        w = 2.0 * (x + M) * potential_V(grid.points, params)
        sigma = x * x - M * M
        expected = sturm_count_hp(w, grid, sigma)
        assert sturm_count(w, grid, sigma) == expected
        assert oracle.SeedCounts(params, grid).at(x) == expected

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
        assert sturm_count(w, grid, 0.0) == sturm_count_hp(w, grid, 0.0) == 1

    def test_exact_zero_last_minor(self):
        # t = 2 gives y_k = k + 1, and t_(N-1) = (N-1)/N then gives y_N = 0:
        # sigma = 0 is a simple eigenvalue with every other one above it
        grid = self.ZERO_GRID
        w = np.zeros(grid.n)
        w[-1] = -257.0
        assert 2.0 + grid.h ** 2 * w[-1] == (grid.n - 1) / grid.n
        assert sturm_count(w, grid, 0.0) == 1
        assert sturm_count(w, grid, -1e-9) == 0

    def test_overflow_restart(self, monkeypatch):
        # sigma above the spectrum (4/h^2 + max W): every t < -2, so y
        # alternates and grows by |t| per step and passes 1e100 many times
        params, grid = B_NEGATIVE_WELL.replace(D_e=5000.0), well_grid(1000)
        w = 2.0 * (0.5 + params.M) * potential_V(grid.points, params)
        sigma = 1e5
        assert sigma > 4.0 / grid.h ** 2 + float(np.max(w))
        overs = []
        solve = oracle._band_solve

        def recording(*args, **kwargs):
            overs.append(solve(*args, **kwargs))
            return overs[-1]

        monkeypatch.setattr(oracle, "_band_solve", recording)
        assert sturm_count(w, grid, sigma) == sturm_count_hp(w, grid, sigma) == grid.n
        assert sum(k is not None for k in overs) >= 3

    def test_tail_stop(self, solved_rows):
        # W ~1e26 at the far wall: the count stops soon after the last
        # W < sigma and still agrees with the full 60-digit count
        grid = default_grid(HUGE_W_PARAMS, n=4000)
        M, v = HUGE_W_PARAMS.M, potential_V(grid.points, HUGE_W_PARAMS)
        for x in (-0.9, -0.0873129, 0.5):
            w, sigma = 2.0 * (x + M) * v, x * x - M * M
            solved_rows.clear()
            assert sturm_count(w, grid, sigma) == sturm_count_hp(w, grid, sigma)
            assert sum(solved_rows) < grid.n / 4

    def test_tail_stop_waits_for_a_late_crossing(self):
        # a square well, W = 0 on the first 100 points and 4 beyond: just
        # above its eigenvalue, y decays through the barrier for about a
        # thousand rows before it crosses zero, far past 4x the last W < sigma
        grid = RadialGrid(r_min=0.01, r_max=40.0, n=4000)
        w = np.where(np.arange(grid.n) < 100, 0.0, 4.0)
        lam = float(eigen_tridiagonal(w, grid, 1)[0])
        assert lam < 4.0
        for sigma, count in ((lam * (1 + 1e-9), 1), (lam * (1 - 1e-9), 0)):
            assert sturm_count(w, grid, sigma) == sturm_count_hp(w, grid, sigma) == count

    def test_work_stays_near_the_allowed_region(self, solved_rows):
        # the count at the refinement well's level, where y decays longest
        # past the turning point, solves a small part of the finest grid
        params, grid = B_NEGATIVE_WELL.replace(D_e=5000.0), well_grid(16000)
        E = solve_relativistic(params, 0, grid).E
        w = 2.0 * (E + params.M) * potential_V(grid.points, params)
        solved_rows.clear()
        sturm_count(w, grid, E * E - params.M ** 2)
        assert 0 < sum(solved_rows) < grid.n / 4

    def test_oracle_work_counts(self, monkeypatch):
        # every default level lies in the first seed interval: two seed counts
        # serve all four, each level bisects that interval (2M/64) to
        # E_TOL_REL * M in at most 29 counts and makes no eigensolve; one
        # memo counts each energy once, so the four walks share their seeds
        # and their common first midpoints
        config = default_config()
        seeds = oracle.SeedCounts(config.params, config.grid()).xs
        per_level, counts, eigensolves = [], [], []
        at, count = oracle.SeedCounts.at, oracle.SturmCounter.count
        solve, eigen = oracle.solve_relativistic, oracle.eigen_tridiagonal

        def recorded_at(self, x):
            per_level[-1].append(x)
            return at(self, x)

        def counted_count(self, c, sigma):
            counts.append(sigma)
            return count(self, c, sigma)

        def grouped_solve(*args):
            per_level.append([])
            return solve(*args)

        def counted_eigen(*args, **kwargs):
            eigensolves.append(args[2:])
            return eigen(*args, **kwargs)

        monkeypatch.setattr(oracle.SeedCounts, "at", recorded_at)
        monkeypatch.setattr(oracle.SturmCounter, "count", counted_count)
        monkeypatch.setattr(oracle, "solve_relativistic", grouped_solve)
        monkeypatch.setattr(oracle, "eigen_tridiagonal", counted_eigen)
        results = solve_levels(config.params, range(4), config.grid())
        assert [len(result.levels) for result in results.values()] == [1, 1, 1, 1]
        assert eigensolves == []
        assert len(per_level) == 4
        distinct = list(dict.fromkeys(x for xs in per_level for x in xs))
        assert [x for x in distinct if x in seeds] == seeds[:2]
        assert len(counts) == len(distinct) == 112
        assert all(0 < len([x for x in xs if x not in seeds]) <= 29 for xs in per_level)

    def test_counts_touch_only_the_rows_they_solve(self):
        # the count at the refinement well's level solves a small part of the
        # finest grid, and allocates far less than one N-long array: W, the
        # band and y live only on the solved rows or in the grid's buffers
        params, grid = B_NEGATIVE_WELL.replace(D_e=5000.0), well_grid(16000)
        seeds = oracle.SeedCounts(params, grid)
        E = solve_relativistic(params, 0, grid, seeds).E
        x = math.nextafter(E, 1.0)
        assert x not in seeds._memo
        tracemalloc.start()
        try:
            seeds.at(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
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
    """sturm_count of the same matrix, in 60-digit arithmetic: the number of
    negative pivots of T - sigma.  A pivot that is exactly 0 counts as
    negative and goes on as a negligible negative one, as in LAPACK stebz."""
    diag, off = oracle._operator(w, grid)
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
        at = oracle.SeedCounts.at

        def recording(self, x):
            counted.append((x, at(self, x)))
            return counted[-1][1]

        monkeypatch.setattr(oracle.SeedCounts, "at", recording)
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
        seeds = oracle.SeedCounts(params, grid)
        tol = E_TOL_REL * params.M
        for n, result in solve_levels(params, range(4), grid).items():
            for level in result.levels:
                assert -params.M < level.E < params.M
                assert (seeds.at(level.E - tol) <= n) != (seeds.at(level.E + tol) <= n)
                # the residual is the final bracket's half-width: a bound on E
                assert 0 < level.residual <= tol / 2
                lo, hi = level.E - level.residual, level.E + level.residual
                assert (seeds.at(lo) <= n) != (seeds.at(hi) <= n)


class TestNumerovShooter:
    def test_one_integration_per_brent_evaluation(self, monkeypatch):
        # Brent's own evaluations plus one at the root, which gives both the
        # assembled solution and the residual
        grid = default_grid(DEFAULT_PARAMS, n=600)
        E = solve_relativistic(DEFAULT_PARAMS, 0, grid).E
        counts = {"defect": 0, "fevals": 0}
        defect, brent = oracle.numerov_defect, oracle.brent

        def counted_defect(*args):
            counts["defect"] += 1
            return defect(*args)

        def counted_brent(f, *args):
            def counted_f(x):
                counts["fevals"] += 1
                return f(x)
            return brent(counted_f, *args)

        monkeypatch.setattr(oracle, "numerov_defect", counted_defect)
        monkeypatch.setattr(oracle, "brent", counted_brent)
        shot = numerov_shoot(DEFAULT_PARAMS, 0, grid, (E - 0.005, E + 0.005))
        assert shot.found
        assert counts["fevals"] > 2
        assert counts["defect"] == counts["fevals"] + 1
        M, v = DEFAULT_PARAMS.M, potential_V(grid.points, DEFAULT_PARAMS)
        q = 2.0 * (shot.E + M) * v - (shot.E * shot.E - M * M)
        assert shot.residual == abs(defect(q, grid.h)[0])

    def test_no_sign_change(self):
        # free particle in a box: no level below the first box eigenvalue
        grid = box_grid(L, 400)
        exact = (math.pi / L) ** 2
        with pytest.raises(NoRoot):
            numerov_eigenvalue(np.zeros(grid.n), grid, (0.2 * exact, 0.5 * exact))
        params = DEFAULT_PARAMS.replace(D_e=0.0)
        level = numerov_shoot(params, 0, default_grid(params, n=400), (-0.9, -0.8))
        assert not level.found
        assert level.flags == frozenset({FLAG_NO_ROOT})


def reference_outward(q, h, upto, rescales):
    """The per-sample recurrence the banded solve replaced, verbatim, plus a
    record of the samples at which it rescaled."""
    t = h * h / 12.0
    y = [0.0] * (upto + 1)
    y[0] = h
    if upto >= 1:
        # ghost point y(-1) = 0 contributes nothing to the first step
        y[1] = (2.0 * (1.0 + 5.0 * t * q[0]) * y[0]) / (1.0 - t * q[1])
    for i in range(1, upto):
        y[i + 1] = (2.0 * (1.0 + 5.0 * t * q[i]) * y[i]
                    - (1.0 - t * q[i - 1]) * y[i - 1]) / (1.0 - t * q[i + 1])
        if abs(y[i + 1]) > oracle._RESCALE:
            rescales.append(i + 1)
            scale = abs(y[i + 1])
            for j in range(i + 2):
                y[j] /= scale
    return y


# the b < 0 well of scripts/convergence_study.py (bench/workloads.well_params
# at D_e = 1000) on r_max = 10 grids
B_NEGATIVE_WELL = DEFAULT_PARAMS.replace(K=1.2, k1=1.0, k2=-0.5, D_e=1000.0,
                                        s_sign=SSign.POSITIVE)


def well_grid(n):
    return RadialGrid(r_min=10.0 / n, r_max=10.0, n=n)


def well_q(n, E=0.9105063368870955):
    """q = W - Ebar of the well; E defaults to its Numerov ground state at N = 1000."""
    M, v = B_NEGATIVE_WELL.M, potential_V(well_grid(n).points, B_NEGATIVE_WELL)
    return 2.0 * (E + M) * v - (E * E - M * M)


def restart_solve(q, h, upto):
    """The outward integration before windows, verbatim: one lower band
    solve over the whole remaining range after every rescale."""
    t = h * h / 12.0
    q = q[: upto + 1]
    a = 2.0 * (1.0 + 5.0 * t * q)
    b = 1.0 - t * q
    y = np.empty(upto + 1)
    y[0] = h
    y[1] = (a[0] * y[0]) / b[1]
    band = np.asfortranarray([b, -a, b])
    start = 0
    while True:
        band[0, start:start + 2] = 1.0
        band[1, start] = 0.0
        x = y[start:]
        x[2:] = 0.0
        x[2:] = dtbsv(2, band[:, start:], x, lower=1)[2:]
        over = np.flatnonzero(np.abs(x[2:]) > oracle._RESCALE)
        if not over.size:
            return y
        k = start + 2 + int(over[0])
        y[: k + 1] /= abs(y[k])
        start = k - 1


class TestNumerovIntegrator:
    def outward(self, q, h, upto):
        return oracle._numerov_outward(oracle._numerov_band(q, h), h, upto)

    def inward(self, q, h, downto):
        return oracle._numerov_inward(oracle._numerov_band(q, h), h, downto)

    @staticmethod
    def agree(y, ref):
        # relative to the largest sample so far: rounding differences of the
        # two evaluation orders grow with the recurrence, not with |y[i]|,
        # which passes through zero at every node
        envelope = np.maximum.accumulate(np.abs(ref))
        assert np.all(np.abs(y - ref) <= 1e-12 * envelope)
        assert np.all(np.abs(y) <= oracle._RESCALE)

    def check(self, q, h, upto):
        """Samples 0..upto of the outward solve of q, and the inward solve of
        the mirrored q read backward, against the per-sample recurrence on
        q; both must also rescale at its samples.  Returns the rescale count."""
        expected = []
        ref = np.array(reference_outward(q.tolist(), h, upto, expected))
        y, rescales = self.outward(q, h, upto)
        assert isinstance(y, np.ndarray) and y.shape == (upto + 1,)
        assert rescales == expected
        self.agree(y, ref)
        if upto >= 1:
            y, rescales = self.inward(q[::-1], h, len(q) - 1 - upto)
            assert y.shape == (upto + 1,)
            assert rescales == expected
            self.agree(y[::-1], ref)
        return len(expected)

    @pytest.mark.parametrize("upto", [0, 1, 2, 999])
    def test_short_and_full_ranges(self, upto):
        q = well_q(1000)[::-1]
        self.check(q, well_grid(1000).h, upto)

    def test_free_box_never_rescales(self):
        # the lowest box level: one half-wave, bounded everywhere; on finer
        # grids the two orders' rounding differences grow past 1e-12
        # (7e-12 at N = 4000), as the near-double root of the recurrence
        # amplifies them, so this compares at N = 400
        grid = box_grid(L, 400)
        q = np.full(grid.n, -(math.pi / L) ** 2)
        assert self.check(q, grid.h, grid.n - 1) == 0

    @pytest.mark.parametrize("n", [1000, 16000])
    def test_well_both_directions(self, n):
        # the two ranges numerov_defect integrates: outward to the matching
        # point, and inward from the far wall back to it, which is the
        # outward solve of the mirrored q
        q, h = well_q(n), well_grid(n).h
        m = oracle._matching_index(q)
        outward = self.check(q, h, m + 1)
        inward = self.check(q[::-1], h, n - m)
        assert outward + inward >= 1

    def test_steep_q_rescales_repeatedly(self):
        # growth e^(h sqrt(q)) = e per step passes 1e100 every ~230 samples
        q = np.full(1000, 1e4)
        assert self.check(q, 0.01, 999) >= 3

    @pytest.mark.filterwarnings("ignore::hykg.oracle.GridHeuristicWarning")
    @pytest.mark.parametrize("case", ["well", "huge-w", "steep", "box"])
    def test_windows_change_no_bit(self, case):
        # each sweep gives bit for bit the samples of one solve over the whole
        # remaining range after every rescale, outward and inward alike
        if case == "steep":
            q, h = np.linspace(1e4, 3e4, 3000), 0.01
        elif case == "box":
            grid = box_grid(L, 4000)
            q, h = np.full(grid.n, -(3 * math.pi / L) ** 2), grid.h
        else:
            params = B_NEGATIVE_WELL if case == "well" else HUGE_W_PARAMS
            grid = well_grid(16000) if case == "well" else default_grid(params, n=4000)
            E = solve_relativistic(params, 0, grid).E
            M = params.M
            q = 2.0 * (E + M) * potential_V(grid.points, params) - (E * E - M * M)
            h = grid.h
        n = len(q)
        for upto in (2, 40, n // 3, n - 1):
            y, _ = self.outward(q, h, upto)
            assert np.array_equal(y, restart_solve(q, h, upto))
            y, _ = self.inward(q, h, n - 1 - upto)
            assert np.array_equal(y[::-1], restart_solve(q[::-1], h, upto))

    def test_one_defect_solves_each_row_about_once(self, solved_rows):
        # One defect on the well's finest grid: outward to m+1 and inward to
        # m-1 need N - 1 solved rows.  A rescale's position is known only
        # once its row is solved, so the rows after it in its window are
        # solved again from the rescaled pair; a window spans its predicted
        # rescale interval plus an eighth, which bounds that rework.  One
        # solve per rescale over the whole remaining range took 28,263 rows.
        n = 16000
        q, h = well_q(n), well_grid(n).h
        oracle.numerov_defect(q, h)
        assert len(solved_rows) <= 6
        assert n - 1 <= sum(solved_rows) <= (n - 1) + n // 8


class TestNumerovRegression:
    # numerov_shoot's E0 on the b < 0 well, recorded from the per-sample
    # recurrence before it became a banded solve; Brent's tolerance is
    # 1e-10 M, so the new rounding may move a root by far less than that
    RECORDED = {1000: 0.9105063368870955, 2000: 0.9105068762515323,
                4000: 0.9105069099548586}

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


class TestScipyStandIns:
    def test_first_call_puts_scipy_in_place(self, monkeypatch):
        # a stand-in imports its routine on its first call and leaves it in
        # its place, so later calls go straight to scipy
        stand_in = oracle._on_first_call("scipy.linalg.blas", "dtbsv")
        monkeypatch.setattr(oracle, "dtbsv", stand_in)
        grid = box_grid(L, 400)
        assert sturm_count(np.zeros(grid.n), grid, 0.05) == 1
        assert oracle.dtbsv is dtbsv

    def test_a_substitute_keeps_its_place(self, monkeypatch):
        # a substitute that calls the stand-in it replaced is not displaced
        stand_in = oracle._on_first_call("scipy.linalg.blas", "dtbsv")
        calls = []

        def substitute(*args, **kwargs):
            calls.append(len(args[2]))
            return stand_in(*args, **kwargs)

        monkeypatch.setattr(oracle, "dtbsv", substitute)
        grid = box_grid(L, 400)
        for _ in range(2):
            assert sturm_count(np.zeros(grid.n), grid, 0.05) == 1
        assert oracle.dtbsv is substitute
        assert len(calls) >= 2


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
            check_grid(grid, np.zeros(grid.n))

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
                check_grid(grid, np.zeros(grid.n))

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
