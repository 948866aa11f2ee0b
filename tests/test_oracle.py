import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hykg import oracle
from hykg.errors import NoRoot
from hykg.hylleraas import DEFAULT_PARAMS, SSign
from hykg.levels import FLAG_NO_ROOT, FLAG_NODE_MISMATCH
from hykg.config import default_config
from hykg.oracle import (
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
    potential_samples,
    schrodinger_limit,
    solve_relativistic,
)
from hykg.rootfind import estimate_order

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
        M, v = DEFAULT_PARAMS.M, potential_samples(DEFAULT_PARAMS, grid)
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


class TestPotential:
    def test_far_tail_is_finite(self):
        # 2 (1+K) w r_max = 750: exp(750) overflows, V's limit there is D_e
        params = DEFAULT_PARAMS.replace(s_sign=SSign.POSITIVE)
        grid = RadialGrid(r_min=500.0 / 4000, r_max=500.0, n=4000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = potential_samples(params, grid)
        assert np.all(np.isfinite(v))
        assert v[-1] == params.D_e


class TestConvergenceOrder:
    # A shape with b < 0 digs a genuine interior well (depth ~ -11.7 D_e/85)
    # whose ground state is exponentially localized, unlike the default
    # plateau well where the far wall dominates the error.
    WELL = DEFAULT_PARAMS.replace(K=1.2, k1=1.0, k2=-0.5, D_e=1000.0)

    def test_orders_on_localized_state(self):
        import warnings

        from hykg.hylleraas import SSign
        from hykg.oracle import GridHeuristicWarning, convergence_order

        params = self.WELL.replace(s_sign=SSign.POSITIVE)
        grids = [RadialGrid(r_min=10.0 / n, r_max=10.0, n=n)
                 for n in (500, 1000, 2000, 4000)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridHeuristicWarning)
            slope_m, low_m = convergence_order(params, 0, grids, method="matrix")
            slope_n, low_n = convergence_order(params, 0, grids[1:], method="numerov")
        assert not low_m
        assert slope_m == pytest.approx(2.0, abs=0.1)
        assert not low_n
        assert slope_n == pytest.approx(4.0, abs=0.5)

    def test_wall_dominated_default_is_first_order(self):
        # documented finding: the default plateau well has no localized state
        # below its shifted continuum edge, so the moving far wall gives ~h
        from hykg.oracle import convergence_order

        grids = [default_grid(DEFAULT_PARAMS, n=n) for n in (500, 1000, 2000)]
        slope, low = convergence_order(DEFAULT_PARAMS, 0, grids, method="matrix")
        assert not low
        assert slope == pytest.approx(1.0, abs=0.2)


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
            check_grid(grid, None, np.zeros(grid.n))

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
                check_grid(grid, None, np.zeros(grid.n))

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
