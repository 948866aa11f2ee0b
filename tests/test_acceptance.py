"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here and nowhere else.  Criterion 5's agreement
magnitude between engines is reported (printed) but not asserted; the
printed closed-form algebra is under audit, so only mechanical facts are
binding.
"""
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from hykg.audit import run_audit
from hykg.cli import main
from hykg.closedform import energy_mechanical_result
from hykg.config import load_config
from hykg.errors import NoRealK, ImperfectSquare
from hykg.hylleraas import DEFAULT_PARAMS, SSign
from hykg.levels import FLAG_NODE_MISMATCH
from hykg.nu import (
    BranchGap,
    NUInput,
    Poly2,
    pi_candidates,
    quantization,
    select_branch_lenient,
    solve_k,
)
from hykg.oracle import (
    RadialGrid,
    box_grid,
    count_sign_changes,
    default_grid,
    eigen_tridiagonal,
    oracle_eigenvector,
    solve_relativistic,
)
from hykg.rootfind import estimate_order, scan_roots, seed_grid
from hykg.wavefunction import (
    composite_simpson,
    jacobi_P,
    normalize,
    rodrigues_chi,
)

from _fixed_w import numerov_eigenvalue, schrodinger_limit
from _sample import sample

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


def test_criterion_1_oracle_box():
    t0 = time.monotonic()
    L, M, N = 20.0, 1.0, 4000
    grid = box_grid(L, N)
    vals = eigen_tridiagonal(np.zeros(grid.n), grid, 3)
    worst = 0.0
    for i, v in enumerate(vals, start=1):
        exact = (i * math.pi / L) ** 2
        worst = max(worst, abs(v - exact) / exact)
    assert worst < 1e-4

    # matrix order from the n=3 level across halving grids
    hs, es = [], []
    for n_pts in (200, 400, 800, 1600):
        g = box_grid(L, n_pts)
        hs.append(g.h)
        es.append(float(eigen_tridiagonal(np.zeros(g.n), g, 3)[2]))
    slope_m, low_m = estimate_order(hs, es)
    assert not low_m and abs(slope_m - 2.0) <= 0.1

    hs, es = [], []
    exact = (3 * math.pi / L) ** 2
    for n_pts in (200, 400, 800):
        g = box_grid(L, n_pts)
        root, _ = numerov_eigenvalue(np.zeros(g.n), g,
                                     (0.99 * exact, 1.01 * exact), tol=1e-15)
        hs.append(g.h)
        es.append(root)
    slope_n, low_n = estimate_order(hs, es)
    assert not low_n and abs(slope_n - 4.0) <= 0.2

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(1, f"box rel err {worst:.2e}, slopes {slope_m:.2f}/{slope_n:.2f}, {elapsed:.1f}s")


def test_criterion_2_oscillator():
    grid = RadialGrid(r_min=12.0 / 4000, r_max=12.0, n=4000)
    worst = 0.0
    for w_osc in (1.0, 2.0):
        vals = eigen_tridiagonal(w_osc ** 2 * grid.points ** 2, grid, 3)
        for n, v in enumerate(vals):
            exact = (4 * n + 3) * w_osc
            worst = max(worst, abs(v - exact) / exact)
    assert worst < 1e-4
    report(2, f"odd-state spectrum rel err {worst:.2e}")


def test_criterion_3_nu_hydrogen_fixture():
    t0 = time.monotonic()
    beta = 2.0
    seeds = seed_grid(1e-4, beta, 300)
    worst = 0.0
    for n in range(6):
        for l in range(3):
            # the residual is linear in eps with a single root: a coarse
            # bracket scan plus Brent refinement already pins it to 1e-13
            def f(eps):
                out = quantization(NUInput(Poly2(0.0, 1.0, 0.0), Poly2(0.0, 0.0, 0.0),
                                           Poly2(-l * (l + 1), beta, -eps * eps)), n)
                return out if isinstance(out, BranchGap) else out[0].lam - out[1]

            res = scan_roots(f, seeds, sample(f, seeds), 1e-13)
            expected = beta / (2.0 * (n + l + 1))
            best = min((abs(r - expected) / expected for r in res.roots),
                       default=math.inf)
            worst = max(worst, best)
    elapsed = time.monotonic() - t0
    assert worst <= 1e-10
    assert elapsed < 1.0
    report(3, f"quantization rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_4_perfect_square_invariant():
    rng = np.random.default_rng(42)
    accepted = 0
    worst = 0.0
    picks_a = {}
    while accepted < 100:
        c = rng.uniform(-3, 3, size=8)
        if abs(c[2]) < 0.1:
            continue
        inp = NUInput(Poly2(c[0], c[1], c[2]), Poly2(c[3], c[4], 0.0),
                      Poly2(c[5], c[6], c[7]))
        try:
            ks = solve_k(inp)
            cands = pi_candidates(inp)
        except (NoRealK, ImperfectSquare):
            continue
        scale = (1.0 + inp.scale()) ** 2
        for _, res in ks:
            worst = max(worst, res / scale)
            assert res <= 1e-10 * scale
        sol, _ = select_branch_lenient(cands)
        picks_a[accepted] = (sol.k, sol.sign_choice.value)
        accepted += 1
    # branch selection deterministic across a full repeated run
    rng = np.random.default_rng(42)
    accepted = 0
    while accepted < 100:
        c = rng.uniform(-3, 3, size=8)
        if abs(c[2]) < 0.1:
            continue
        inp = NUInput(Poly2(c[0], c[1], c[2]), Poly2(c[3], c[4], 0.0),
                      Poly2(c[5], c[6], c[7]))
        try:
            cands = pi_candidates(inp)
        except (NoRealK, ImperfectSquare):
            continue
        sol, _ = select_branch_lenient(cands)
        assert picks_a[accepted] == (sol.k, sol.sign_choice.value)
        accepted += 1
    report(4, f"100 random inputs, worst scaled residual {worst:.2e}, selection stable")


def test_criterion_5_hylleraas_end_to_end():
    params = DEFAULT_PARAMS
    assert params.s_sign is SSign.NEGATIVE
    grid = default_grid(params)

    mech = energy_mechanical_result(params, (0,))[0]
    assert mech, "mechanical n=0 level missing"
    for lvl in mech:
        assert -params.M < lvl.E < params.M
        assert lvl.residual <= 1e-8

    oracle0 = solve_relativistic(params, 0, grid)
    assert oracle0.found
    assert -params.M < oracle0.E < params.M
    assert oracle0.residual <= 1e-8 * max(1.0, params.M ** 2)

    node_counts = []
    for n in range(4):
        lvl = solve_relativistic(params, n, grid)
        assert lvl.found
        vec = oracle_eigenvector(params, lvl.E, grid)
        nodes = count_sign_changes(vec)
        node_counts.append(nodes)
        assert nodes == n
        assert FLAG_NODE_MISMATCH not in lvl.flags

    gap = min(abs(m.E - oracle0.E) for m in mech)
    report(5, f"mech roots {[round(m.E, 6) for m in mech]}, oracle E0 "
              f"{oracle0.E:.6f}, |mech-oracle| {gap:.3e} (reported, not asserted), "
              f"nodes {node_counts}")


def test_criterion_6_audit_determinism_totality():
    params = DEFAULT_PARAMS
    grid = default_grid(params)
    rep1 = run_audit(params, n_max=3, grid=grid)
    rep2 = run_audit(params, n_max=3, grid=grid)
    assert rep1.to_json() == rep2.to_json()
    assert rep1.to_csv() == rep2.to_csv()
    assert len(rep1.rows) == 4
    for row in rep1.rows:
        for col in ("disc_residual", "eq42_vs_derivative", "eq44_vs_eq12",
                    "eq20_vs_eq23", "delta_a9_vs_eq35", "ode_residual_closedform"):
            val = getattr(row, col)
            assert val is not None and math.isfinite(val), (row.n, col)
        assert isinstance(row.tau_prime_sign, bool)
        # the nonzero gaps document the printed algebra's inconsistency
        assert row.eq42_vs_derivative > 0.0
        if row.n >= 1:
            assert row.eq44_vs_eq12 > 0.0
    report(6, f"byte-identical, all identity columns finite over {len(rep1.rows)} rows")


def test_criterion_7_wavefunction_suite():
    rng = np.random.default_rng(11)
    worst_sym = worst_end = 0.0
    for _ in range(300):
        n = int(rng.integers(0, 11))
        alpha, beta = rng.uniform(-0.9, 3.0, 2)
        x = rng.uniform(-1.0, 1.0)
        left = jacobi_P(n, alpha, beta, -x)
        right = (-1.0) ** n * jacobi_P(n, beta, alpha, x)
        worst_sym = max(worst_sym, abs(left - right) / max(1.0, abs(left), abs(right)))
        endpoint = 1.0
        for j in range(1, n + 1):
            endpoint *= (alpha + j)
        endpoint /= math.factorial(n)
        got = jacobi_P(n, alpha, beta, 1.0)
        worst_end = max(worst_end, abs(got - endpoint) / max(1.0, abs(endpoint)))
    assert worst_sym <= 1e-12
    assert worst_end <= 1e-12

    # Rodrigues vs recurrence under the adopted affine map, constant ratio
    D, F, a, c = 0.7, -0.2, 0.3, 1.1
    for n in range(6):
        ratios = []
        ss = np.linspace(0.2, 4.0, 25)
        for s, chi in zip(ss, rodrigues_chi(n, D, F, a, c, ss)):
            x = (2 * s + a + c) / (c - a)
            pj = jacobi_P(n, D, F, x)
            if abs(pj) > 1e-9:
                ratios.append(chi / pj)
        assert len(ratios) >= 20
        mid = float(np.median(ratios))
        for ratio in ratios:
            assert abs(ratio - mid) <= 1e-8 * max(1.0, abs(mid))

    # normalization: idempotence, linearity, Gaussian fixture
    grid = np.linspace(0.0, 12.0, 4001)
    gaussian = np.exp(-grid ** 2 / 2.0)
    one = normalize(grid, gaussian)
    assert normalize(grid, gaussian * one) == pytest.approx(1.0, abs=1e-10)
    assert normalize(grid, 7.0 * gaussian) == pytest.approx(one / 7.0, rel=1e-12)
    # the integral of exp(-r^2) over (0, 12) is sqrt(pi)/2 erf(12), and
    # erf(12) = 1 in double precision
    exact = 1.0 / math.sqrt(math.sqrt(math.pi) / 2.0)
    assert one == pytest.approx(exact, rel=1e-8)
    report(7, f"jacobi {max(worst_sym, worst_end):.2e}, rodrigues map ok, "
              f"gauss fixture rel {abs(one - exact) / exact:.1e}")


def test_criterion_8_nonrelativistic_limit_trend():
    t0 = time.monotonic()
    grid = default_grid(DEFAULT_PARAMS)
    diffs = []
    for ratio in (10.0, 100.0, 1000.0):
        params = DEFAULT_PARAMS.replace(D_e=DEFAULT_PARAMS.M / ratio)
        lvl = solve_relativistic(params, 0, grid)
        assert lvl.found
        e_nr = schrodinger_limit(params, 0, grid)
        diffs.append(abs((lvl.E - params.M) - e_nr))
    assert diffs[0] > diffs[1] > diffs[2]
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(8, f"limit gaps {['%.3e' % d for d in diffs]} strictly decreasing, "
              f"{elapsed:.1f}s")


def test_criterion_9_cli_golden_files(tmp_path):
    cfg = str(ROOT / "configs" / "default.cfg")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    for out in (out1, out2):
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        assert main(["audit", "--config", cfg, "--out", str(out)]) == 0
    names = ("spectrum.csv", "spectrum.json", "audit.csv", "audit.json")
    for name in names:
        b1 = (out1 / name).read_bytes()
        assert b1 == (out2 / name).read_bytes(), f"{name} not reproducible"
        assert b1 == (GOLDEN / name).read_bytes(), f"{name} diverged from golden"
    report(9, f"{len(names)} golden files byte-identical across runs")
