import importlib.util
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_convergence_study_orders():
    # the only script that drives Numerov: the b < 0 well shows the stencil
    # orders, the plateau well its wall-dominated drift
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "convergence_study.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    sections = proc.stdout.split("\n== ")[1:]
    assert [s.splitlines()[0] for s in sections] == [
        "localized interior well (b < 0)", "default plateau well (wall-dominated)"]
    orders = [dict(re.findall(r"^(\w+) +self-convergence order: (\S+)", s, re.M))
              for s in sections]
    well, plateau = orders
    assert float(well["matrix"]) == pytest.approx(2.0, abs=0.1)
    assert float(well["numerov"]) == pytest.approx(4.0, abs=0.15)
    assert set(plateau) == {"matrix", "numerov"}
    # the moving far wall makes the plateau well's drift first order
    assert float(plateau["matrix"]) == pytest.approx(1.0, abs=0.2)
    assert "low signal" not in proc.stdout


def test_kernel_costs_smoke():
    # one row per case, every cost a positive number (each case has an
    # n = 0 level at N = 400, so its seed search counts two seeds or more
    # and its bisection at least one midpoint), one band solve per pass of
    # the defect, and its inward pass starting past its matching index, at
    # most at the far wall;
    # then one row per eigen_tridiagonal case with its Sturm counts, and one
    # per closed-form engine
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "kernel_costs.py"),
                           "--n", "400", "--repeat", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    levels, eigen, closed = proc.stdout.split("\n\n")
    header, *rows = levels.splitlines()
    assert header.split() == ["case", "N", "walk", "bisect", "us/count", "us/defect",
                              "solves", "m", "start"]
    assert [row[:16].strip() for row in rows] == [
        "default grid", "well D_e=5000", "huge W (c = 0)"]
    for row in rows:
        n, walk, bisect, per_count, per_defect, solves, m, start = row[16:].split()
        assert int(n) == 400 and int(walk) >= 2 and int(bisect) > 0
        assert float(per_count) > 0 and float(per_defect) > 0
        assert int(solves) == 2
        assert 2 <= int(m) < int(start) <= int(n) - 1
    header, *rows = eigen.splitlines()
    assert header.split() == ["eigen_tridiagonal", "N", "counts", "us/eigenvalue"]
    assert [(row[:18].strip(), int(row[18:].split()[0])) for row in rows] == [
        ("selftest box", 2000), ("4V default grid", 4000)]
    for row in rows:
        counts, per_value = row[18:].split()[1:]
        assert counts.isdigit() and int(counts) > 0
        assert float(per_value) > 0
    header, *rows = closed.splitlines()
    assert header.split() == ["closed", "form", "us/residual", "us/call"]
    assert [row.split()[0] for row in rows] == ["mechanical", "implicit", "eq45"]
    for row in rows:
        per_residual, per_call = map(float, row.split()[1:])
        assert 0 < per_residual < per_call


def test_sweep_screening_removes_its_config(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "sweep_screening", ROOT / "scripts" / "sweep_screening.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    seen = []

    def failing_main(argv):
        seen.append(Path(argv[argv.index("--config") + 1]).read_text())
        return 2

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(script, "main", failing_main)
    with pytest.raises(SystemExit):
        script.run()
    assert seen == [script.SWEEP_CFG]
    assert list(tmp_path.iterdir()) == []
