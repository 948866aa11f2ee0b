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
    # n = 0 level at N = 400)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "kernel_costs.py"),
                           "--n", "400", "--repeat", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["case", "N", "counts", "us/count", "us/defect"]
    assert [row[:16].strip() for row in rows] == [
        "default grid", "well D_e=5000", "huge W (c = 0)"]
    for row in rows:
        n, counts, per_count, per_defect = row[16:].split()
        assert int(n) == 400 and int(counts) > 0
        assert float(per_count) > 0 and float(per_defect) > 0


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
