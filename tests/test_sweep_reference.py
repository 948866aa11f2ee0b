"""The first iterations of the benchmark's closedform-sweep workload at seed
0, checked against its recorded spectra (bench/reference), so that a change
to the closed-form engines that moves a sweep root fails here too."""
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("hykg_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("i", range(4))
def test_seed0_sweep_matches_reference(workloads, tmp_path, i):
    sweep = workloads.ClosedformSweep(0, tmp_path)
    sweep.prepare(i)
    ops = sweep.check(i, sweep.execute(i, None))
    assert ops and all(op.ok for op in ops), [op.detail for op in ops if not op.ok]
