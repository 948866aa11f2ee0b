"""The first iterations of the benchmark's closedform-sweep workload at seed
0, checked against its recorded spectra (bench/reference), so that a change
to the closed-form engines that moves a sweep root fails here too."""
import pytest


@pytest.mark.parametrize("i", range(4))
def test_seed0_sweep_matches_reference(workloads, tmp_path, i):
    sweep = workloads.ClosedformSweep(0, tmp_path)
    sweep.prepare(i)
    ops = sweep.check(i, sweep.execute(i, None))
    assert ops and all(op.ok for op in ops), [op.detail for op in ops if not op.ok]
