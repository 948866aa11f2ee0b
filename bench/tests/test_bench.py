"""Tests of the benchmark itself: input generation, tracing and output checks.

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- input generation --------------------------------------------------------

def test_sweep_inputs_are_deterministic_valid_and_seed_dependent():
    for seed in range(12):
        specs = [wl.sweep_spec(seed, i) for i in range(2 * wl.SWEEP_BLOCK + 3)]
        assert specs == [wl.sweep_spec(seed, i) for i in range(len(specs))]
        for spec in specs:
            for name, (lo, hi) in wl.SWEEP_RANGES.items():
                assert lo <= spec["base"][name] < hi
            assert abs(spec["base"][spec["parameter"]]) >= wl.SWEEP_MIN_BASE
            for value in wl.sweep_point_values(spec):
                wl._sweep_params(spec, value)  # raises on an invalid set
            text = wl.sweep_config_text(spec)
            assert f"count = {wl.SWEEP_POINTS}" in text
    assert wl.sweep_spec(1, 0) != wl.sweep_spec(2, 0)


def test_sweep_block_is_latin_hypercube():
    specs = [wl.sweep_spec(5, i) for i in range(wl.SWEEP_BLOCK)]
    for name, (lo, hi) in wl.SWEEP_RANGES.items():
        strata = sorted(int((s["base"][name] - lo) / (hi - lo) * wl.SWEEP_BLOCK)
                        for s in specs)
        assert strata == list(range(wl.SWEEP_BLOCK))


def test_refinement_inputs_are_deterministic_and_in_range():
    lo, hi = wl.REFINEMENT_D_E
    for seed in range(12):
        values = [wl.refinement_d_e(seed, i) for i in range(40)]
        assert values == [wl.refinement_d_e(seed, i) for i in range(40)]
        assert all(lo <= v < hi for v in values)
    assert wl.refinement_d_e(1, 0) != wl.refinement_d_e(2, 0)


# -- metric names ------------------------------------------------------------

def test_metric_names_and_units_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
    assert {w["name"] for w in SPEC["workloads"]} == set(wl.WORKLOADS)


def test_every_per_layer_metric_is_computed():
    snap = Tracer().snapshot()
    metrics = run.layer_metrics(snap, {}, 0.0)
    missing = [m["name"] for m in SPEC["per_layer"] if m["name"] not in metrics]
    assert not missing


# -- tracing -----------------------------------------------------------------

def test_tracer_patches_every_importing_module_and_restores():
    import hykg.audit
    import hykg.cli
    import hykg.closedform
    import hykg.hylleraas
    import hykg.oracle

    original = hykg.oracle.solve_relativistic
    tracer = Tracer()
    tracer.install()
    try:
        assert hykg.oracle.solve_relativistic is not original
        assert hykg.cli.solve_relativistic is hykg.oracle.solve_relativistic
        assert hykg.audit.solve_relativistic is hykg.oracle.solve_relativistic
        assert hykg.closedform.appendix_constants is hykg.hylleraas.appendix_constants
        assert hykg.audit.appendix_constants is hykg.hylleraas.appendix_constants
    finally:
        tracer.uninstall()
    assert hykg.cli.solve_relativistic is original
    assert hykg.audit.solve_relativistic is original


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer", scope="x"):
        with tracer.span("inner", scope="y"):
            sum(range(200000))
    spans = {s[1]: s for s in tracer.spans}
    outer, inner = spans["outer"], spans["inner"]
    assert inner[4] == outer[0]
    assert math.isclose(outer[6], (outer[3] - outer[2]) - (inner[3] - inner[2]),
                        abs_tol=1e-12)


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _counts(snapshot: dict) -> dict:
    return {k: v for k, v in snapshot.items() if not k.endswith((".s", "_s"))}


def test_tracing_changes_no_output_and_counts_repeat(tmp_path):
    results = []
    for label in ("plain", "traced_1", "traced_2"):
        work = tmp_path / label
        sweep = wl.ClosedformSweep(3, work)
        sweep.prepare(0)
        tracer = None if label == "plain" else Tracer()
        if tracer is None:
            rc = sweep.execute(0, None)
        else:
            with tracer.traced(0):
                rc = sweep.execute(0, tracer)
        assert rc == 0
        assert sweep.check(0, rc)[0].ok
        results.append((_files(work / "out"), tracer))
    (plain, _), (traced_1, t1), (traced_2, t2) = results
    assert plain == traced_1 == traced_2
    assert _counts(t1.snapshot()) == _counts(t2.snapshot())
    assert t1.snapshot()["closedform.mechanical_residual.calls"] > 0
    assert t1.snapshot()["oracle.eigen_tridiagonal.calls"] == 0


def test_tracing_changes_no_refinement_result():
    study = wl.OracleRefinement(4, Path("unused"))
    plain = study.execute(0, None)
    tracer = Tracer()
    with tracer.traced(0):
        traced = study.execute(0, tracer)
    assert plain == traced
    snap = tracer.snapshot()
    assert snap["oracle.solve_relativistic.calls"] == len(wl.REFINEMENT_NS)
    assert snap["oracle.numerov_shoot.calls"] == len(wl.REFINEMENT_NS)
    assert snap["rootfind.estimate_order.calls"] == 2
    assert snap["oracle.numerov_defect.calls"] > 0


# -- checks catch corrupted outputs -----------------------------------------

GOLDEN = ROOT / "tests" / "golden"
RCS = {"spectrum": 0, "audit": 0, "wavefunction": 0}


def _fake_default_outputs(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name in ("spectrum.csv", "spectrum.json", "audit.csv", "audit.json"):
        shutil.copy(GOLDEN / name, out / name)
    mech, oracle = wl.golden_n0_energies(GOLDEN)
    (out / "wf_n0.flags.json").write_text(json.dumps(
        {"E_closed": mech, "E_oracle": oracle, "overlap_closed_oracle": 0.5}))


def _failed(ops) -> set[str]:
    return {op.name for op in ops if not op.ok}


def test_default_checks_catch_corruption(tmp_path):
    out = tmp_path / "out"
    _fake_default_outputs(out)
    assert _failed(wl.check_default_outputs(out, GOLDEN, RCS)) == set()

    data = bytearray((out / "audit.csv").read_bytes())
    data[-5] ^= 1
    (out / "audit.csv").write_bytes(bytes(data))
    assert _failed(wl.check_default_outputs(out, GOLDEN, RCS)) == {"audit"}

    _fake_default_outputs(out)
    (out / "spectrum.json").write_text((GOLDEN / "spectrum.json").read_text() + " ")
    assert _failed(wl.check_default_outputs(out, GOLDEN, RCS)) == {"spectrum"}

    _fake_default_outputs(out)
    assert _failed(wl.check_default_outputs(out, GOLDEN, dict(RCS, audit=1))) == {"audit"}

    for field, value in (("E_closed", 0.1), ("E_oracle", None),
                         ("overlap_closed_oracle", float("nan"))):
        _fake_default_outputs(out)
        side = json.loads((out / "wf_n0.flags.json").read_text())
        side[field] = value
        (out / "wf_n0.flags.json").write_text(json.dumps(side))
        assert _failed(wl.check_default_outputs(out, GOLDEN, RCS)) == {"wavefunction"}


def _sweep_with_roots(tmp_path) -> tuple[wl.ClosedformSweep, int]:
    sweep = wl.ClosedformSweep(3, tmp_path)
    for i in range(8):
        sweep.prepare(i)
        assert sweep.execute(i, None) == 0
        if any(wl.sweep_levels(tmp_path / "out")):
            return sweep, i
    raise AssertionError("no sweep with roots among the first draws")


def test_sweep_checks_catch_corruption(tmp_path):
    sweep, i = _sweep_with_roots(tmp_path)
    out = tmp_path / "out"
    spec = wl.sweep_spec(3, i)
    assert wl.check_sweep_outputs(out, spec, None) == []

    levels = wl.sweep_levels(out)
    reference = [[(n, eng, E) for n, eng, E, _ in rows] for rows in levels]
    assert wl.check_sweep_outputs(out, spec, reference) == []
    k = next(k for k, rows in enumerate(levels) if rows)
    moved = [list(rows) for rows in reference]
    n, eng, E = moved[k][0]
    moved[k][0] = (n, eng, E + 1e-6)
    assert wl.check_sweep_outputs(out, spec, moved)

    csv = out / f"point_{k:03d}" / "spectrum.csv"
    lines = csv.read_text().splitlines()
    fields = lines[1].split(",")
    fields[2] = repr(float(fields[2]) + 1e-6)
    lines[1] = ",".join(fields)
    csv.write_text("\n".join(lines) + "\n")
    problems = wl.check_sweep_outputs(out, spec, None)
    assert problems and "is not a root" in problems[0]
    assert not sweep.check(i, 0)[0].ok
    assert not sweep.check(i, 1)[0].ok


def test_seed0_sweeps_match_the_committed_reference(tmp_path):
    sweep = wl.ClosedformSweep(0, tmp_path)
    assert len(sweep.reference) == 2 * wl.SWEEP_BLOCK
    for i in range(2):
        sweep.prepare(i)
        rc = sweep.execute(i, None)
        levels = wl.sweep_levels(tmp_path / "out")
        assert [[(n, eng) for n, eng, _, _ in rows] for rows in levels] == [
            [(n, eng) for n, eng, _ in rows] for rows in sweep.reference[i]]
        assert sweep.check(i, rc) == [wl.Op("spectrum-sweep", True, "")]


def test_root_check_rejects_jump_discontinuity():
    assert wl.root_ok(lambda E: E - 0.25, 0.25)
    assert not wl.root_ok(lambda E: 1.0 if E > 0.25 else -1.0, 0.25)
    assert not wl.root_ok(lambda E: None, 0.25)


def test_refinement_checks_catch_corruption():
    study = wl.OracleRefinement(4, Path("unused")).execute(0, None)
    assert wl.check_study(study) == []

    finest = study.numerov[-1]
    shifted = dataclasses.replace(finest, E=finest.E + 1e-3)
    bad = dataclasses.replace(study, numerov=study.numerov[:-1] + [shifted])
    assert any("gap" in p for p in wl.check_study(bad))

    flagged = dataclasses.replace(study.matrix[0], flags=frozenset({"NoRoot"}))
    bad = dataclasses.replace(study, matrix=[flagged] + study.matrix[1:])
    assert any("NoRoot" in p for p in wl.check_study(bad))

    bad = dataclasses.replace(study, matrix_order=(1.0, False))
    assert any("matrix order" in p for p in wl.check_study(bad))
    bad = dataclasses.replace(study, numerov_order=(4.0, True))
    assert any("numerov order" in p for p in wl.check_study(bad))


# -- the command line --------------------------------------------------------

def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "default-pipeline",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_lists_exactly_the_declared_metrics(trace):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "oracle-refinement",
                           "--seed", "2", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[key]]
    for m in SPEC[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
