#!/usr/bin/env python3
"""hykg benchmark: run one workload and print one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` measures the end-to-end metrics
of BENCHMARK.json with tracing off; ``--trace 1`` pairs every untraced
iteration with a traced one on the same input and reports the per-layer
metrics.  The last line of standard output is the result object; the line
before it records provenance.  Outputs, spans and provenance are also
written under ``.bench_out/<workload>/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_JSON = ROOT / "BENCHMARK.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 11
SETUP_TIMEOUT_S = 60


def pin_threads() -> dict[str, str]:
    """Pin BLAS/OpenMP pools to the CPUs this process may use; must run
    before numpy is imported."""
    count = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = count
    return {var: count for var in THREAD_VARS}


def provenance(seed: int, threads: dict[str, str]) -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "threads": threads, "seed": seed,
            "machine": platform.machine()}


def time_setup(workload) -> float:
    """Wall seconds for a fresh interpreter to import hykg and have the
    workload's config or parameters ready."""
    code = f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n" + workload.setup_code()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.DEVNULL)
    # A blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
    # which would round every sample up to the next step.
    killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        returncode = proc.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - start
    if returncode != 0:
        raise subprocess.CalledProcessError(returncode, proc.args)
    return elapsed


def run_iteration(workload, i: int, tracer) -> tuple[float, float, list]:
    """(wall s, CPU s, ops) of iteration i; only ``execute`` is timed."""
    from workloads import Op

    workload.prepare(i)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    # A crash or an unreadable output is a failed operation, not an abort.
    try:
        if tracer is None:
            raw = workload.execute(i, None)
        else:
            with tracer.traced(i):
                raw = workload.execute(i, tracer)
    except Exception as exc:
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        traceback.print_exc()
        return wall, cpu, [Op("execute", False, repr(exc))]
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    try:
        ops = workload.check(i, raw)
    except Exception as exc:
        traceback.print_exc()
        ops = [Op("check", False, repr(exc))]
    return wall, cpu, ops


def measure_untraced(workload, seconds: float) -> tuple[dict, list, dict]:
    setup, walls, cpus, ops = [], [], [], []
    spent = 0.0  # seconds of iterations; set-up samples are taken between them
    i = 0
    while True:
        # Spread the set-up samples evenly over the run, so that their median
        # sees the whole run and not only its start.
        while len(setup) < SETUP_SAMPLES and len(setup) * seconds <= spent * SETUP_SAMPLES:
            setup.append(time_setup(workload))
        start = time.perf_counter()
        wall, cpu, iter_ops = run_iteration(workload, i, None)
        spent += time.perf_counter() - start
        walls.append(wall)
        cpus.append(cpu)
        ops += iter_ops
        i += 1
        if spent + statistics.median(walls) > seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(time_setup(workload))
    ok = sum(op.ok for op in ops)
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": ok / len(ops),
    }
    details = {"iterations": len(walls), "run_s_samples": walls, "cpu_s_samples": cpus,
               "setup_s_samples": setup, "failed_frac": 1.0 - ok / len(ops)}
    return metrics, ops, details


def layer_metrics(snap: dict, scopes: dict, overhead_s: float) -> dict:
    """Flat per-layer metrics from one traced iteration's counters."""
    from tracer import ENGINE_RESULTS, RESIDUALS

    m = dict(snap)
    m["closedform.residual_evals"] = sum(snap[r + ".calls"] for r in RESIDUALS)
    levels = sum(snap[e + ".calls"] for e in ENGINE_RESULTS)
    m["closedform.residual_evals_per_level"] = (
        m["closedform.residual_evals"] / levels if levels else 0.0)
    crossings = snap["rootfind.roots"] + snap["rootfind.rejected"]
    m["rootfind.crossings"] = crossings
    # an empty base wasted nothing: the ratios then read 1
    m["rootfind.roots_accepted_ratio"] = (
        snap["rootfind.roots"] / crossings if crossings else 1.0)
    solves = snap["oracle.solve_relativistic.calls"]
    m["oracle.eigensolves_per_level"] = (
        snap["oracle.eigen_tridiagonal.calls"] / solves if solves else 0.0)
    m["oracle.found_ratio"] = snap["oracle.levels_found"] / solves if solves else 1.0
    for cmd in ("spectrum", "audit", "wavefunction"):
        scope = scopes.get(cmd, {})
        m[f"cli.{cmd}.s"] = scope.get(f"cli.{cmd}.s", 0.0)
        m[f"cli.{cmd}.eigensolves"] = scope.get("oracle.eigen_tridiagonal.calls", 0)
        for name in ("hylleraas.derive_abc", "hylleraas.appendix_constants",
                     "nu.pi_candidates"):
            m[f"cli.{cmd}.{name.split('.')[1]}.calls"] = scope.get(name + ".calls", 0)
    m["bench.trace_overhead_s"] = overhead_s
    return m


def measure_traced(workload, seconds: float, spans_path: Path) -> tuple[dict, list, dict]:
    from tracer import Tracer

    tracer = Tracer()
    first = None
    walls_u, walls_t, ops = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        wall_u, _, ops_u = run_iteration(workload, i, None)
        wall_t, _, ops_t = run_iteration(workload, i, tracer)
        if first is None:
            first = (tracer.snapshot(), {k: dict(v) for k, v in tracer.scopes.items()})
        walls_u.append(wall_u)
        walls_t.append(wall_t)
        ops += ops_u + ops_t
        i += 1
        pairs = [u + t for u, t in zip(walls_u, walls_t)]
        if time.perf_counter() - start + statistics.median(pairs) > seconds:
            break
    overhead = statistics.median(t - u for u, t in zip(walls_u, walls_t))
    metrics = layer_metrics(first[0], first[1], overhead)
    spans_path.write_text(json.dumps({
        "fields": ["id", "name", "start", "end", "parent", "iteration", "self_s"],
        "spans": tracer.spans,
        "first_iteration": {"counters": first[0], "scopes": first[1]},
    }) + "\n")
    details = {"pairs": len(walls_u), "untraced_s_samples": walls_u,
               "traced_s_samples": walls_t}
    return metrics, ops, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hykg" / "__init__.py").is_file() or not BENCH_JSON.is_file():
        print(f"error: no hykg sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(BENCH_JSON.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    threads = pin_threads()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = ROOT / ".bench_out" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, work)

    if args.trace:
        values, ops, details = measure_traced(workload, args.seconds, work / "spans.json")
    else:
        values, ops, details = measure_untraced(workload, args.seconds)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 2

    failed = [op for op in ops if not op.ok]
    for op in failed[:20]:
        print(f"FAILED {op.name}: {op.detail}", file=sys.stderr)
    prov = dict(provenance(args.seed, threads), workload=args.workload,
                seconds=args.seconds, trace=args.trace, **details)
    (work / f"provenance_trace{args.trace}.json").write_text(json.dumps(prov, indent=1) + "\n")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
