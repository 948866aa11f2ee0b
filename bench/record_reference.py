#!/usr/bin/env python3
"""Record the closedform-sweep energies of seed 0 that later commits are checked against.

    python3 bench/record_reference.py

Writes ``bench/reference/closedform-sweep-seed0.json``: for each of the first
ITERATIONS iterations, per sweep point, the (n, engine, E) rows of
``spectrum.csv``.
"""
import json
import shutil

import workloads as wl

ITERATIONS = 2 * wl.SWEEP_BLOCK


def main() -> int:
    work = wl.ROOT / ".bench_out" / "record-reference"
    work.mkdir(parents=True, exist_ok=True)
    config, out = work / "sweep.cfg", work / "out"
    records = []
    for i in range(ITERATIONS):
        spec = wl.sweep_spec(0, i)
        config.write_text(wl.sweep_config_text(spec))
        shutil.rmtree(out, ignore_errors=True)
        if wl.hykg_main(["spectrum", "--config", str(config), "--out", str(out)]) != 0:
            raise SystemExit(f"sweep {i} failed")
        problems = wl.check_sweep_outputs(out, spec, None)
        if problems:
            raise SystemExit(f"sweep {i}: {problems}")
        records.append([[[n, engine, E] for n, engine, E, _ in rows]
                        for rows in wl.sweep_levels(out)])
    path = wl.REFERENCE_DIR / "closedform-sweep-seed0.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(records) + "\n")
    print(f"wrote {ITERATIONS} sweeps to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
