#!/usr/bin/env python3
"""Audit sweep over the screening scale omega (5 log-spaced points).

Writes indexed subdirectories under ./out/omega_sweep and prints how the
ground-state energies of the mechanical and oracle engines move with omega.
"""
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hykg.cli import main  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "out" / "omega_sweep"

SWEEP_CFG = """
[params]
K = 2.0
k1 = 1.0
k2 = 1.0
omega = 0.25
D_e = 1.0
M = 1.0
mu = 1.0
s_sign = negative

[grid]
r_max = 70.0
N = 2000

[run]
engines = mechanical, oracle
n_max = 0
formats = csv, json

[sweep]
parameter = omega
start = 0.1
stop = 1.0
count = 5
scale = log
"""


def run():
    with tempfile.NamedTemporaryFile("w", suffix=".cfg", delete=False) as fh:
        fh.write(SWEEP_CFG)
        cfg = fh.name
    try:
        rc = main(["audit", "--config", cfg, "--out", str(OUT)])
    finally:
        os.unlink(cfg)
    if rc != 0:
        raise SystemExit(rc)
    index = json.loads((OUT / "index.json").read_text())
    print(f"\n{'omega':>10s} {'E0 mechanical':>16s} {'E0 oracle':>16s}")
    for point in index["points"]:
        row = json.loads((OUT / point["dir"] / "audit.json").read_text())["rows"][0]
        mech = row["E_mechanical"]
        orac = row["E_oracle"]
        print(f"{point['value']:10.4f} {str(mech):>16s} {str(orac):>16s}")


if __name__ == "__main__":
    run()
