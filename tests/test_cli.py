import dataclasses
import hashlib
import json
import math
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from hykg import audit, cli, oracle, wavefunction
from hykg.cli import cmd_wavefunction, main, run_selftest, spectrum_rows
from hykg.config import (
    RunConfig,
    SweepSpec,
    default_config,
    load_config,
    parse_config,
)
from hykg.errors import ConfigError, MissingLevel
from hykg.levels import Engine, EnergyLevel

FAST_CFG = """
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
r_max = 40.0
N = 800

[run]
engines = mechanical, oracle
n_max = 1
formats = csv, json
"""

GOLDEN = Path(__file__).resolve().parent / "golden"
# sha256 of the default `wavefunction --n 0` profile (4000 rows, 194,205 bytes)
WF_N0_CSV_SHA256 = "2248276a47f8c085d30dd619c3203728abd51834c2cd8358b173561d62021bec"


@pytest.fixture
def fast_cfg_path(tmp_path):
    p = tmp_path / "fast.cfg"
    p.write_text(FAST_CFG)
    return p


def stub_engine(eng, energies, calls=None):
    """An ENGINES entry reporting found levels at `energies`, ascending; no
    energies is a miss, an empty list."""
    def levels(params, ns, grid):
        if calls is not None:
            calls.append(eng)
        return {n: [EnergyLevel(n=n, E=e, Ebar=e * e - 1.0, engine=eng, residual=0.0)
                    for e in sorted(energies)]
                for n in ns}
    return levels


class TestConfig:
    def test_defaults(self):
        cfg = default_config()
        assert cfg.n_max == 3
        assert len(cfg.engines) == 4
        assert cfg.grid().n == 4000
        assert cfg.grid().r_max == pytest.approx(40.0)

    def test_parse_round(self):
        cfg = parse_config(FAST_CFG)
        assert cfg.engines == (Engine.MECHANICAL_NU, Engine.ORACLE)
        assert cfg.grid_n == 800
        assert cfg.params.s_sign.value == "negative"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[params]\nKK = 2.0\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[paramz]\nK = 2.0\n")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[run]\nengines = warp\n")

    def test_engine_listed_twice_rejected(self):
        with pytest.raises(ConfigError, match="engine listed twice"):
            parse_config("[run]\nengines = mechanical, Mechanical\n")

    def test_empty_formats_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="at least one format"):
            parse_config("[run]\nformats = ,\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(FAST_CFG.replace("formats = csv, json", "formats = ,"))
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_invalid_sweep_point_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(FAST_CFG + "\n[sweep]\nparameter = omega\nstart = -0.5\n"
                                  "stop = 0.5\ncount = 3\n")
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("config error: [sweep] omega = -0.5: "
                                           "invalid parameters: omega must be > 0\n")
        assert not out.exists()

    def test_default_grid_for_k_below_minus_one(self, tmp_path):
        # ln s moves at the rate 2 |1 + K| w for either sign of 1 + K
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[params]\nK = -2.0\n[grid]\nN = 400\n[run]\n"
                       "engines = mechanical\nn_max = 0\n")
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert load_config(cfg).grid().r_max == pytest.approx(120.0)

    def test_unbuildable_default_grid_is_config_error(self, tmp_path, capfd):
        # 30 / (|1 + K| w) overflows to inf
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[params]\nomega = 1e-310\n")
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
        err = capfd.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()
        sweep = "[sweep]\nparameter = omega\nstart = 1e-310\nstop = 0.25\ncount = 2\n"
        with pytest.raises(ConfigError, match=r"\[sweep\] omega = 1e-310: no radial grid"):
            parse_config(sweep)

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[params]\nK = banana\n")

    def test_sweep_parameter_message(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[sweep]\nparameter = s_sign\nstart = 1\nstop = 2\ncount = 2\n")
        assert str(err.value) == ("[sweep] parameter must be one of "
                                  "('K', 'k1', 'k2', 'omega', 'D_e', 'M', 'mu')")
        with pytest.raises(ConfigError, match=r"^\[params\] D_e: not a number: 'x'$"):
            parse_config("[params]\nd_e = x\n")

    def test_sweep_values(self):
        lin = SweepSpec("omega", 0.1, 0.5, 5, "linear")
        assert lin.values() == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])
        log = SweepSpec("omega", 0.1, 10.0, 3, "log")
        assert log.values() == pytest.approx([0.1, 1.0, 10.0])

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.cfg")

    def test_committed_default_config_matches_builtin(self):
        committed = load_config(Path(__file__).resolve().parents[1] / "configs" / "default.cfg")
        assert committed.params == default_config().params
        assert committed.n_max == default_config().n_max
        assert committed.engines == default_config().engines


class TestSpectrumCommand:
    def test_writes_files_and_is_deterministic(self, fast_cfg_path, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["spectrum", "--config", str(fast_cfg_path), "--out", str(out1)]) == 0
        assert main(["spectrum", "--config", str(fast_cfg_path), "--out", str(out2)]) == 0
        csv1 = (out1 / "spectrum.csv").read_bytes()
        csv2 = (out2 / "spectrum.csv").read_bytes()
        assert csv1 == csv2
        assert csv1.startswith(b"n,engine,E,Ebar,residual,flags\n")
        assert (out1 / "spectrum.json").read_bytes() == (out2 / "spectrum.json").read_bytes()

    def test_output_mode_follows_umask(self, fast_cfg_path, tmp_path):
        # the staged temp file is renamed onto the output, so its mode is
        # the output's: 0o666 less the umask, as a plain open() gives
        out = tmp_path / "out"
        old = os.umask(0o022)
        try:
            assert main(["spectrum", "--config", str(fast_cfg_path), "--out", str(out)]) == 0
        finally:
            os.umask(old)
        assert sorted(p.name for p in out.iterdir()) == ["spectrum.csv", "spectrum.json"]
        for path in out.iterdir():
            assert stat.S_IMODE(path.stat().st_mode) == 0o644

    def test_free_case_header_only(self, tmp_path):
        cfg = tmp_path / "free.cfg"
        cfg.write_text(FAST_CFG.replace("D_e = 1.0", "D_e = 0.0"))
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "spectrum.csv").read_text() == "n,engine,E,Ebar,residual,flags\n"

    def test_engine_filter(self, tmp_path):
        cfg = tmp_path / "o.cfg"
        cfg.write_text(FAST_CFG.replace("engines = mechanical, oracle",
                                        "engines = oracle"))
        rows = spectrum_rows(load_config(cfg))
        assert rows
        assert all(r.split(",")[1] == "Oracle" for r in rows)

    def test_oracle_is_an_engine_not_a_command(self, fast_cfg_path, tmp_path, capsys):
        # `spectrum` with `engines = oracle` (test_engine_filter) is the oracle run
        assert list(cli.COMMANDS) == ["spectrum", "audit", "wavefunction", "selftest"]
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--config", str(fast_cfg_path), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "invalid choice: 'oracle'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rows_from_engine_table(self, monkeypatch):
        monkeypatch.setitem(audit.ENGINES, Engine.EQ45_VERBATIM,
                            stub_engine(Engine.EQ45_VERBATIM, [0.25, -0.5]))
        monkeypatch.setitem(audit.ENGINES, Engine.MECHANICAL_NU,
                            stub_engine(Engine.MECHANICAL_NU, [-0.75]))
        monkeypatch.setitem(audit.ENGINES, Engine.ORACLE,
                            stub_engine(Engine.ORACLE, []))
        cfg = dataclasses.replace(
            default_config(), n_max=1,
            engines=(Engine.ORACLE, Engine.MECHANICAL_NU, Engine.EQ45_VERBATIM))
        keys = [tuple(r.split(",")[:3]) for r in spectrum_rows(cfg)]
        # the oracle's misses give no row; rows sort by (n, engine, E)
        assert keys == [(str(n), eng, e) for n in ("0", "1") for eng, e in (
            ("Eq45Verbatim", "-0.5"), ("Eq45Verbatim", "0.25"),
            ("MechanicalNU", "-0.75"))]

    def test_round_trip_precision(self, fast_cfg_path):
        rows = spectrum_rows(load_config(fast_cfg_path))
        for row in rows:
            e_text = row.split(",")[2]
            assert repr(float(e_text)) == e_text

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[params]\nbogus = 1\n")
        assert main(["spectrum", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2

    def test_n_max_override(self, fast_cfg_path, tmp_path):
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(fast_cfg_path), "--out", str(out),
                     "--n-max", "0"]) == 0
        body = (out / "spectrum.csv").read_text().strip().split("\n")[1:]
        assert body and all(line.split(",")[0] == "0" for line in body)

    def test_io_error_exit_code(self, fast_cfg_path, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        assert main(["spectrum", "--config", str(fast_cfg_path),
                     "--out", str(blocker / "sub")]) == 3


class TestWavefunctionCommand:
    def test_writes_csv_and_sidecar(self, fast_cfg_path, tmp_path):
        out = tmp_path / "wf"
        assert main(["wavefunction", "--config", str(fast_cfg_path),
                     "--out", str(out), "--n", "0"]) == 0
        csv_path = out / "wf_n0.csv"
        body = csv_path.read_text().strip().split("\n")
        assert body[0] == "r,R_closed,R_oracle"
        assert len(body) == 1 + 800  # one row per grid point
        sidecar = json.loads((out / "wf_n0.flags.json").read_text())
        assert "TailNotConverged" in sidecar["flags"]  # expected finding here
        assert sidecar["overlap_closed_oracle"] is not None
        assert math.isfinite(sidecar["ode_residual_closedform"])

    def test_default_outputs_pinned(self, tmp_path):
        assert main(["wavefunction", "--n", "0", "--out", str(tmp_path)]) == 0
        assert ((tmp_path / "wf_n0.flags.json").read_text()
                == (GOLDEN / "wf_n0.flags.json").read_text())
        digest = hashlib.sha256((tmp_path / "wf_n0.csv").read_bytes()).hexdigest()
        assert digest == WF_N0_CSV_SHA256

    def test_sidecar_matches_audit_column(self, fast_cfg_path, tmp_path):
        from hykg.audit import run_audit

        out = tmp_path / "wf"
        main(["wavefunction", "--config", str(fast_cfg_path), "--out", str(out), "--n", "0"])
        sidecar = json.loads((out / "wf_n0.flags.json").read_text())
        cfg = load_config(fast_cfg_path)
        report = run_audit(cfg.params, 0, grid=cfg.grid())
        assert sidecar["ode_residual_closedform"] == pytest.approx(
            report.rows[0].ode_residual_closedform, rel=1e-12)

    def test_closed_form_preference(self, fast_cfg_path, tmp_path, monkeypatch):
        cfg = dataclasses.replace(
            load_config(fast_cfg_path),
            engines=(Engine.EQ45_VERBATIM, Engine.IMPLICIT_LAMBDA,
                     Engine.MECHANICAL_NU))
        real = audit.ENGINES[Engine.MECHANICAL_NU](cfg.params, (0,),
                                                   cfg.grid())[0][0]
        calls = []
        monkeypatch.setitem(audit.ENGINES, Engine.MECHANICAL_NU,
                            stub_engine(Engine.MECHANICAL_NU, [], calls))
        monkeypatch.setitem(audit.ENGINES, Engine.IMPLICIT_LAMBDA,
                            stub_engine(Engine.IMPLICIT_LAMBDA, [real.E, 0.5], calls))
        monkeypatch.setitem(audit.ENGINES, Engine.EQ45_VERBATIM,
                            stub_engine(Engine.EQ45_VERBATIM, [real.E], calls))
        cmd_wavefunction(cfg, 0, tmp_path)
        # mechanical is asked first and finds nothing; implicit's first level wins
        assert calls == [Engine.MECHANICAL_NU, Engine.IMPLICIT_LAMBDA]
        sidecar = json.loads((tmp_path / "wf_n0.flags.json").read_text())
        assert sidecar["closed_form_engine"] == "ImplicitLambda"
        assert sidecar["E_closed"] == real.E

    def test_no_closed_form_level(self, fast_cfg_path, tmp_path, monkeypatch):
        for eng in (Engine.EQ45_VERBATIM, Engine.IMPLICIT_LAMBDA, Engine.MECHANICAL_NU):
            monkeypatch.setitem(audit.ENGINES, eng, stub_engine(eng, []))
        cfg = dataclasses.replace(load_config(fast_cfg_path), engines=tuple(Engine))
        with pytest.raises(MissingLevel):
            cmd_wavefunction(cfg, 0, tmp_path / "w")
        assert main(["wavefunction", "--config", str(fast_cfg_path),
                     "--out", str(tmp_path / "w"), "--n", "0"]) == 4

    def test_missing_level_exit_4(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        # n = 1 has no mechanical root at the defaults
        cfg.write_text(FAST_CFG)
        assert main(["wavefunction", "--config", str(cfg),
                     "--out", str(tmp_path / "w"), "--n", "1"]) == 4

    def test_oracle_level_from_engine_table(self, fast_cfg_path, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setitem(audit.ENGINES, Engine.ORACLE,
                            stub_engine(Engine.ORACLE, [-0.5], calls))
        assert main(["wavefunction", "--config", str(fast_cfg_path),
                     "--out", str(tmp_path), "--n", "0"]) == 0
        sidecar = json.loads((tmp_path / "wf_n0.flags.json").read_text())
        assert calls == [Engine.ORACLE]
        assert sidecar["E_oracle"] == -0.5

    @pytest.mark.parametrize("n", ["-1", "11"])
    def test_n_out_of_range_is_config_error(self, fast_cfg_path, tmp_path, n):
        out = tmp_path / "w"
        assert main(["wavefunction", "--config", str(fast_cfg_path),
                     "--out", str(out), "--n", n]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("s_sign", ["negative", "positive"])
    def test_complex_exponents_are_config_error(self, tmp_path, capfd, s_sign):
        # at k2 = 0.5 the n = 1 closed form has complex muJ, nuJ: no real
        # profile to sample
        cfg = tmp_path / "k2.cfg"
        cfg.write_text(Path(__file__).resolve().parents[1].joinpath("configs", "default.cfg")
                       .read_text().replace("k2 = 1.0", "k2 = 0.5")
                       .replace("s_sign = negative", f"s_sign = {s_sign}"))
        assert load_config(cfg).params.k2 == 0.5
        out = tmp_path / "w"
        assert main(["wavefunction", "--config", str(cfg), "--out", str(out), "--n", "1"]) == 2
        err = capfd.readouterr().err
        assert err.startswith("config error: closed form n=1") and err.count("\n") == 1
        assert "is not real" in err
        assert not out.exists()

    def test_far_tail_grid_overflow_is_config_error(self, tmp_path, capfd):
        # s(r) = exp(2 (1+K) w r) overflows inside this grid, so the closed
        # form cannot be sampled there
        cfg = tmp_path / "far.cfg"
        cfg.write_text(FAST_CFG.replace("negative", "positive")
                       .replace("r_max = 40.0", "r_max = 500.0"))
        out = tmp_path / "w"
        assert main(["wavefunction", "--config", str(cfg), "--out", str(out),
                     "--n", "0"]) == 2
        err = capfd.readouterr().err
        assert err.count("\n") == 1
        assert "overflows" in err and "r_max = 500.0" in err
        assert not list(out.glob("wf_*"))

    def test_non_positive_base_is_config_error(self, tmp_path, capfd):
        # K = 0.5 puts a = c = -0.25: the confluent base s - 0.25 turns
        # negative once s = exp(-r) < 0.25 on the default grid
        cfg = tmp_path / "base.cfg"
        cfg.write_text("[params]\nK = 0.5\nk1 = 1.0\nk2 = 1.0\ns_sign = negative\n")
        assert load_config(cfg).params.abc.a == -0.25
        out = tmp_path / "w"
        assert main(["wavefunction", "--config", str(cfg), "--out", str(out),
                     "--n", "0"]) == 2
        err = capfd.readouterr().err
        assert err.startswith("config error: closed form n=0") and err.count("\n") == 1
        assert "base factor must stay positive" in err
        assert not list(out.glob("wf_*"))

    def test_non_positive_factor_base_is_config_error(self, tmp_path, capfd):
        # a != c here: the mechanical n = 0 level's printed factor has a base
        # that turns non-positive on the default grid, so no representation
        # can be sampled; audit scores none and still writes both rows
        cfg = tmp_path / "bases.cfg"
        cfg.write_text("[params]\nK = 1.5686060290282287\nk1 = 1.9701800862985168\n"
                       "k2 = 0.16771226534540684\nomega = 0.2119913530134746\n"
                       "D_e = 2.5136068291881974\ns_sign = negative\n\n"
                       "[run]\nengines = mechanical, oracle\nn_max = 1\n")
        assert not wavefunction._is_confluent(load_config(cfg).params)
        out = tmp_path / "w"
        assert main(["wavefunction", "--config", str(cfg), "--out", str(out),
                     "--n", "0"]) == 2
        assert capfd.readouterr().err == (
            "config error: closed form n=0 cannot be sampled on the grid "
            "(r_max = 55.09416564425451): factor bases must be positive\n")
        assert not list(out.glob("wf_*"))
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        rows = json.loads((tmp_path / "a" / "audit.json").read_text())["rows"]
        assert [row["ode_form"] for row in rows] == ["none", "none"]

    def test_one_build_per_command(self, fast_cfg_path, tmp_path, monkeypatch):
        # the CSV and the sidecar's ode_residual read the same sampled forms
        calls = []
        real = wavefunction.build_radial

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "build_radial", counted)
        monkeypatch.setattr(audit, "build_radial", counted)
        assert main(["wavefunction", "--config", str(fast_cfg_path),
                     "--out", str(tmp_path), "--n", "0"]) == 0
        assert len(calls) == 1

    def test_one_sample_of_v_per_run(self, tmp_path, monkeypatch):
        # the spectrum's counts, the audit's ode residuals and the
        # wavefunction's oracle vector and residual all read the V that
        # oracle._well sampled once for the config's (params, grid)
        sampled = []
        sample = oracle.potential_V

        def counted_sample(r, params):
            sampled.append(params)
            return sample(r, params)

        monkeypatch.setattr(oracle, "potential_V", counted_sample)
        oracle._well.cache_clear()
        cfg = GOLDEN.parent.parent / "configs" / "default.cfg"
        for command in (["spectrum"], ["audit"], ["wavefunction", "--n", "0"]):
            assert main(command + ["--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert sampled == [load_config(cfg).params]


# K = 2, k1 = 1, k2 = 0.5: a != c, so the four printed representations are
# built and scored (the default goldens all sit at a = c)
ASYMMETRIC_CFG = """
[params]
K = 2.0
k1 = 1.0
k2 = 0.5
omega = 0.25
D_e = 3.0
M = 1.0
mu = 1.0
s_sign = negative

[grid]
r_max = 40.0
N = 2000

[run]
n_max = 3
"""

ASYMMETRIC_SHA256 = {
    "spectrum.csv": "892d16e8c15eee5e8debc2bc5e10f8140851cfa301dc751ea8a33b2e442cf691",
    "spectrum.json": "f430f6f41cd40375cab066ed2334c3f552102affb3c56a091cf5f8aac3006993",
    "audit.csv": "98f87f166b26f351501caa77ff287c12f5186acd548a795972a10363acca0e86",
    "audit.json": "d640b7c1459ace165c8f7de2b573c1e233e2f1831b4e0ca47c3560c76aa133e2",
    "wf_n1.csv": "26e61226920a73760f378bfb4f921004b08edf0f082080f7bd4f8be54b0cc980",
    "wf_n1.flags.json": "61167316c362caaebab772e23602e41eb37a6970a0b8fb8be0d67ad70ad6fe2a",
}


def test_asymmetric_outputs_pinned(tmp_path):
    cfg = tmp_path / "asym.cfg"
    cfg.write_text(ASYMMETRIC_CFG)
    for command in (["spectrum"], ["audit"], ["wavefunction", "--n", "1"]):
        assert main(command + ["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
               for name in ASYMMETRIC_SHA256}
    assert digests == ASYMMETRIC_SHA256
    audit_rows = json.loads((tmp_path / "out" / "audit.json").read_text())["rows"]
    assert {row["ode_form"] for row in audit_rows} == {"none", "symmetric/F_on_a"}


class TestAuditCommand:
    def test_far_tail_grid(self, tmp_path):
        # exp(2 (1+K) w r) overflows on this grid; the potential stays finite
        cfg = tmp_path / "far.cfg"
        cfg.write_text(FAST_CFG.replace("negative", "positive")
                       .replace("r_max = 40.0", "r_max = 500.0"))
        for command in ("spectrum", "audit"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0

    def test_audit_files(self, fast_cfg_path, tmp_path):
        out1, out2 = tmp_path / "a1", tmp_path / "a2"
        assert main(["audit", "--config", str(fast_cfg_path), "--out", str(out1),
                     "--n-max", "0"]) == 0
        assert main(["audit", "--config", str(fast_cfg_path), "--out", str(out2),
                     "--n-max", "0"]) == 0
        assert (out1 / "audit.json").read_bytes() == (out2 / "audit.json").read_bytes()
        assert (out1 / "audit.csv").read_bytes() == (out2 / "audit.csv").read_bytes()
        payload = json.loads((out1 / "audit.json").read_text())
        assert payload["version"].startswith("hykg ")

    def test_sweep_subdirectories(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(FAST_CFG.replace("n_max = 1", "n_max = 0") + """
[sweep]
parameter = omega
start = 0.2
stop = 0.4
count = 3
scale = log
""")
        out = tmp_path / "sweep"
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
        index = json.loads((out / "index.json").read_text())
        assert len(index["points"]) == 3
        for point in index["points"]:
            assert (out / point["dir"] / "audit.json").is_file()


# Runs in a fresh interpreter: the test process has long since loaded scipy.
# Each entry is the sorted list of scipy modules the process holds.
_STARTUP_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
cfg, oracle_cfg, out = sys.argv[2], sys.argv[3], sys.argv[4]
loaded = []
def scipy_modules():
    loaded.append(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
import hykg
scipy_modules()
import hykg.cli
from hykg.config import load_config
scipy_modules()
load_config(cfg)
scipy_modules()
assert hykg.cli.main(["spectrum", "--config", cfg, "--out", out + "/cf"]) == 0
assert hykg.cli.main(["wavefunction", "--n", "0", "--config", cfg, "--out", out + "/cf"]) == 0
scipy_modules()
assert hykg.cli.main(["spectrum", "--config", oracle_cfg, "--out", out + "/oracle"]) == 0
scipy_modules()
print(json.dumps(loaded))
"""


class TestStartup:
    def test_closed_form_runs_never_load_scipy(self, tmp_path):
        cfg = tmp_path / "closed.cfg"
        cfg.write_text(FAST_CFG.replace("engines = mechanical, oracle", "engines = mechanical"))
        oracle_cfg = tmp_path / "oracle.cfg"
        oracle_cfg.write_text(FAST_CFG.replace("engines = mechanical, oracle", "engines = oracle"))
        src = Path(__import__("hykg").__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", _STARTUP_SCRIPT, str(src), str(cfg), str(oracle_cfg),
             str(tmp_path / "fresh")],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        # after import hykg, import hykg.cli, load_config, spectrum and
        # wavefunction: no scipy; an oracle spectrum loads BLAS's compiled
        # wrapper alone, and neither the scipy nor the scipy.linalg package
        assert json.loads(proc.stdout) == [[], [], [], [], ["scipy.linalg._fblas"]]
        assert sorted(p.name for p in (tmp_path / "fresh" / "cf").iterdir()) == [
            "spectrum.csv", "spectrum.json", "wf_n0.csv", "wf_n0.flags.json"]

        here = tmp_path / "here"
        assert main(["spectrum", "--config", str(oracle_cfg), "--out", str(here)]) == 0
        fresh = tmp_path / "fresh" / "oracle"
        assert sorted(p.name for p in fresh.iterdir()) == ["spectrum.csv", "spectrum.json"]
        for name in ("spectrum.csv", "spectrum.json"):
            assert (fresh / name).read_bytes() == (here / name).read_bytes()


class TestSelftest:
    FIXTURE_NAMES = ["box-counts", "box-vector", "oscillator-odd-states",
                     "nu-hydrogen-quantization", "radial-polynomials"]

    def test_passes_clean(self, capsys):
        assert run_selftest() == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == self.FIXTURE_NAMES
        assert all(line.split()[1] == "PASS" for line in lines)
        for line in lines:
            assert re.search(r"\(defect \d\.\de[+-]\d\d, tol ", line), line

    def test_perturbed_fixture_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "FIXTURES", cli.FIXTURES[:1] + (
            ("over-tolerance", lambda: 2.0, 1.0),))
        assert run_selftest() == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and "PASS" in lines[0]
        assert lines[1].startswith("over-tolerance") and "FAIL" in lines[1]

    def test_raising_fixture_fails_and_the_rest_run(self, monkeypatch, capsys):
        def broken():
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(cli, "FIXTURES", (("broken", broken, 1.0),) + cli.FIXTURES[:1])
        assert run_selftest() == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 2
        assert lines[0] == f"{'broken':28s} FAIL (raised ZeroDivisionError: float division by zero)"
        assert "in broken" in captured.err and "Traceback" in captured.err
        assert lines[1].startswith("box-counts") and "PASS" in lines[1]

    def test_matrix_fixtures_run_the_count_kernel(self, monkeypatch, capsys):
        # one count too many shifts every count the box fixture checks and
        # every eigenvalue the oscillator fixture bisects, so both must fail
        # and nothing else may
        count = oracle.SturmCounter.count
        monkeypatch.setattr(oracle.SturmCounter, "count",
                            lambda self, c, sigma: count(self, c, sigma) + 1)
        assert run_selftest() == 1
        failed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                  if "FAIL" in line]
        assert failed == ["box-counts", "oscillator-odd-states"]

    @pytest.mark.parametrize("module, name, perturb, fixture", [
        (oracle, "eigenvector_tridiagonal", lambda vec: vec + 1e-9, "box-vector"),
        (wavefunction, "rodrigues_chi", lambda chi: chi * (1 + 1e-9), "radial-polynomials"),
        (wavefunction, "confluent_chi_coeffs", lambda coeffs: [g * (1 + 1e-9) for g in coeffs],
         "radial-polynomials"),
    ], ids=["eigenvector_tridiagonal", "rodrigues_chi", "confluent_chi_coeffs"])
    def test_a_perturbed_kernel_fails_only_its_fixture(self, monkeypatch, capsys,
                                                       module, name, perturb, fixture):
        kernel = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: perturb(kernel(*args)))
        assert run_selftest() == 1
        failed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                  if "FAIL" in line]
        assert failed == [fixture]

    def test_reaches_only_what_the_commands_reach(self, tmp_path, capsys):
        # every hykg function the selftest calls outside its own fixtures is
        # one that spectrum, audit or wavefunction calls, on the default
        # config (the confluent factor) or the asymmetric one (the Rodrigues
        # factor), except the names below
        allowed = {
            "oracle.box_grid",  # a grid constructor
            # the benchmark's tracer target; the oscillator fixture bisects
            # its fixed W on the count kernel
            "oracle.eigen_tridiagonal",
            "oracle.eigen_tridiagonal.<locals>.<lambda>",
            "wavefunction.jacobi_P",  # the reference for the Rodrigues factor
        }
        package = os.path.dirname(cli.__file__)

        def reached(run):
            names = set()

            def profile(frame, event, arg):
                code = frame.f_code
                if event == "call" and os.path.dirname(code.co_filename) == package:
                    names.add(f"{Path(code.co_filename).stem}.{code.co_qualname}")

            sys.setprofile(profile)
            try:
                run()
            finally:
                sys.setprofile(None)
            return names

        asymmetric = tmp_path / "asym.cfg"
        asymmetric.write_text(ASYMMETRIC_CFG)

        def commands():
            for cfg in (GOLDEN.parents[1] / "configs" / "default.cfg", asymmetric):
                for command in (["spectrum"], ["audit"], ["wavefunction", "--n", "0"]):
                    assert main(command + ["--config", str(cfg),
                                           "--out", str(tmp_path / "out")]) == 0

        by_commands = reached(commands)
        by_selftest = reached(run_selftest)
        assert "wavefunction.rodrigues_chi" in by_commands
        assert "wavefunction.confluent_chi_coeffs" in by_commands
        only = {name for name in by_selftest - by_commands
                if not name.startswith(("cli._fixture_", "cli.run_selftest"))}
        assert only <= allowed, sorted(only - allowed)
