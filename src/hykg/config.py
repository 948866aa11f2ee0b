"""Run configuration: flat key=value sections with strict unknown-key rejection."""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import ConfigError
from .hylleraas import DEFAULT_PARAMS, HylleraasParams, SSign
from .levels import Engine
from .oracle import RadialGrid, default_grid

ENGINE_ALIASES = {
    "eq45": Engine.EQ45_VERBATIM,
    "implicit": Engine.IMPLICIT_LAMBDA,
    "mechanical": Engine.MECHANICAL_NU,
    "oracle": Engine.ORACLE,
}

# The one parameter list: every HylleraasParams field is a [params] key, and
# every one but s_sign is a number that a [sweep] may vary.
PARAM_NAMES = tuple(f.name for f in fields(HylleraasParams))
SWEEPABLE = tuple(name for name in PARAM_NAMES if name != "s_sign")

_ALLOWED = {
    "params": set(PARAM_NAMES),
    "grid": {"r_max", "N"},
    "run": {"engines", "n_max", "formats"},
    "sweep": {"parameter", "start", "stop", "count", "scale"},
}

# largest radial quantum number a run, an audit or `wavefunction --n` accepts
N_MAX = 10


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    start: float
    stop: float
    count: int
    scale: str  # "linear" | "log"

    def values(self) -> list[float]:
        if self.count == 1:
            return [self.start]
        if self.scale == "linear":
            step = (self.stop - self.start) / (self.count - 1)
            return [self.start + i * step for i in range(self.count)]
        ratio = (self.stop / self.start) ** (1.0 / (self.count - 1))
        return [self.start * ratio ** i for i in range(self.count)]


@dataclass(frozen=True)
class RunConfig:
    params: HylleraasParams
    r_max: float | None
    grid_n: int
    engines: tuple[Engine, ...]
    n_max: int
    formats: tuple[str, ...]
    sweep: SweepSpec | None = None

    def grid(self) -> RadialGrid:
        if self.r_max is not None:
            return RadialGrid(r_min=self.r_max / self.grid_n, r_max=self.r_max,
                              n=self.grid_n)
        return default_grid(self.params, n=self.grid_n)

    def with_param(self, name: str, value: float) -> "RunConfig":
        return replace(self, params=self.params.replace(**{name: value}), sweep=None)


def default_config() -> RunConfig:
    return RunConfig(params=DEFAULT_PARAMS, r_max=None, grid_n=4000,
                     engines=tuple(Engine),
                     n_max=3, formats=("csv", "json"), sweep=None)


def _float(section: str, key: str, raw: str) -> float:
    try:
        val = float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from exc
    if not math.isfinite(val):
        raise ConfigError(f"[{section}] {key}: must be finite")
    return val


def _int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not an integer: {raw!r}") from exc


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    for section in cp.sections():
        if section not in _ALLOWED:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in {k.lower() for k in _ALLOWED[section]}:
                raise ConfigError(f"unknown key {key!r} in [{section}]")

    def get(section, key, fallback=None):
        if cp.has_section(section) and cp.has_option(section, key):
            return cp.get(section, key)
        return fallback

    base = default_config()
    p = base.params
    kw = {}
    for key in SWEEPABLE:
        raw = get("params", key.lower())
        if raw is not None:
            kw[key] = _float("params", key, raw)
    raw_sign = get("params", "s_sign")
    if raw_sign is not None:
        sign = raw_sign.strip().lower()
        if sign not in ("positive", "negative"):
            raise ConfigError("[params] s_sign must be 'positive' or 'negative'")
        kw["s_sign"] = SSign(sign)
    try:
        params = p.replace(**kw) if kw else p
    except Exception as exc:
        raise ConfigError(f"invalid parameters: {exc}") from exc

    r_max = base.r_max
    raw = get("grid", "r_max")
    if raw is not None:
        r_max = _float("grid", "r_max", raw)
        if r_max <= 0:
            raise ConfigError("[grid] r_max must be > 0")
    grid_n = base.grid_n
    raw = get("grid", "n")
    if raw is not None:
        grid_n = _int("grid", "N", raw)
        if grid_n < 200:
            raise ConfigError("[grid] N must be >= 200")

    engines = base.engines
    raw = get("run", "engines")
    if raw is not None:
        names = [t.strip().lower() for t in raw.split(",") if t.strip()]
        if not names:
            raise ConfigError("[run] engines must name at least one engine")
        try:
            engines = tuple(ENGINE_ALIASES[nm] for nm in names)
        except KeyError as exc:
            raise ConfigError(f"[run] unknown engine {exc.args[0]!r}") from exc
        dup = sorted({nm for nm in names if names.count(nm) > 1})
        if dup:
            raise ConfigError(f"[run] engine listed twice: {dup}")

    n_max = base.n_max
    raw = get("run", "n_max")
    if raw is not None:
        n_max = _int("run", "n_max", raw)
        if not 0 <= n_max <= N_MAX:
            raise ConfigError(f"[run] n_max must be in 0..{N_MAX}")

    formats = base.formats
    raw = get("run", "formats")
    if raw is not None:
        fmts = tuple(t.strip().lower() for t in raw.split(",") if t.strip())
        if not fmts:
            raise ConfigError("[run] formats must name at least one format")
        bad = [f for f in fmts if f not in ("csv", "json")]
        if bad:
            raise ConfigError(f"[run] unknown formats: {bad}")
        formats = fmts

    sweep = None
    if cp.has_section("sweep"):
        for req in ("parameter", "start", "stop", "count"):
            if not cp.has_option("sweep", req):
                raise ConfigError(f"[sweep] missing key {req!r}")
        parameter = cp.get("sweep", "parameter").strip()
        if parameter not in SWEEPABLE:
            raise ConfigError(f"[sweep] parameter must be one of {SWEEPABLE}")
        start = _float("sweep", "start", cp.get("sweep", "start"))
        stop = _float("sweep", "stop", cp.get("sweep", "stop"))
        count = _int("sweep", "count", cp.get("sweep", "count"))
        if count < 1:
            raise ConfigError("[sweep] count must be >= 1")
        scale = get("sweep", "scale", "linear").strip().lower()
        if scale not in ("linear", "log"):
            raise ConfigError("[sweep] scale must be 'linear' or 'log'")
        if scale == "log" and (start <= 0 or stop <= 0):
            raise ConfigError("[sweep] log scale needs positive endpoints")
        sweep = SweepSpec(parameter=parameter, start=start, stop=stop,
                          count=count, scale=scale)

    return RunConfig(params=params, r_max=r_max, grid_n=grid_n, engines=engines,
                     n_max=n_max, formats=formats, sweep=sweep)


def params_dict(params: HylleraasParams) -> dict:
    """The [params] keys and their values, as the JSON outputs record them."""
    return {name: getattr(params, name) for name in PARAM_NAMES} | {
        "s_sign": params.s_sign.value}


def load_config(path: str | Path | None) -> RunConfig:
    if path is None:
        return default_config()
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config(p.read_text())
