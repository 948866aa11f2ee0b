"""Outside-in tracer: wraps hykg's public functions from the benchmark process.

Nothing under ``src/`` is changed.  ``install`` replaces each target function
with a wrapper in *every* loaded ``hykg`` module that holds it, so a name
bound with ``from .x import f`` is caught in each importing module too.
``uninstall`` puts the originals back.

Three kinds of wrapper keep the cost proportional to what is asked for:

* ``span``  -- timed, and recorded as a span (name, start, end, parent span,
  iteration id, self time).  Used at coarse boundaries only.
* ``timed`` -- timed for calls / total / self time, but no span record.  Used
  for hot scalar functions called ~10^4-10^5 times per iteration.
* ``count`` -- a call counter and nothing else, for the hottest calls.

Self time is a call's duration minus the time its (directly nested) timed
children took; single-threaded nesting means children never overlap.
"""
from __future__ import annotations

import sys
import time
import warnings
from contextlib import contextmanager

# (module, function, kind).  Module names are relative to the hykg package.
TARGETS = (
    ("hylleraas", "derive_abc", "count"),
    ("hylleraas", "appendix_constants", "timed"),
    ("hylleraas", "appendix_a_forms", "timed"),
    ("nu", "pi_candidates", "timed"),
    ("nu", "solve_k", "timed"),
    ("closedform", "mechanical_residual", "count"),
    ("closedform", "implicit_residual", "count"),
    ("closedform", "eq45_rhs", "count"),
    ("closedform", "energy_eq45_result", "span"),
    ("closedform", "energy_implicit_result", "span"),
    ("closedform", "energy_mechanical_result", "span"),
    ("rootfind", "scan_roots", "span"),
    ("rootfind", "brent", "span"),
    ("rootfind", "estimate_order", "span"),
    ("oracle", "solve_relativistic", "span"),
    ("oracle", "eigen_tridiagonal", "span"),
    ("oracle", "eigenvector_tridiagonal", "span"),
    ("oracle", "numerov_shoot", "span"),
    ("oracle", "numerov_defect", "span"),
    ("wavefunction", "build_radial", "span"),
    ("audit", "ode_residual", "span"),
    ("audit", "run_audit", "span"),
    ("cli", "atomic_write", "span"),
    ("config", "load_config", "span"),
)

COUNTERS = ("cli.atomic_write.bytes", "oracle.eigensolve_bytes_computed",
            "oracle.grid_heuristic_warnings", "oracle.levels_found",
            "rootfind.brent.fevals", "rootfind.roots", "rootfind.rejected")

RESIDUALS = ("closedform.mechanical_residual", "closedform.implicit_residual",
             "closedform.eq45_rhs")
ENGINE_RESULTS = ("closedform.energy_eq45_result", "closedform.energy_implicit_result",
                  "closedform.energy_mechanical_result")


class Tracer:
    """Spans and counters of one benchmark process, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        # name -> [calls, total_s, self_s]
        self.stats: dict[str, list] = {f"{module}.{attr}": [0, 0.0, 0.0]
                                       for module, attr, _ in TARGETS}
        # extra work counters: bytes, brent f-evaluations, roots, warnings, ...
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        # scope (CLI command) -> counter deltas accumulated inside it
        self.scopes: dict[str, dict] = {}
        self.iteration: int | None = None
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, kind in TARGETS:
            module = sys.modules["hykg." + mod_name]
            original = getattr(module, attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original, kind)
            for other_name, other in list(sys.modules.items()):
                if other_name != "hykg" and not other_name.startswith("hykg."):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapper)
                        self._patched.append((other, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    @contextmanager
    def traced(self, iteration: int):
        """Install the wrappers and record GridHeuristicWarning emissions."""
        from hykg.oracle import GridHeuristicWarning

        self.iteration = iteration
        self.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                yield self
        finally:
            self.uninstall()
            self.iteration = None
        self.add("oracle.grid_heuristic_warnings",
                 sum(1 for w in caught if issubclass(w.category, GridHeuristicWarning)))

    # -- recording ----------------------------------------------------------

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def _push(self, record: bool) -> list:
        stack = self._stack
        parent = None
        if stack:
            top = stack[-1]
            parent = top[2] if top[2] is not None else top[3]
        span_id = None
        if record:
            span_id = self._next_id
            self._next_id += 1
        frame = [0.0, 0.0, span_id, parent]
        stack.append(frame)
        frame[0] = time.perf_counter()
        return frame

    def _pop(self, frame: list, name: str) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame[0]
        self_s = duration - frame[1]
        if stack:
            stack[-1][1] += duration
        st = self.stats[name]
        st[0] += 1
        st[1] += duration
        st[2] += self_s
        if frame[2] is not None:
            self.spans.append((frame[2], name, frame[0], end, frame[3],
                               self.iteration, self_s))

    @contextmanager
    def span(self, name: str, scope: str):
        """A span opened by the benchmark itself (one CLI command); the
        counters it moves are also kept apart under ``scope``."""
        self.stats.setdefault(name, [0, 0.0, 0.0])
        before = self.snapshot()
        frame = self._push(True)
        try:
            yield
        finally:
            self._pop(frame, name)
            delta = self.scopes.setdefault(scope, {})
            for key, value in self.snapshot().items():
                delta[key] = delta.get(key, 0) + value - before.get(key, 0)

    def _wrap(self, name, fn, kind):
        if kind == "count":
            cell = self.stats[name]

            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

            return counted

        record = kind == "span"
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        push, pop = self._push, self._pop

        def timed(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            frame = push(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                pop(frame, name)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return timed

    # -- read-out -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of every counter: ``name.calls``, ``name.s``, ``name.self_s``
        for each wrapped function, plus the extra work counters."""
        out = {}
        for name, (calls, total, self_s) in self.stats.items():
            out[name + ".calls"] = calls
            out[name + ".s"] = total
            out[name + ".self_s"] = self_s
        out.update(self.counters)
        return out


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _brent_before(tracer, args, kwargs):
    f = _arg(args, kwargs, 0, "f")

    def counted_f(x):
        tracer.add("rootfind.brent.fevals", 1)
        return f(x)

    if args:
        return (counted_f,) + tuple(args[1:]), kwargs
    return args, dict(kwargs, f=counted_f)


def _eigen_before(tracer, args, kwargs):
    n = _arg(args, kwargs, 1, "grid").n
    # stebz reads the diagonal (n) and off-diagonal (n - 1) float64 arrays
    tracer.add("oracle.eigensolve_bytes_computed", 8 * (2 * n - 1))
    return args, kwargs


def _write_before(tracer, args, kwargs):
    tracer.add("cli.atomic_write.bytes", len(_arg(args, kwargs, 1, "text").encode()))
    return args, kwargs


def _scan_after(tracer, args, kwargs, result):
    tracer.add("rootfind.roots", len(result.roots))
    tracer.add("rootfind.rejected", len(result.rejected))


def _solve_after(tracer, args, kwargs, result):
    tracer.add("oracle.levels_found", int(result.found))


_BEFORE = {
    "rootfind.brent": _brent_before,
    "oracle.eigen_tridiagonal": _eigen_before,
    "cli.atomic_write": _write_before,
}
_AFTER = {
    "rootfind.scan_roots": _scan_after,
    "oracle.solve_relativistic": _solve_after,
}
