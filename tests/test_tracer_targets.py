"""The benchmark tracer wraps hykg functions by (module, name); every name it
lists must exist, so a rename in src/ shows up here and not only in the
benchmark's own suite."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("hykg_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in _targets()])
def test_tracer_target_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"hykg.{module}"), attr, None))


def test_solve_relativistic_names():
    # bench/tests requires the tracer to wrap solve_relativistic in cli and
    # audit too, so both keep the name although neither calls it
    import hykg.audit
    import hykg.cli
    import hykg.oracle

    assert hykg.cli.solve_relativistic is hykg.oracle.solve_relativistic
    assert hykg.audit.solve_relativistic is hykg.oracle.solve_relativistic
