import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from hykg.hylleraas import DEFAULT_PARAMS, HylleraasParams, SSign


@pytest.fixture
def default_params():
    return DEFAULT_PARAMS


@pytest.fixture
def asymmetric_params():
    """A parameter set with a != c, used wherever the symmetric default degenerates."""
    return HylleraasParams(K=2.0, k1=1.0, k2=0.5, omega=0.25, D_e=1.0,
                           M=1.0, mu=1.0, s_sign=SSign.NEGATIVE)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def workloads():
    """bench/workloads.py, the benchmark's workload definitions, as a module."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("hykg_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations there
    spec.loader.exec_module(module)
    return module
