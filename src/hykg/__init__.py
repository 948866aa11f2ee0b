"""Bound states of the s-wave Klein-Gordon equation with a Hylleraas-type
potential: closed-form pipeline, mechanical NU engine, numerical oracle and
a cross-engine consistency audit."""

__version__ = "0.1.0"

from .hylleraas import (  # noqa: F401
    ABC,
    DEFAULT_PARAMS,
    AppendixConstants,
    HylleraasParams,
    SSign,
    appendix_constants,
    derive_abc,
    potential_V,
    s_of_r,
)
from .levels import Engine, EnergyLevel  # noqa: F401
