"""The plain seed scan's values: the scalar residual called once per seed.

The closed-form engines evaluate their seed values as one array expression;
the tests check those array twins, and scan with them, against this.
"""
import math

import numpy as np

from hykg.rootfind import _as_value


def sample(f, xs):
    """f on the seeds xs, one scalar call per seed; a marker becomes NaN."""
    values = (_as_value(f(float(x))) for x in xs)
    return np.array([math.nan if y is None else y for y in values])
