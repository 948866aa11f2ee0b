import math

import numpy as np
import pytest

from hykg.rootfind import brent, sample, scan_roots


class TestSignTests:
    """Brackets are picked by signs, not by products, which underflow."""

    def test_tiny_opposite_seeds_bracket_a_root(self):
        f = lambda x: 1e-200 * (0.5 - x)
        xs = np.array([0.0, 1.0])
        res = scan_roots(f, xs, np.array([1e-200, -1e-200]), 1e-12)
        assert res.roots == [pytest.approx(0.5, abs=1e-12)]

    def test_brent_rejects_tiny_values_of_one_sign(self):
        with pytest.raises(ValueError):
            brent(lambda x: 1e-200, 0.0, 1.0, 1e-12)

    def test_brent_returns_a_zero_end(self):
        assert brent(lambda x: x, 0.0, 1.0, 1e-12) == 0.0
        assert brent(lambda x: x - 1.0, 0.0, 1.0, 1e-12) == 1.0

    def test_exact_zero_seed_is_a_root(self):
        # a zero seed is taken as it is, never refined; a zero next to it is
        # not a sign change
        f = lambda x: x * (x - 1.0)
        xs = np.array([-1.0, 0.0, 0.5, 1.0])
        res = scan_roots(f, xs, sample(f, xs), 1e-12,
                         accept=lambda r: pytest.fail("a zero seed was judged"))
        assert res.roots == [0.0, 1.0]
        assert all(type(r) is float for r in res.roots)

    def test_gap_seeds_break_brackets(self):
        xs = np.array([0.0, 1.0, 2.0])
        res = scan_roots(lambda x: 1.0 - x, xs, np.array([1.0, math.nan, -1.0]), 1e-12)
        assert res.roots == []


def test_seed_values_must_match_the_seeds():
    with pytest.raises(ValueError):
        scan_roots(lambda x: x, np.linspace(-1.0, 1.0, 5), np.zeros(4), 1e-12)
