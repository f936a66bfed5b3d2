"""The interpolation ramp: ``adapter.ramp`` turns epoch fractions into its
(start, final) steps, and ``adapter.gamma`` is the factor at a step."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loragate.adapter import gamma, ramp
from loragate.errors import ConfigError


class TestGamma:
    def test_endpoints(self):
        assert gamma(20, 20, 80) == 0.0
        assert gamma(80, 20, 80) == 1.0

    def test_midpoint(self):
        assert gamma(50, 20, 80) == 0.5

    def test_clipped_outside_window(self):
        assert gamma(0, 20, 80) == 0.0
        assert gamma(5, 20, 80) == 0.0
        assert gamma(99, 20, 80) == 1.0

    def test_step_function_when_window_empty(self):
        assert gamma(9, 10, 10) == 0.0
        assert gamma(10, 10, 10) == 1.0
        assert gamma(15, 10, 10) == 1.0

    @pytest.mark.parametrize("start,final,total", [(0, 10, 10), (3, 17, 20), (20, 80, 100)])
    def test_monotone_and_bounded(self, start, final, total):
        values = [gamma(s, start, final) for s in range(total + 1)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))

    @settings(max_examples=100, deadline=None)
    @given(total=st.integers(1, 300),
           fracs=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
    def test_bounded_and_nondecreasing_for_any_fractions(self, total, fracs):
        start, final = ramp(total, min(fracs), max(fracs))
        assert 0 <= start <= final <= total
        values = [gamma(s, start, final) for s in range(-1, total + 2)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("start,final,total", [(2, 9, 12), (20, 80, 100), (0, 997, 1000)])
    def test_linear_increments_within_one_ulp(self, start, final, total):
        slope = 1.0 / (final - start)
        for s in range(start, final):
            diff = gamma(s + 1, start, final) - gamma(s, start, final)
            assert abs(diff - slope) <= np.spacing(1.0)


class TestFromFractions:
    def test_paper_fractions(self):
        assert ramp(100, 0.2, 0.8) == (20, 80)

    def test_full_range(self):
        assert ramp(100, 0.0, 1.0) == (0, 100)

    def test_floor_arithmetic(self):
        assert ramp(7, 0.2, 0.8) == (1, 5)

    def test_fraction_ordering_rejected(self):
        with pytest.raises(ConfigError):
            ramp(10, 0.8, 0.2)
        with pytest.raises(ConfigError):
            ramp(10, -0.1, 0.5)
        with pytest.raises(ConfigError):
            ramp(10, 0.2, 1.1)
        with pytest.raises(ConfigError):
            ramp(0, 0.2, 0.8)
