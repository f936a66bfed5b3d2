import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loragate.errors import ConfigError
from loragate.schedule import Schedule, gamma, schedule_from_fractions


class TestGamma:
    def test_endpoints(self):
        sched = Schedule(20, 80, 100)
        assert gamma(20, sched) == 0.0
        assert gamma(80, sched) == 1.0

    def test_midpoint(self):
        assert gamma(50, Schedule(20, 80, 100)) == 0.5

    def test_clipped_outside_window(self):
        sched = Schedule(20, 80, 100)
        assert gamma(0, sched) == 0.0
        assert gamma(5, sched) == 0.0
        assert gamma(99, sched) == 1.0

    def test_step_function_when_window_empty(self):
        sched = Schedule(10, 10, 20)
        assert gamma(9, sched) == 0.0
        assert gamma(10, sched) == 1.0
        assert gamma(15, sched) == 1.0

    @pytest.mark.parametrize("start,final,total", [(0, 10, 10), (3, 17, 20), (20, 80, 100)])
    def test_monotone_and_bounded(self, start, final, total):
        sched = Schedule(start, final, total)
        values = [gamma(s, sched) for s in range(total + 1)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))

    @settings(max_examples=100, deadline=None)
    @given(total=st.integers(1, 300),
           fracs=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
    def test_bounded_and_nondecreasing_for_any_fractions(self, total, fracs):
        sched = schedule_from_fractions(total, min(fracs), max(fracs))
        values = [gamma(s, sched) for s in range(-1, total + 2)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("start,final,total", [(2, 9, 12), (20, 80, 100), (0, 997, 1000)])
    def test_linear_increments_within_one_ulp(self, start, final, total):
        sched = Schedule(start, final, total)
        slope = 1.0 / (final - start)
        for s in range(start, final):
            diff = gamma(s + 1, sched) - gamma(s, sched)
            assert abs(diff - slope) <= np.spacing(1.0)

    def test_invalid_ordering_rejected(self):
        with pytest.raises(ConfigError):
            Schedule(5, 3, 10)
        with pytest.raises(ConfigError):
            Schedule(0, 11, 10)


class TestFromFractions:
    def test_paper_fractions(self):
        sched = schedule_from_fractions(100, 0.2, 0.8)
        assert (sched.start_step, sched.final_step) == (20, 80)

    def test_full_range(self):
        sched = schedule_from_fractions(100, 0.0, 1.0)
        assert (sched.start_step, sched.final_step) == (0, 100)

    def test_floor_arithmetic(self):
        sched = schedule_from_fractions(7, 0.2, 0.8)
        assert (sched.start_step, sched.final_step) == (1, 5)

    def test_fraction_ordering_rejected(self):
        with pytest.raises(ConfigError):
            schedule_from_fractions(10, 0.8, 0.2)
        with pytest.raises(ConfigError):
            schedule_from_fractions(10, -0.1, 0.5)
        with pytest.raises(ConfigError):
            schedule_from_fractions(10, 0.2, 1.1)
