"""Tests for the streaming statistics accumulator."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.stats import RunningStats, empirical_moments, geometric_mean, weighted_mean


class TestRunningStats:
    def test_empty_accumulator(self):
        s = RunningStats()
        assert s.count == 0
        assert s.mean == 0.0
        assert s.variance == 0.0
        assert s.skewness == 0.0

    def test_single_value(self):
        s = RunningStats()
        s.push(42.0)
        assert s.count == 1
        assert s.mean == 42.0
        assert s.variance == 0.0
        assert s.min == 42.0
        assert s.max == 42.0

    def test_matches_numpy_moments(self):
        xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        s = RunningStats()
        s.extend(xs)
        arr = np.asarray(xs)
        assert s.mean == pytest.approx(arr.mean())
        assert s.variance == pytest.approx(arr.var())
        centered = arr - arr.mean()
        assert s.third_central_moment == pytest.approx(np.mean(centered**3))

    def test_min_max_tracking(self):
        s = RunningStats()
        s.extend([5.0, -2.0, 7.5, 0.0])
        assert s.min == -2.0
        assert s.max == 7.5

    def test_skewness_sign(self):
        right_skewed = RunningStats()
        right_skewed.extend([1.0] * 20 + [100.0])
        assert right_skewed.skewness > 0
        left_skewed = RunningStats()
        left_skewed.extend([100.0] * 20 + [1.0])
        assert left_skewed.skewness < 0

    def test_skewness_degenerate_variance(self):
        s = RunningStats()
        s.extend([3.0, 3.0, 3.0])
        assert s.skewness == 0.0

    def test_merge_empty_with_nonempty(self):
        a = RunningStats()
        b = RunningStats()
        b.extend([1.0, 2.0, 3.0])
        for merged in (a.merge(b), b.merge(a)):
            assert merged.count == 3
            assert merged.mean == pytest.approx(2.0)

    @given(
        st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=40),
        st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=40),
    )
    @settings(max_examples=60)
    def test_merge_equivalent_to_combined_stream(self, xs, ys):
        a = RunningStats()
        a.extend(xs)
        b = RunningStats()
        b.extend(ys)
        merged = a.merge(b)
        combined = RunningStats()
        combined.extend(xs + ys)
        assert merged.count == combined.count
        assert merged.mean == pytest.approx(combined.mean, rel=1e-9, abs=1e-6)
        assert merged.variance == pytest.approx(combined.variance, rel=1e-6, abs=1e-4)
        assert merged.third_central_moment == pytest.approx(
            combined.third_central_moment, rel=1e-5, abs=1.0
        )


class TestEmpiricalMoments:
    def test_matches_definition(self):
        xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        mean, var, mu3 = empirical_moments(xs)
        arr = np.asarray(xs)
        assert mean == pytest.approx(arr.mean())
        assert var == pytest.approx(arr.var())

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            empirical_moments([])

    def test_agrees_with_running_stats(self):
        xs = list(np.random.default_rng(0).normal(10, 3, size=200))
        s = RunningStats()
        s.extend(xs)
        mean, var, mu3 = empirical_moments(xs)
        assert mean == pytest.approx(s.mean)
        assert var == pytest.approx(s.variance)
        assert mu3 == pytest.approx(s.third_central_moment, rel=1e-9, abs=1e-9)


class TestGeometricMean:
    def test_simple(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])


class TestWeightedMean:
    def test_uniform_weights(self):
        assert weighted_mean([1.0, 3.0], [1.0, 1.0]) == pytest.approx(2.0)

    def test_skewed_weights(self):
        assert weighted_mean([1.0, 3.0], [3.0, 1.0]) == pytest.approx(1.5)

    def test_rejects_zero_weights(self):
        with pytest.raises(ValueError):
            weighted_mean([1.0], [0.0])

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            weighted_mean([1.0, 2.0], [1.0, -1.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            weighted_mean([1.0, 2.0], [1.0])
