"""Tests for error metrics."""

from __future__ import annotations

import pytest

from repro.analysis import (
    max_abs_error,
    mean_abs_error,
    program_estimation_error,
    rms_error,
)


class TestPairwiseMetrics:
    def test_mae(self):
        assert mean_abs_error([0.1, 0.5], [0.2, 0.3]) == pytest.approx(0.15)

    def test_max(self):
        assert max_abs_error([0.1, 0.5], [0.2, 0.3]) == pytest.approx(0.2)

    def test_rms(self):
        assert rms_error([0.0, 0.0], [0.3, 0.4]) == pytest.approx(0.35355, abs=1e-4)

    def test_empty_vectors_are_zero_error(self):
        assert mean_abs_error([], []) == 0.0
        assert max_abs_error([], []) == 0.0
        assert rms_error([], []) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mean_abs_error([0.1], [0.1, 0.2])


class TestProgramError:
    def test_pooled_over_procedures(self):
        estimates = {"a": [0.2], "b": [0.4, 0.6]}
        truths = {"a": [0.3], "b": [0.4, 0.9]}
        # errors: 0.1, 0.0, 0.3 -> mae 0.4/3
        assert program_estimation_error(estimates, truths, "mae") == pytest.approx(0.4 / 3)
        assert program_estimation_error(estimates, truths, "max") == pytest.approx(0.3)

    def test_branch_free_procedures_ignored(self):
        assert program_estimation_error({"a": []}, {"a": []}) == 0.0

    def test_missing_estimate_raises(self):
        with pytest.raises(ValueError, match="no estimate"):
            program_estimation_error({}, {"a": [0.5]})

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            program_estimation_error({"a": [0.5, 0.5]}, {"a": [0.5]})

    def test_unknown_metric_raises(self):
        with pytest.raises(ValueError, match="unknown metric"):
            program_estimation_error({"a": [0.5]}, {"a": [0.5]}, "mape")
