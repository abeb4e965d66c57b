"""Result analysis: error metrics between estimated and true branch
probabilities, per vector and pooled over a program's procedures."""

from repro.analysis.metrics import (
    max_abs_error,
    mean_abs_error,
    program_estimation_error,
    rms_error,
)

__all__ = [
    "mean_abs_error",
    "max_abs_error",
    "rms_error",
    "program_estimation_error",
]
