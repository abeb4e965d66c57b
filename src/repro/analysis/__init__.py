"""Result analysis: error metrics between estimated and true branch
probabilities, per vector and pooled over a program's procedures."""

from repro.util.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "metrics": (
            "mean_abs_error",
            "max_abs_error",
            "rms_error",
            "program_estimation_error",
        ),
    },
)
