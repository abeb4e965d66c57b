"""Error metrics between estimated and true branch-probability vectors.

All metrics treat vectors elementwise and are symmetric in the program
aggregation: :func:`program_estimation_error` weights each procedure's
branches equally (per-branch pooling), which matches how the accuracy
figures report "MAE over all branches of the benchmark".
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "mean_abs_error",
    "max_abs_error",
    "rms_error",
    "program_estimation_error",
]


def _pair(estimate: Sequence[float], truth: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    e = np.asarray(estimate, dtype=float)
    t = np.asarray(truth, dtype=float)
    if e.shape != t.shape:
        raise ValueError(f"shape mismatch: estimate {e.shape} vs truth {t.shape}")
    return e, t


def mean_abs_error(estimate: Sequence[float], truth: Sequence[float]) -> float:
    """Mean |estimate - truth|; 0.0 for empty vectors (nothing to get wrong)."""
    e, t = _pair(estimate, truth)
    if e.size == 0:
        return 0.0
    return float(np.mean(np.abs(e - t)))


def max_abs_error(estimate: Sequence[float], truth: Sequence[float]) -> float:
    """Worst-branch |estimate - truth|; 0.0 for empty vectors."""
    e, t = _pair(estimate, truth)
    if e.size == 0:
        return 0.0
    return float(np.max(np.abs(e - t)))


def rms_error(estimate: Sequence[float], truth: Sequence[float]) -> float:
    """Root-mean-square error; 0.0 for empty vectors."""
    e, t = _pair(estimate, truth)
    if e.size == 0:
        return 0.0
    return float(np.sqrt(np.mean((e - t) ** 2)))


def program_estimation_error(
    estimates: Mapping[str, Sequence[float]],
    truths: Mapping[str, Sequence[float]],
    metric: str = "mae",
) -> float:
    """Pooled per-branch error over all of a program's procedures.

    ``metric`` is ``"mae"``, ``"max"`` or ``"rms"``.  Procedures present in
    ``truths`` but missing from ``estimates`` raise — silent omissions would
    flatter the estimator.
    """
    pooled_e: list[float] = []
    pooled_t: list[float] = []
    for name, truth in truths.items():
        t = np.asarray(truth, dtype=float)
        if t.size == 0:
            continue
        if name not in estimates:
            raise ValueError(f"no estimate for procedure {name!r}")
        e = np.asarray(estimates[name], dtype=float)
        if e.shape != t.shape:
            raise ValueError(f"{name!r}: estimate shape {e.shape} vs truth {t.shape}")
        pooled_e.extend(e.tolist())
        pooled_t.extend(t.tolist())
    if metric == "mae":
        return mean_abs_error(pooled_e, pooled_t)
    if metric == "max":
        return max_abs_error(pooled_e, pooled_t)
    if metric == "rms":
        return rms_error(pooled_e, pooled_t)
    raise ValueError(f"unknown metric {metric!r}; use 'mae', 'max' or 'rms'")
