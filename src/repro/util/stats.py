"""Streaming and batch statistics used throughout the library.

The profiling layer accumulates end-to-end timing observations on a simulated
mote, where RAM is scarce; :class:`RunningStats` mirrors what the on-mote
collector would keep (count and first three central moments in O(1) space,
via Welford/Pébay updates) so overhead accounting stays honest.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "RunningStats",
    "empirical_moments",
    "geometric_mean",
    "weighted_mean",
]


class RunningStats:
    """Single-pass accumulator for count, mean, variance and skew moments.

    Uses the numerically stable Pébay recurrences, so it can absorb millions
    of samples without catastrophic cancellation.  Two accumulators can be
    merged with :meth:`merge`, which the batch runner uses to combine
    per-shard statistics.
    """

    __slots__ = ("count", "mean", "_m2", "_m3", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self._m3 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def push(self, x: float) -> None:
        """Absorb one observation."""
        x = float(x)
        n1 = self.count
        self.count = n = n1 + 1
        delta = x - self.mean
        delta_n = delta / n
        term1 = delta * delta_n * n1
        self.mean += delta_n
        self._m3 += term1 * delta_n * (n - 2) - 3.0 * delta_n * self._m2
        self._m2 += term1
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def extend(self, xs: Iterable[float]) -> None:
        """Absorb every observation in ``xs``."""
        for x in xs:
            self.push(x)

    @property
    def variance(self) -> float:
        """Population variance (0.0 until two samples arrive)."""
        if self.count < 2:
            return 0.0
        return self._m2 / self.count

    @property
    def std(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    @property
    def third_central_moment(self) -> float:
        """Population third central moment E[(X - mean)^3]."""
        if self.count < 1:
            return 0.0
        return self._m3 / self.count

    @property
    def skewness(self) -> float:
        """Standardized skewness; 0.0 when variance is degenerate."""
        var = self.variance
        if var <= 0.0:
            return 0.0
        return self.third_central_moment / var**1.5

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Return a new accumulator equivalent to seeing both streams."""
        merged = RunningStats()
        na, nb = self.count, other.count
        if na == 0:
            merged.count = other.count
            merged.mean = other.mean
            merged._m2 = other._m2
            merged._m3 = other._m3
            merged.min, merged.max = other.min, other.max
            return merged
        if nb == 0:
            merged.count = self.count
            merged.mean = self.mean
            merged._m2 = self._m2
            merged._m3 = self._m3
            merged.min, merged.max = self.min, self.max
            return merged
        n = na + nb
        delta = other.mean - self.mean
        merged.count = n
        merged.mean = self.mean + delta * nb / n
        merged._m2 = self._m2 + other._m2 + delta**2 * na * nb / n
        merged._m3 = (
            self._m3
            + other._m3
            + delta**3 * na * nb * (na - nb) / n**2
            + 3.0 * delta * (na * other._m2 - nb * self._m2) / n
        )
        merged.min = min(self.min, other.min)
        merged.max = max(self.max, other.max)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunningStats(count={self.count}, mean={self.mean:.6g}, "
            f"var={self.variance:.6g})"
        )


def empirical_moments(samples: Sequence[float]) -> tuple[float, float, float]:
    """Return ``(mean, variance, third central moment)`` of ``samples``.

    Population (biased) moments, matching what the analytic chain moments in
    :mod:`repro.markov.moments` predict for the generating distribution.
    """
    xs = np.asarray(samples, dtype=float)
    if xs.size == 0:
        raise ValueError("empirical_moments requires at least one sample")
    mean = float(xs.mean())
    centered = xs - mean
    return (mean, float(np.mean(centered**2)), float(np.mean(centered**3)))


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of strictly positive values."""
    xs = np.asarray(values, dtype=float)
    if xs.size == 0:
        raise ValueError("geometric_mean of empty sequence")
    if np.any(xs <= 0):
        raise ValueError("geometric_mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(xs))))


def weighted_mean(values: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted arithmetic mean; weights must be non-negative, not all zero."""
    xs = np.asarray(values, dtype=float)
    ws = np.asarray(weights, dtype=float)
    if xs.shape != ws.shape:
        raise ValueError("values and weights must have the same shape")
    if np.any(ws < 0):
        raise ValueError("weights must be non-negative")
    total = ws.sum()
    if total == 0:
        raise ValueError("weights sum to zero")
    return float((xs * ws).sum() / total)
