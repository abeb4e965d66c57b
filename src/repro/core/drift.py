"""Epoch-sliced estimation: tracking branch-probability drift over time.

Sensor inputs drift (diurnal cycles, regime changes), so a single profile
ages.  Because the tomography collector is cheap, a deployment can keep it
on permanently and re-estimate per *epoch* — this module does exactly that:
slice the invocation stream into consecutive windows, estimate each window
independently, and report the trajectory plus simple change diagnostics.

This is the "continuous profiling" extension the overhead numbers make
plausible: edge instrumentation at 40–100% runtime overhead cannot stay on
in production; a ~25-cycle-per-invocation collector can.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import EstimationError
from repro.core.moments_fit import fit_moments
from repro.mote.timer import TimestampTimer
from repro.sim.timing import ProcedureTimingModel
from repro.util.rng import RngSource, as_rng

__all__ = ["DriftTrack", "estimate_epochs", "detect_drift"]

#: A trailing partial epoch is estimated only when it holds at least this
#: fraction of ``epoch_size`` samples.
MIN_EPOCH_FRACTION = 0.5
#: Moment-fit restarts per epoch.
EPOCH_RESTARTS = 4


@dataclass(frozen=True)
class DriftTrack:
    """Per-epoch estimates of one procedure's branch probabilities.

    ``n_dropped`` counts samples that belong to no estimated epoch: a
    trailing window shorter than ``MIN_EPOCH_FRACTION * epoch_size`` is not
    estimated (too little data for a stable fit), and its samples are
    surfaced here instead of vanishing silently — so
    ``sum(n_samples) + n_dropped`` always equals the input length.
    """

    procedure: str
    epoch_size: int
    thetas: np.ndarray  # (n_epochs, n_parameters)
    n_samples: tuple[int, ...]  # samples per epoch
    n_dropped: int = 0  # samples in no epoch (short trailing window)

    @property
    def n_epochs(self) -> int:
        """Number of estimated epochs."""
        return self.thetas.shape[0]

    def total_variation(self) -> np.ndarray:
        """Sum of |epoch-to-epoch deltas| per parameter — a drift magnitude."""
        if self.n_epochs < 2:
            return np.zeros(self.thetas.shape[1])
        return np.abs(np.diff(self.thetas, axis=0)).sum(axis=0)


def estimate_epochs(
    model: ProcedureTimingModel,
    durations: Sequence[float],
    epoch_size: int,
    timer: Optional[TimestampTimer] = None,
    rng: RngSource = None,
) -> DriftTrack:
    """Estimate branch probabilities per consecutive window of measurements.

    ``durations`` must be in collection order (the profiler preserves it).
    A trailing partial window is kept only if it holds at least
    ``MIN_EPOCH_FRACTION * epoch_size`` samples; dropped samples are
    reported on the returned track's ``n_dropped`` (they are in no epoch),
    so epoch coverage is always accountable.
    """
    xs = np.asarray(durations, dtype=float)
    if xs.size == 0:
        raise EstimationError("estimate_epochs needs at least one sample")
    if epoch_size < 2:
        raise EstimationError(f"epoch_size must be >= 2, got {epoch_size}")
    gen = as_rng(rng)

    slices: list[np.ndarray] = []
    for start in range(0, xs.size, epoch_size):
        window = xs[start : start + epoch_size]
        if window.size >= max(2, int(MIN_EPOCH_FRACTION * epoch_size)):
            slices.append(window)
    if not slices:
        raise EstimationError("no epoch holds enough samples; reduce epoch_size")

    thetas = np.empty((len(slices), model.n_parameters))
    counts = []
    for i, window in enumerate(slices):
        fit = fit_moments(model, window, timer=timer, restarts=EPOCH_RESTARTS, rng=gen)
        thetas[i] = fit.theta
        counts.append(int(window.size))
    return DriftTrack(
        procedure=model.procedure.name,
        epoch_size=epoch_size,
        thetas=thetas,
        n_samples=tuple(counts),
        n_dropped=int(xs.size - sum(counts)),
    )


def detect_drift(
    track: DriftTrack,
    threshold: float = 0.15,
) -> list[tuple[int, int, float]]:
    """Flag epoch transitions where a probability moved more than ``threshold``.

    Returns ``(parameter_index, epoch_index, delta)`` triples, where the
    change happened between ``epoch_index - 1`` and ``epoch_index``.  A
    deployment would trigger re-placement on these.
    """
    if not 0.0 < threshold < 1.0:
        raise EstimationError(f"threshold must lie in (0, 1), got {threshold}")
    events: list[tuple[int, int, float]] = []
    deltas = np.diff(track.thetas, axis=0)
    for epoch, row in enumerate(deltas, start=1):
        for k, delta in enumerate(row):
            if abs(delta) > threshold:
                events.append((k, epoch, float(delta)))
    return events
