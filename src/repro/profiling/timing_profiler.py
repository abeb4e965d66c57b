"""The Code Tomography measurement collector.

All the on-mote firmware does is read the timestamp timer at each procedure's
entry and exit.  :class:`TimingProfiler` models that: it takes the
simulator's exact invocation records and degrades them through the
platform's :class:`~repro.mote.timer.TimestampTimer` (quantization + jitter),
yielding the :class:`TimingDataset` the estimators actually see.  Nothing
downstream of this module may touch exact cycle counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.errors import ProfilingError
from repro.mote.platform import Platform
from repro.util.rng import RngSource, as_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim -> faults -> profiling)
    from repro.sim.trace import InvocationRecord

__all__ = ["TimingDataset", "TimingProfiler"]


@dataclass
class TimingDataset:
    """Measured end-to-end durations per procedure, in (quantized) cycles."""

    samples: dict[str, np.ndarray] = field(default_factory=dict)

    def durations(self, proc_name: str) -> np.ndarray:
        """Measured durations of one procedure."""
        try:
            return self.samples[proc_name]
        except KeyError:
            raise ProfilingError(f"no timing samples for procedure {proc_name!r}") from None

    def count(self, proc_name: str) -> int:
        """Number of measurements for one procedure (0 if never measured)."""
        return int(self.samples.get(proc_name, np.empty(0)).size)

    def procedures(self) -> list[str]:
        """Measured procedure names, sorted."""
        return sorted(self.samples)

    def moments(self, proc_name: str) -> tuple[float, float, float]:
        """Empirical (mean, variance, third central moment) of one procedure."""
        xs = self.durations(proc_name)
        if xs.size == 0:
            raise ProfilingError(f"no timing samples for procedure {proc_name!r}")
        mean = float(xs.mean())
        centered = xs - mean
        return mean, float(np.mean(centered**2)), float(np.mean(centered**3))

    def subsample(self, n: int, rng: RngSource = None) -> "TimingDataset":
        """At most ``n`` samples per procedure, drawn without replacement."""
        if n < 0:
            raise ProfilingError(f"n must be non-negative, got {n}")
        gen = as_rng(rng)
        out: dict[str, np.ndarray] = {}
        for name, xs in self.samples.items():
            if xs.size <= n:
                out[name] = xs.copy()
            else:
                out[name] = xs[gen.choice(xs.size, size=n, replace=False)]
        return TimingDataset(out)


class TimingProfiler:
    """Collects degraded entry/exit timing from execution records."""

    def __init__(self, platform: Platform, rng: RngSource = None) -> None:
        self.platform = platform
        self._rng = as_rng(rng)

    def collect(self, records: Iterable[InvocationRecord]) -> TimingDataset:
        """Measure every invocation record through the platform timer."""
        timer = self.platform.timer
        per_proc: dict[str, list[float]] = {}
        for record in records:
            measured = timer.measure_cycles(
                record.entry_cycle, record.exit_cycle, self._rng
            )
            per_proc.setdefault(record.procedure, []).append(measured)
        return TimingDataset(
            {name: np.asarray(xs, dtype=float) for name, xs in per_proc.items()}
        )
