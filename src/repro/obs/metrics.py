"""Counters, gauges and fixed-bucket histograms for pipeline telemetry.

The registry answers "where did the work go" questions the trace timeline
cannot aggregate on its own: how many activations did the simulator execute,
how many EM iterations did the fits burn, how many faults fired by kind.
Design mirrors :mod:`repro.obs.trace`:

* **No-op by default.**  Instrumented code calls the module-level helpers
  (:func:`inc`, :func:`observe`, :func:`set_gauge`); with no registry
  installed each is a single global read and an early return — zero
  allocation, zero locking, zero effect on tables or RNG streams.
* **Mergeable snapshots.**  A registry serializes to a plain-JSON snapshot
  (:meth:`MetricsRegistry.snapshot`) and absorbs snapshots captured in
  worker processes (:meth:`MetricsRegistry.merge_snapshot`): counters and
  histogram buckets add, gauges last-write-wins — so callers must merge in
  a deterministic order (the engine merges in experiment request order).
* **Fixed buckets.**  Histograms use explicit upper-bound buckets chosen at
  first observation (plus the implicit ``+Inf``), so merged histograms from
  different processes always line up.
"""

from __future__ import annotations

import bisect
import json
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from repro.errors import ObsError

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "current_registry",
    "metrics_active",
    "inc",
    "set_gauge",
    "observe",
    "write_metrics",
]

#: Default histogram upper bounds — spans of seconds-scale pipeline stages.
DEFAULT_BUCKETS: tuple[float, ...] = (0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0)


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got increment {amount}")
        self.value += amount


class Gauge:
    """A last-value-wins instantaneous reading."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Union[int, float] = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram: counts per upper bound plus sum and count.

    ``bounds`` are inclusive upper bounds in increasing order; one implicit
    overflow bucket catches everything beyond the last bound.
    """

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(nxt <= prev for nxt, prev in zip(bounds[1:], bounds)):
            raise ValueError(f"bucket bounds must be increasing, got {bounds}")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: Union[int, float]) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1


class MetricsRegistry:
    """Thread-safe name → instrument store with JSON snapshots."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument access ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter()
            return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            if name not in self._gauges:
                self._gauges[name] = Gauge()
            return self._gauges[name]

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(bounds)
            return self._histograms[name]

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-JSON view of every instrument (stable key order)."""
        with self._lock:
            return {
                "counters": {k: self._counters[k].value for k in sorted(self._counters)},
                "gauges": {k: self._gauges[k].value for k in sorted(self._gauges)},
                "histograms": {
                    k: {
                        "bounds": list(h.bounds),
                        "counts": list(h.counts),
                        "sum": h.total,
                        "count": h.count,
                    }
                    for k, h in sorted(self._histograms.items())
                },
            }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold a worker's snapshot in: counters/histograms add, gauges win.

        Histogram bucket layouts must match (they do, by the fixed-bucket
        rule); a mismatched layout raises :class:`~repro.errors.ObsError`
        rather than silently misbinning.  The merge is **atomic across the
        whole snapshot**: every histogram entry is validated against this
        registry *before* any counter, gauge or bucket is touched, so a
        malformed snapshot can never leave the registry partially merged.
        """
        validated: list[tuple[str, list[float], dict]] = []
        for name, data in snap.get("histograms", {}).items():
            bounds = [float(b) for b in data["bounds"]]
            if len(data["counts"]) != len(bounds) + 1:
                raise ObsError(
                    f"histogram {name!r}: snapshot carries {len(data['counts'])} "
                    f"buckets for {len(bounds)} bounds (want {len(bounds) + 1}); "
                    "refusing a misaligned merge"
                )
            with self._lock:
                held = self._histograms.get(name)
            if held is not None and list(held.bounds) != bounds:
                raise ObsError(
                    f"histogram {name!r}: bucket bounds differ between processes "
                    f"({list(held.bounds)} vs {bounds}); merging would misbin "
                    "every observation"
                )
            validated.append((name, bounds, data))
        for name, value in snap.get("counters", {}).items():
            self.counter(name).value += value
        for name, value in snap.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, bounds, data in validated:
            hist = self.histogram(name, bounds)
            for i, count in enumerate(data["counts"]):
                hist.counts[i] += count
            hist.total += data["sum"]
            hist.count += data["count"]


# --------------------------------------------------------------------------
# The installed registry (one per process; workers install their own)
# --------------------------------------------------------------------------

_ACTIVE: Optional[MetricsRegistry] = None


def current_registry() -> Optional[MetricsRegistry]:
    """The registry the helpers feed, or ``None`` when telemetry is off."""
    return _ACTIVE


@contextmanager
def metrics_active(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install ``registry`` as the process-wide active registry for the body."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    try:
        yield registry
    finally:
        _ACTIVE = previous


def inc(name: str, amount: Union[int, float] = 1) -> None:
    """Increment counter ``name`` on the active registry (no-op when off)."""
    registry = _ACTIVE
    if registry is not None:
        registry.counter(name).inc(amount)


def set_gauge(name: str, value: Union[int, float]) -> None:
    """Set gauge ``name`` on the active registry (no-op when off)."""
    registry = _ACTIVE
    if registry is not None:
        registry.gauge(name).set(value)


def observe(
    name: str,
    value: Union[int, float],
    bounds: Sequence[float] = DEFAULT_BUCKETS,
) -> None:
    """Observe ``value`` into histogram ``name`` (no-op when off)."""
    registry = _ACTIVE
    if registry is not None:
        registry.histogram(name, bounds).observe(value)


def write_metrics(
    path: Union[str, Path],
    registry: MetricsRegistry,
    manifest: Optional[dict] = None,
    hardware_counters: Optional[dict] = None,
    serve: Optional[dict] = None,
    health: Optional[dict] = None,
) -> Path:
    """Write the registry snapshot (plus an optional run manifest) as JSON.

    ``hardware_counters`` — a snapshot from
    :meth:`repro.obs.counters.HardwareCounters.snapshot` — rides along under
    its own key when the run captured mote-level counters; ``serve`` — an
    ingestion-service stats payload
    (:meth:`repro.serve.service.IngestionService.stats_payload`) — likewise
    for service runs; ``health`` — a fleet health report
    (:func:`repro.obs.health.build_health_report`) — for monitored runs.
    These five keys are the file's complete top-level vocabulary; its
    reader (:data:`repro.obs.validate.METRICS_FILE`) rejects anything else.
    """
    path = Path(path)
    payload: dict = {"metrics": registry.snapshot()}
    if manifest is not None:
        payload["manifest"] = manifest
    if hardware_counters is not None:
        payload["hardware_counters"] = hardware_counters
    if serve is not None:
        payload["serve"] = serve
    if health is not None:
        payload["health"] = health
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
