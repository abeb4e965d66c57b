"""``repro.obs`` — tracing and metrics telemetry.

The observability layer for the reproduction's own pipeline ("profile the
profiler").  The package re-exports its in-process instrumentation API:
nestable spans with JSONL/Chrome-trace exporters (:mod:`repro.obs.trace`)
and a counters/gauges/histograms registry (:mod:`repro.obs.metrics`).
Everything else is imported from its own module: hardware counters, the
run manifest, estimator health, the offline readers and analysis, and the
artifact shapes (``counters``, ``manifest``, ``health``, ``query``,
``compare``, ``validate``).

The contract every instrumented module leans on: **telemetry off (the
default) is a strict no-op** — no RNG draws, no table changes, near-zero
work — so rendered experiment output is byte-identical with telemetry on,
off, serial, or parallel.  See ``docs/observability.md``.
"""

from repro.errors import ObsError
from repro.obs import metrics, trace
from repro.obs.metrics import *  # noqa: F403 - re-exported below
from repro.obs.trace import *  # noqa: F403 - re-exported below

__all__ = ["ObsError", *trace.__all__, *metrics.__all__]
