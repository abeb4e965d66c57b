"""Estimator-health telemetry: drift detection, CI calibration, alerting.

The spans/metrics stack records what the pipeline *did*; this module watches
whether the estimates are still *good* — the prerequisite telemetry for any
closed-loop re-placement trigger (profiles go stale; somebody has to notice).
Three instruments, all streaming, all deterministic given the shard sequence:

* **Drift detectors.**  :class:`PageHinkley` and :class:`Cusum` run over a
  per-shard *innovation signal*: before each re-fit, the shard's observed
  mean duration per procedure is standardized against the moments the
  *previous* iterate predicted (:func:`residual_signals`).  Under a
  stationary workload that signal is ~N(0, 1)-ish noise; a regime shift in
  the branch probabilities moves procedure durations and the detectors trip.
  Each procedure self-calibrates on its first ``warmup_shards`` signals
  (frozen mean/std baseline), so model-vs-simulator scale mismatch does not
  fire false alarms; after an alarm the baseline re-learns at the new regime
  so every subsequent episode is detected too.

* **CI-calibration audit.**  :class:`CoverageAudit` checks, shard by shard,
  whether the Wald interval ``theta ± half_width`` actually contains the
  simulator's ground-truth branch probability — only for parameters whose
  effective arm count makes the Wald approximation honest.  The running
  empirical coverage is compared against :data:`NOMINAL_COVERAGE` and a
  sustained gap raises a calibration alert.

* **Staleness gauges.**  Wall-age since the last absorbed shard and shards
  since the last path-family rebuild, reported in every summary (the
  ingestion service adds its backlog SLO on top).

The thresholds are module constants; the only per-monitor choice is the
warm-up length (the serve default, or 4 shards in :mod:`repro.pgo`).

Everything is **observational**: a monitor never feeds back into the
estimator, so attaching one cannot perturb thetas, half-widths, batch
boundaries, or the bit-identical-at-any-worker-count contract.  Alerts are
structured :class:`AlertEvent` records emitted three ways at once — an
``instant`` span on the active tracer, counters/gauges on the active metrics
registry, and the monitor's own buffer (exportable as a JSONL alert log via
:func:`write_alert_log`).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Union

from repro.errors import ObsError
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs.validate import ALERT, ALERT_SCHEMA, REPORT_SCHEMA, check, read_jsonl

__all__ = [
    "PageHinkley",
    "Cusum",
    "CoverageAudit",
    "AlertEvent",
    "EstimatorHealthMonitor",
    "residual_signals",
    "write_alert_log",
    "read_alert_log",
    "build_health_report",
]

#: Drift-detector thresholds, in *standardized* units (the detectors see
#: signals scaled by the warm-up baseline's std): ``PH_DELTA``/``CUSUM_K``
#: are the drift magnitudes to ignore, ``PH_THRESHOLD``/``CUSUM_H`` the
#: alarm levels.
PH_DELTA = 0.1
PH_THRESHOLD = 28.0
CUSUM_K = 0.5
CUSUM_H = 14.0

#: A shard needs this many samples of a procedure to yield a drift signal.
MIN_SIGNAL_SAMPLES = 2

#: The coverage the Wald intervals claim, and the gap that raises an alert
#: once the audit holds ``MIN_COVERAGE_CHECKS`` checks.
NOMINAL_COVERAGE = 0.95
COVERAGE_TOLERANCE = 0.05
MIN_COVERAGE_CHECKS = 200

#: Parameters with fewer effective arm counts are not audited.
MIN_EFFECTIVE_COUNT = 25.0


# --------------------------------------------------------------------------
# Streaming drift detectors
# --------------------------------------------------------------------------


class PageHinkley:
    """Two-sided Page–Hinkley test over a scalar stream.

    Classic two-accumulator form: the *up* test tracks the cumulative
    deviation from the running mean minus the allowance :data:`PH_DELTA`
    against its running minimum, the *down* test the deviation plus
    ``PH_DELTA`` against its running maximum.  Under stationarity each
    accumulator drifts *away* from its own extremum's alarm side at rate
    ``PH_DELTA``, so the statistic stays bounded on arbitrarily long quiet
    streams; a sustained shift in either direction walks one gap past
    :data:`PH_THRESHOLD`.
    After an alarm the statistic resets so the next episode is detected
    afresh.
    """

    __slots__ = ("_n", "_mean", "_up", "_up_min", "_down", "_down_max")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._up = 0.0
        self._up_min = 0.0
        self._down = 0.0
        self._down_max = 0.0

    @property
    def statistic(self) -> float:
        """The current two-sided PH statistic (max of up/down tests)."""
        return max(self._up - self._up_min, self._down_max - self._down)

    @property
    def score(self) -> float:
        """``statistic / PH_THRESHOLD`` — >= 1.0 means the alarm level."""
        return self.statistic / PH_THRESHOLD

    def update(self, x: float) -> bool:
        """Feed one value; True means *alarm* (the detector has reset)."""
        self._n += 1
        self._mean += (x - self._mean) / self._n
        deviation = x - self._mean
        self._up += deviation - PH_DELTA
        self._up_min = min(self._up_min, self._up)
        self._down += deviation + PH_DELTA
        self._down_max = max(self._down_max, self._down)
        if self.statistic > PH_THRESHOLD:
            self.reset()
            return True
        return False


class Cusum:
    """Two-sided CUSUM over a (roughly standardized) scalar stream.

    Classic tabular form: ``S+ = max(0, S+ + x - k)`` catches upward shifts,
    ``S- = max(0, S- - x - k)`` downward ones; either exceeding ``h`` is an
    alarm (and resets both accumulators).  With ~N(0, 1) inputs, ``k``
    (:data:`CUSUM_K`) is half the shift (in sigmas) worth detecting and
    ``h`` (:data:`CUSUM_H`) sets the false-alarm/delay trade-off.
    """

    __slots__ = ("_pos", "_neg")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._pos = 0.0
        self._neg = 0.0

    @property
    def statistic(self) -> float:
        return max(self._pos, self._neg)

    @property
    def score(self) -> float:
        return self.statistic / CUSUM_H

    def update(self, x: float) -> bool:
        """Feed one value; True means *alarm* (the detector has reset)."""
        self._pos = max(0.0, self._pos + x - CUSUM_K)
        self._neg = max(0.0, self._neg - x - CUSUM_K)
        if self.statistic > CUSUM_H:
            self.reset()
            return True
        return False


def residual_signals(
    moments: Mapping[str, object], samples: Mapping[str, object]
) -> dict[str, float]:
    """Per-procedure standardized innovations for one shard.

    ``moments`` maps procedure name to anything with ``mean`` and
    ``variance`` attributes (the previous iterate's predicted
    :class:`~repro.markov.moments.RewardMoments`); ``samples`` maps name to
    the shard's raw duration array.  The signal is the z-score of the shard
    mean under the prediction: ``(x̄ - mu) / (sigma / sqrt(n))``.  Procedures
    without a prediction, or with fewer than :data:`MIN_SIGNAL_SAMPLES`
    observations (one duration says nothing about a mean shift), are
    skipped.
    """
    signals: dict[str, float] = {}
    for name in sorted(samples):
        predicted = moments.get(name)
        if predicted is None:
            continue
        xs = samples[name]
        n = len(xs)
        if n < MIN_SIGNAL_SAMPLES:
            continue
        sigma = math.sqrt(max(float(predicted.variance), 1e-12))
        mean = sum(float(x) for x in xs) / n
        signals[name] = (mean - float(predicted.mean)) / (sigma / math.sqrt(n))
    return signals


class _ProcDrift:
    """One procedure's self-calibrating detector pair.

    The first ``warmup_shards`` signals fit a frozen mean/std baseline
    (Welford); subsequent signals are standardized against it and fed to
    both detectors.  An alarm resets the detectors *and* the baseline — the
    stream re-calibrates at the new regime, so a second drift episode is
    detected relative to the first's level, not the original one.
    """

    __slots__ = (
        "warmup_shards", "_count", "_mean", "_m2", "_mu0", "_sd0", "ph", "cusum", "alarms"
    )

    def __init__(self, warmup_shards: int) -> None:
        self.warmup_shards = warmup_shards
        self.ph = PageHinkley()
        self.cusum = Cusum()
        self.alarms = 0
        self._restart()

    def _restart(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._mu0: Optional[float] = None
        self._sd0 = 1.0
        self.ph.reset()
        self.cusum.reset()

    @property
    def score(self) -> float:
        return max(self.ph.score, self.cusum.score)

    def update(self, x: float) -> Optional[str]:
        """Feed one raw signal; returns the alarming detector name, if any."""
        if self._mu0 is None:
            self._count += 1
            delta = x - self._mean
            self._mean += delta / self._count
            self._m2 += delta * (x - self._mean)
            if self._count >= self.warmup_shards:
                self._mu0 = self._mean
                variance = self._m2 / max(self._count - 1, 1)
                # The raw signal is already ~unit-scale by construction; the
                # baseline only removes bias and *extra* dispersion.  A short
                # warmup under-estimates spread, so never let it tighten the
                # scale below the signal's nominal N(0, 1): floor the std at 1.
                self._sd0 = max(math.sqrt(max(variance, 0.0)), 1.0)
            return None
        z = (x - self._mu0) / self._sd0
        fired = []
        if self.ph.update(z):
            fired.append("page-hinkley")
        if self.cusum.update(z):
            fired.append("cusum")
        if fired:
            self.alarms += 1
            self._restart()
            return "+".join(fired)
        return None


# --------------------------------------------------------------------------
# CI-calibration audit
# --------------------------------------------------------------------------


class CoverageAudit:
    """Running empirical coverage of Wald intervals against ground truth.

    One ``(procedure, parameter, shard)`` triple is one check: did
    ``|theta - truth| <= half_width`` hold?  Only parameters whose effective
    arm count reaches :data:`MIN_EFFECTIVE_COUNT` are checked — below that
    the Wald interval is not an honest 95% interval and auditing it would
    measure the approximation, not the calibration.
    """

    def __init__(self) -> None:
        self._covered = 0
        self._total = 0

    def record(
        self,
        proc: str,
        thetas: Sequence[float],
        half_widths: Sequence[float],
        truth: Sequence[float],
        arm_counts: Optional[Sequence[float]] = None,
    ) -> int:
        """Audit one procedure's interval vector; returns checks recorded."""
        if len(thetas) != len(truth) or len(thetas) != len(half_widths):
            raise ObsError(
                f"coverage audit for {proc!r}: theta/half-width/truth lengths "
                f"disagree ({len(thetas)}/{len(half_widths)}/{len(truth)})"
            )
        recorded = 0
        for i, theta in enumerate(thetas):
            if arm_counts is not None and (
                i >= len(arm_counts) or arm_counts[i] < MIN_EFFECTIVE_COUNT
            ):
                continue
            if arm_counts is None and half_widths[i] >= 0.5:
                continue  # the honest-ignorance width; nothing to audit
            covered = abs(float(theta) - float(truth[i])) <= float(half_widths[i])
            self._total += 1
            self._covered += int(covered)
            recorded += 1
        return recorded

    @property
    def checks(self) -> int:
        return self._total

    def coverage(self) -> Optional[float]:
        """Overall empirical coverage, or None before any check."""
        if self._total == 0:
            return None
        return self._covered / self._total


# --------------------------------------------------------------------------
# Alerts
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AlertEvent:
    """One threshold crossing, structured for machines.

    ``kind`` comes from :data:`repro.obs.validate.ALERT_KINDS` and
    ``severity`` from its ``SEVERITIES``; ``source`` names the stream
    (tenant key, or ``"estimator"`` for a bare monitor); ``value`` crossed
    ``threshold``; ``shard`` is the trajectory index at emission (-1 when
    the alert is not tied to a shard, e.g. the service's backlog SLO).
    """

    kind: str
    severity: str
    source: str
    value: float
    threshold: float
    shard: int = -1
    procedure: Optional[str] = None
    detail: str = ""

    def __post_init__(self) -> None:
        check(self.kind, ALERT["kind"], "alert")
        check(self.severity, ALERT["severity"], "alert")

    def to_json(self) -> dict:
        payload: dict = {
            "schema": ALERT_SCHEMA,
            "kind": self.kind,
            "severity": self.severity,
            "source": self.source,
            "value": self.value,
            "threshold": self.threshold,
            "shard": self.shard,
        }
        if self.procedure is not None:
            payload["procedure"] = self.procedure
        if self.detail:
            payload["detail"] = self.detail
        return payload


def write_alert_log(path: Union[str, Path], events: Sequence[AlertEvent]) -> Path:
    """Write alerts as JSON lines, one event per line, in emission order."""
    path = Path(path)
    lines = [json.dumps(event.to_json(), sort_keys=True) for event in events]
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path


def read_alert_log(path: Union[str, Path]) -> list[AlertEvent]:
    """Parse a JSONL alert log back into :class:`AlertEvent` records.

    Every line must be a whole ``repro.health-alert/1`` record; anything
    else raises :class:`~repro.obs.validate.ArtifactError` naming the line.
    """
    events = []
    for where, obj in read_jsonl(path):
        check(obj, ALERT, where)
        events.append(
            AlertEvent(
                kind=obj["kind"],
                severity=obj["severity"],
                source=obj["source"],
                value=float(obj["value"]),
                threshold=float(obj["threshold"]),
                shard=obj["shard"],
                procedure=obj.get("procedure"),
                detail=obj.get("detail", ""),
            )
        )
    return events


# --------------------------------------------------------------------------
# The monitor
# --------------------------------------------------------------------------


class EstimatorHealthMonitor:
    """Continuous quality watch over one estimator stream.

    Attach via :meth:`repro.core.online.OnlineEstimator.attach_health`; the
    estimator then calls :meth:`observe_absorb` after every trajectory
    point.  The monitor is **purely observational** — it never mutates the
    estimator.

    ``warmup_shards`` is how many signals each procedure's drift baseline
    learns from before the detectors arm.  ``truth`` (per-procedure
    ground-truth branch probabilities, when the workload is simulated and
    they are known) enables the coverage audit; without it the audit stays
    empty.  ``sink`` is an optional callable receiving every
    :class:`AlertEvent` as it fires.
    """

    def __init__(
        self,
        warmup_shards: int = 8,
        source: str = "estimator",
        truth: Optional[Mapping[str, Sequence[float]]] = None,
        clock: Callable[[], float] = time.monotonic,
        sink: Optional[Callable[[AlertEvent], None]] = None,
    ) -> None:
        if warmup_shards < 1:
            raise ObsError(f"warmup_shards must be >= 1, got {warmup_shards}")
        self.warmup_shards = warmup_shards
        self.source = source
        self.truth = (
            {name: [float(x) for x in xs] for name, xs in truth.items()}
            if truth is not None
            else None
        )
        self._clock = clock
        self._sink = sink
        self.audit = CoverageAudit()
        self._drift: dict[str, _ProcDrift] = {}
        self._alerts: list[AlertEvent] = []
        self._shards = 0
        self._samples = 0
        self._last_absorb_t: Optional[float] = None
        self._shards_since_rebuild = 0
        self._coverage_breached = False

    # -- observation --------------------------------------------------------

    def observe_absorb(
        self,
        point,
        signals: Mapping[str, float],
        arm_counts: Optional[Mapping[str, Sequence[float]]] = None,
    ) -> list[AlertEvent]:
        """Fold one trajectory point in; returns alerts this shard raised.

        ``point`` is the :class:`~repro.core.online.ShardEstimate` just
        appended; ``signals`` the pre-refit innovations from
        :func:`residual_signals`; ``arm_counts`` the EM effective arm counts
        behind the point's half-widths (gates the coverage audit).
        """
        fired: list[AlertEvent] = []
        self._shards += 1
        self._samples = point.total_samples
        self._last_absorb_t = self._clock()
        if point.families_rebuilt > 0:
            self._shards_since_rebuild = 0
        else:
            self._shards_since_rebuild += 1
        for proc in sorted(signals):
            state = self._drift.get(proc)
            if state is None:
                state = self._drift[proc] = _ProcDrift(self.warmup_shards)
            detector = state.update(float(signals[proc]))
            if detector is not None:
                fired.append(
                    self._emit(
                        kind="drift",
                        severity="critical",
                        value=float(signals[proc]),
                        threshold=1.0,
                        shard=point.shard_index,
                        procedure=proc,
                        detail=f"{detector} alarm #{state.alarms}",
                    )
                )
        if self.truth is not None:
            for proc, truth in sorted(self.truth.items()):
                theta = point.thetas.get(proc)
                hw = point.half_widths.get(proc)
                if theta is None or hw is None or len(theta) != len(truth):
                    continue
                counts = arm_counts.get(proc) if arm_counts is not None else None
                self.audit.record(proc, theta, hw, truth, counts)
            fired.extend(self._check_coverage(point.shard_index))
        _metrics.set_gauge(f"health.{self.source}.drift_score", self.drift_score)
        _metrics.set_gauge(
            f"health.{self.source}.shards_since_rebuild", self._shards_since_rebuild
        )
        coverage = self.audit.coverage()
        if coverage is not None:
            _metrics.set_gauge(f"health.{self.source}.coverage", coverage)
        return fired

    def _check_coverage(self, shard: int) -> list[AlertEvent]:
        coverage = self.audit.coverage()
        if coverage is None or self.audit.checks < MIN_COVERAGE_CHECKS:
            return []
        gap = abs(coverage - NOMINAL_COVERAGE)
        breached = gap > COVERAGE_TOLERANCE
        if breached and not self._coverage_breached:
            self._coverage_breached = True
            return [
                self._emit(
                    kind="coverage",
                    severity="warning",
                    value=coverage,
                    threshold=NOMINAL_COVERAGE,
                    shard=shard,
                    detail=(
                        f"empirical coverage {coverage:.3f} off nominal "
                        f"{NOMINAL_COVERAGE:.2f} by {gap:.3f} "
                        f"(> {COVERAGE_TOLERANCE:.3f}, "
                        f"{self.audit.checks} checks)"
                    ),
                )
            ]
        if not breached:
            self._coverage_breached = False
        return []

    def emit(
        self,
        kind: str,
        severity: str,
        value: float,
        threshold: float,
        shard: int = -1,
        procedure: Optional[str] = None,
        detail: str = "",
    ) -> AlertEvent:
        """Emit one externally evaluated alert (the service's backlog SLO)."""
        return self._emit(kind, severity, value, threshold, shard, procedure, detail)

    def _emit(
        self,
        kind: str,
        severity: str,
        value: float,
        threshold: float,
        shard: int = -1,
        procedure: Optional[str] = None,
        detail: str = "",
    ) -> AlertEvent:
        event = AlertEvent(
            kind=kind,
            severity=severity,
            source=self.source,
            value=float(value),
            threshold=float(threshold),
            shard=shard,
            procedure=procedure,
            detail=detail,
        )
        self._alerts.append(event)
        _trace.instant(f"health.alert.{kind}", **event.to_json())
        _metrics.inc("health.alerts")
        _metrics.inc(f"health.alerts.{kind}")
        if self._sink is not None:
            self._sink(event)
        return event

    # -- state --------------------------------------------------------------

    @property
    def alerts(self) -> tuple[AlertEvent, ...]:
        return tuple(self._alerts)

    @property
    def drift_score(self) -> float:
        """Max detector statistic over procedures, scaled so 1.0 = alarm."""
        if not self._drift:
            return 0.0
        return max(state.score for state in self._drift.values())

    @property
    def drift_alarms(self) -> int:
        return sum(state.alarms for state in self._drift.values())

    @property
    def alarmed_procedures(self) -> tuple[str, ...]:
        return tuple(sorted(p for p, s in self._drift.items() if s.alarms))

    def staleness_s(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds since the last absorbed shard (None before the first)."""
        if self._last_absorb_t is None:
            return None
        return max(0.0, (self._clock() if now is None else now) - self._last_absorb_t)

    def summary(self, now: Optional[float] = None) -> dict:
        """JSON-able health snapshot (one tenant row of a health report)."""
        coverage = self.audit.coverage()
        age = self.staleness_s(now)
        return {
            "drift_score": round(self.drift_score, 6),
            "drift_alarms": self.drift_alarms,
            "alarmed_procedures": list(self.alarmed_procedures),
            "shards_absorbed": self._shards,
            "samples_absorbed": self._samples,
            "shards_since_rebuild": self._shards_since_rebuild,
            "staleness_s": None if age is None else round(age, 6),
            "coverage": None if coverage is None else round(coverage, 6),
            "coverage_checks": self.audit.checks,
            "alerts": len(self._alerts),
        }


# --------------------------------------------------------------------------
# Fleet health report
# --------------------------------------------------------------------------


def build_health_report(
    tenants: Mapping[str, dict], alerts: Sequence[AlertEvent] = ()
) -> dict:
    """Assemble the fleet health report (``repro-obs health``'s artifact).

    ``tenants`` maps tenant key to a :meth:`EstimatorHealthMonitor.summary`
    dict (optionally extended with an ``slo`` sub-object by the service);
    the fleet rollup aggregates drift/alert totals and check-weighted
    coverage across tenants.
    """
    rows = {name: dict(summary) for name, summary in sorted(tenants.items())}
    covered_checks = 0
    weighted = 0.0
    worst: Optional[float] = None
    for summary in rows.values():
        coverage = summary.get("coverage")
        checks = summary.get("coverage_checks", 0)
        if coverage is not None and checks:
            weighted += coverage * checks
            covered_checks += checks
            worst = coverage if worst is None else min(worst, coverage)
    fleet = {
        "tenants": len(rows),
        "max_drift_score": max(
            (s.get("drift_score", 0.0) for s in rows.values()), default=0.0
        ),
        "drift_alarms": sum(s.get("drift_alarms", 0) for s in rows.values()),
        "alerts": len(alerts),
        "coverage": (weighted / covered_checks) if covered_checks else None,
        "worst_coverage": worst,
        "coverage_checks": covered_checks,
    }
    return {
        "schema": REPORT_SCHEMA,
        "nominal_coverage": NOMINAL_COVERAGE,
        "tenants": rows,
        "fleet": fleet,
        "alerts": [event.to_json() for event in alerts],
    }
