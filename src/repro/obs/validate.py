"""Structural validation of telemetry artifacts (no external schema deps).

CI's smoke job — and any consumer pulling a ``--trace``/``--metrics``
artifact off a finished run — needs a cheap answer to "is this file the
shape the exporters promise".  The checks here are hand-rolled (the
container has no ``jsonschema``) but express the same contracts a JSON
schema would: required keys with required types, monotonic ``ts`` per
(pid, tid) track in Chrome traces, balanced non-negative spans, histogram
bucket/count length agreement.

Each validator raises :class:`ArtifactError` with a path-qualified message
on first violation and returns a small summary dict on success (the smoke
script prints it).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.obs.counters import SNAPSHOT_SCHEMA
from repro.obs.health import ALERT_KINDS, ALERT_SCHEMA, REPORT_SCHEMA, SEVERITIES
from repro.obs.trace import TRACE_SCHEMA

__all__ = [
    "ArtifactError",
    "validate_trace_jsonl",
    "validate_obs_report",
    "validate_chrome_trace",
    "validate_metrics_file",
    "validate_counter_snapshot",
    "validate_serve_stats",
    "validate_health_summary",
    "validate_health_report",
    "validate_alert_log",
    "validate_hw_counters_file",
    "require_span_coverage",
]

#: Schema tag the ingestion service stamps on its stats embed
#: (:meth:`repro.serve.service.IngestionService.stats_payload`).  Spelled
#: out here rather than imported so the validators stay dependency-free.
SERVE_SCHEMA = "repro.serve/1"

#: The complete top-level key vocabulary of a ``--metrics`` file.  The
#: validator *rejects* anything else: a typo'd or half-renamed embed key
#: should fail CI's artifact check, not silently ride along unvalidated.
METRICS_FILE_KEYS = ("metrics", "manifest", "hardware_counters", "serve", "health")

#: Span-name prefixes that prove the trace covered a pipeline layer.
LAYER_PREFIXES = {
    "engine": ("engine.", "experiment"),
    "sim": ("sim.",),
    "estimator": ("estimate.",),
}


class ArtifactError(ValueError):
    """A telemetry artifact violated its documented structure."""


def _need(mapping: dict, key: str, types, where: str):
    if key not in mapping:
        raise ArtifactError(f"{where}: missing required key {key!r}")
    value = mapping[key]
    if not isinstance(value, types):
        raise ArtifactError(
            f"{where}: key {key!r} must be {types}, got {type(value).__name__}"
        )
    return value


def _check_span_record(record: dict, where: str) -> None:
    _need(record, "name", str, where)
    start = _need(record, "start", (int, float), where)
    end = _need(record, "end", (int, float), where)
    _need(record, "depth", int, where)
    _need(record, "seq", int, where)
    _need(record, "pid", int, where)
    _need(record, "tid", int, where)
    _need(record, "attrs", dict, where)
    if end < start:
        raise ArtifactError(f"{where}: span ends ({end}) before it starts ({start})")
    if record["depth"] < 0:
        raise ArtifactError(f"{where}: negative depth {record['depth']}")


def validate_trace_jsonl(path: Union[str, Path]) -> dict:
    """Validate a JSONL trace; returns ``{"spans": n, "names": set, ...}``.

    Accepts both the versioned stream (a ``repro.trace/1`` header on the
    first line, optional manifest on the second) and the legacy headerless
    layout (optional manifest on the first line) — old artifacts stay
    checkable forever.
    """
    path = Path(path)
    names: set[str] = set()
    spans = 0
    manifest_lines = 0
    header_lines = 0
    last_seq = -1
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        where = f"{path.name}:{lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"{where}: not valid JSON: {exc}") from exc
        kind = _need(record, "type", str, where)
        if kind == "header":
            if lineno != 1:
                raise ArtifactError(f"{where}: header must be the first line")
            schema = _need(record, "schema", str, where)
            if schema != TRACE_SCHEMA:
                raise ArtifactError(
                    f"{where}: schema {schema!r}, expected {TRACE_SCHEMA!r}"
                )
            header_lines += 1
            continue
        if kind == "manifest":
            if lineno != 1 + header_lines:
                raise ArtifactError(
                    f"{where}: manifest must directly follow the header "
                    "(or open the stream in legacy traces)"
                )
            manifest_lines += 1
            continue
        if kind != "span":
            raise ArtifactError(f"{where}: unknown record type {kind!r}")
        _check_span_record(record, where)
        if record["seq"] <= last_seq:
            raise ArtifactError(
                f"{where}: seq {record['seq']} not increasing (after {last_seq})"
            )
        last_seq = record["seq"]
        names.add(record["name"])
        spans += 1
    if spans == 0:
        raise ArtifactError(f"{path.name}: contains no span records")
    return {
        "spans": spans,
        "names": names,
        "has_manifest": bool(manifest_lines),
        "versioned": bool(header_lines),
    }


def validate_chrome_trace(path: Union[str, Path]) -> dict:
    """Validate a Chrome ``trace_event`` export: shape + per-track monotonic ts."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path.name}: not valid JSON: {exc}") from exc
    events = _need(payload, "traceEvents", list, path.name)
    if not events:
        raise ArtifactError(f"{path.name}: traceEvents is empty")
    names: set[str] = set()
    last_ts: dict[tuple, int] = {}
    for i, event in enumerate(events):
        where = f"{path.name}: traceEvents[{i}]"
        if not isinstance(event, dict):
            raise ArtifactError(f"{where}: event must be an object")
        name = _need(event, "name", str, where)
        _need(event, "ph", str, where)
        ts = _need(event, "ts", int, where)
        dur = _need(event, "dur", int, where)
        pid = _need(event, "pid", int, where)
        tid = _need(event, "tid", int, where)
        if dur < 0:
            raise ArtifactError(f"{where}: negative dur {dur}")
        track = (pid, tid)
        if track in last_ts and ts < last_ts[track]:
            raise ArtifactError(
                f"{where}: ts {ts} decreases within track pid={pid} tid={tid} "
                f"(previous {last_ts[track]})"
            )
        last_ts[track] = ts
        names.add(name)
    return {"spans": len(events), "names": names, "tracks": len(last_ts)}


def validate_metrics_file(path: Union[str, Path]) -> dict:
    """Validate a ``--metrics`` snapshot file (metrics + embedded manifest)."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path.name}: not valid JSON: {exc}") from exc
    metrics = _need(payload, "metrics", dict, path.name)
    counters = _need(metrics, "counters", dict, f"{path.name}: metrics")
    _need(metrics, "gauges", dict, f"{path.name}: metrics")
    histograms = _need(metrics, "histograms", dict, f"{path.name}: metrics")
    for name, value in counters.items():
        if not isinstance(value, (int, float)) or value < 0:
            raise ArtifactError(
                f"{path.name}: counter {name!r} must be a non-negative number"
            )
    for name, hist in histograms.items():
        where = f"{path.name}: histogram {name!r}"
        bounds = _need(hist, "bounds", list, where)
        counts = _need(hist, "counts", list, where)
        count = _need(hist, "count", (int, float), where)
        _need(hist, "sum", (int, float), where)
        if len(counts) != len(bounds) + 1:
            raise ArtifactError(
                f"{where}: expected {len(bounds) + 1} buckets, got {len(counts)}"
            )
        if sum(counts) != count:
            raise ArtifactError(f"{where}: bucket counts {sum(counts)} != count {count}")
    unknown = sorted(set(payload) - set(METRICS_FILE_KEYS))
    if unknown:
        raise ArtifactError(
            f"{path.name}: unknown top-level key(s) {', '.join(map(repr, unknown))} "
            f"(known: {', '.join(METRICS_FILE_KEYS)})"
        )
    if "manifest" in payload:
        manifest = payload["manifest"]
        for key in ("schema_version", "repro_version", "seed_scheme", "config", "host"):
            _need(manifest, key, object, f"{path.name}: manifest")
    if "hardware_counters" in payload:
        validate_counter_snapshot(
            payload["hardware_counters"], f"{path.name}: hardware_counters"
        )
    if "serve" in payload:
        validate_serve_stats(payload["serve"], f"{path.name}: serve")
    if "health" in payload:
        _check_health_report(payload["health"], f"{path.name}: health")
    return {
        "counters": len(counters),
        "histograms": len(histograms),
        "has_manifest": "manifest" in payload,
        "has_hw_counters": "hardware_counters" in payload,
        "has_serve": "serve" in payload,
        "has_health": "health" in payload,
    }


def validate_counter_snapshot(snap, where: str) -> dict:
    """Validate one hardware-counter snapshot (see ``repro.obs.counters``).

    Shape: ``{"schema": ..., "totals": {name: int>=0},
    "per_proc": {proc: {field: int>=0}}}``.  Returns a tiny summary.
    """
    if not isinstance(snap, dict):
        raise ArtifactError(f"{where}: snapshot must be an object")
    schema = _need(snap, "schema", str, where)
    if schema != SNAPSHOT_SCHEMA:
        raise ArtifactError(
            f"{where}: schema {schema!r}, expected {SNAPSHOT_SCHEMA!r}"
        )
    def _non_negative_number(value) -> bool:
        # Most counters are ints; energy (µJ) and the timer's quantization
        # error accumulate as floats.  bool is an int subclass — reject it.
        return (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and value >= 0
        )

    totals = _need(snap, "totals", dict, where)
    for name, value in totals.items():
        if not _non_negative_number(value):
            raise ArtifactError(
                f"{where}: counter {name!r} must be a non-negative number, "
                f"got {value!r}"
            )
    per_proc = _need(snap, "per_proc", dict, where)
    for proc, row in per_proc.items():
        if not isinstance(row, dict):
            raise ArtifactError(f"{where}: per_proc[{proc!r}] must be an object")
        for field, value in row.items():
            if not _non_negative_number(value):
                raise ArtifactError(
                    f"{where}: per_proc[{proc!r}].{field} must be a "
                    f"non-negative number, got {value!r}"
                )
    return {"counters": len(totals), "procs": len(per_proc)}


def validate_serve_stats(embed, where: str) -> dict:
    """Validate an ingestion-service stats embed (``--metrics`` ``serve`` key).

    Shape (see :meth:`repro.serve.service.IngestionService.stats_payload`):
    ``{"schema": "repro.serve/1", "workers": int>=1, "uptime_s": float>=0,
    "totals": {...}, "tenants": {tenant: {...}},
    "latency": {pXX_ms: float>=0}}`` plus an optional ``health`` mapping of
    tenant to health summary.  Returns a tiny summary.
    """
    if not isinstance(embed, dict):
        raise ArtifactError(f"{where}: serve stats must be an object")
    schema = _need(embed, "schema", str, where)
    if schema != SERVE_SCHEMA:
        raise ArtifactError(f"{where}: schema {schema!r}, expected {SERVE_SCHEMA!r}")
    workers = _need(embed, "workers", int, where)
    if isinstance(workers, bool) or workers < 1:
        raise ArtifactError(f"{where}: workers must be a positive int, got {workers!r}")
    uptime = _need(embed, "uptime_s", (int, float), where)
    if isinstance(uptime, bool) or uptime < 0:
        raise ArtifactError(
            f"{where}: uptime_s must be a non-negative number, got {uptime!r}"
        )

    def _tallies(mapping: dict, sub_where: str) -> None:
        for name, value in mapping.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
                raise ArtifactError(
                    f"{sub_where}: {name!r} must be a non-negative number, got {value!r}"
                )

    totals = _need(embed, "totals", dict, where)
    _tallies(totals, f"{where}: totals")
    for key in ("accepted", "deferred", "rejected"):
        if key not in totals:
            raise ArtifactError(f"{where}: totals is missing {key!r}")
    tenants = _need(embed, "tenants", dict, where)
    for tenant, row in tenants.items():
        if not isinstance(row, dict):
            raise ArtifactError(f"{where}: tenants[{tenant!r}] must be an object")
        _tallies(row, f"{where}: tenants[{tenant!r}]")
    latency = _need(embed, "latency", dict, where)
    _tallies(latency, f"{where}: latency")
    if "health" in embed:
        health = _need(embed, "health", dict, where)
        for tenant, summary in health.items():
            validate_health_summary(summary, f"{where}: health[{tenant!r}]")
    return {
        "workers": workers,
        "tenants": len(tenants),
        "has_health": "health" in embed,
    }


def validate_health_summary(summary, where: str) -> dict:
    """Validate one tenant health summary (a health-report tenant row).

    Shape (see :meth:`repro.obs.health.EstimatorHealthMonitor.summary`):
    numeric gauges plus an optional ``slo`` sub-object; ``coverage`` and
    ``staleness_s`` may be ``null`` (not yet measurable).
    """
    if not isinstance(summary, dict):
        raise ArtifactError(f"{where}: health summary must be an object")

    def _gauge(key, allow_none=False):
        value = _need(summary, key, object, where)
        if value is None and allow_none:
            return value
        if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
            raise ArtifactError(
                f"{where}: {key!r} must be a non-negative number, got {value!r}"
            )
        return value

    _gauge("drift_score")
    _gauge("drift_alarms")
    _gauge("shards_absorbed")
    _gauge("samples_absorbed")
    _gauge("shards_since_rebuild")
    _gauge("staleness_s", allow_none=True)
    coverage = _gauge("coverage", allow_none=True)
    if coverage is not None and coverage > 1.0:
        raise ArtifactError(f"{where}: coverage must lie in [0, 1], got {coverage!r}")
    _gauge("coverage_checks")
    _gauge("alerts")
    procs = _need(summary, "alarmed_procedures", list, where)
    for proc in procs:
        if not isinstance(proc, str):
            raise ArtifactError(
                f"{where}: alarmed_procedures entries must be strings, got {proc!r}"
            )
    if "slo" in summary:
        slo = _need(summary, "slo", dict, where)
        for key, value in slo.items():
            if key == "state":
                if value not in ("ok", "breached"):
                    raise ArtifactError(
                        f"{where}: slo state must be 'ok' or 'breached', got {value!r}"
                    )
                continue
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or value < 0
            ):
                raise ArtifactError(
                    f"{where}: slo.{key} must be a non-negative number, got {value!r}"
                )
    return {"alerts": summary["alerts"], "drift_alarms": summary["drift_alarms"]}


def _check_alert(obj, where: str) -> None:
    if not isinstance(obj, dict):
        raise ArtifactError(f"{where}: alert must be an object")
    schema = _need(obj, "schema", str, where)
    if schema != ALERT_SCHEMA:
        raise ArtifactError(f"{where}: schema {schema!r}, expected {ALERT_SCHEMA!r}")
    kind = _need(obj, "kind", str, where)
    if kind not in ALERT_KINDS:
        raise ArtifactError(
            f"{where}: unknown alert kind {kind!r} (known: {', '.join(ALERT_KINDS)})"
        )
    severity = _need(obj, "severity", str, where)
    if severity not in SEVERITIES:
        raise ArtifactError(
            f"{where}: unknown severity {severity!r} (known: {', '.join(SEVERITIES)})"
        )
    _need(obj, "source", str, where)
    for key in ("value", "threshold"):
        value = _need(obj, key, (int, float), where)
        if isinstance(value, bool):
            raise ArtifactError(f"{where}: {key!r} must be a number, got {value!r}")
    shard = _need(obj, "shard", int, where)
    if shard < -1:
        raise ArtifactError(f"{where}: shard must be >= -1, got {shard}")


def _check_health_report(payload, where: str) -> dict:
    if not isinstance(payload, dict):
        raise ArtifactError(f"{where}: health report must be an object")
    schema = _need(payload, "schema", str, where)
    if schema != REPORT_SCHEMA:
        raise ArtifactError(f"{where}: schema {schema!r}, expected {REPORT_SCHEMA!r}")
    nominal = _need(payload, "nominal_coverage", (int, float), where)
    if isinstance(nominal, bool) or not 0.0 < nominal < 1.0:
        raise ArtifactError(
            f"{where}: nominal_coverage must lie in (0, 1), got {nominal!r}"
        )
    tenants = _need(payload, "tenants", dict, where)
    for tenant, summary in tenants.items():
        validate_health_summary(summary, f"{where}: tenants[{tenant!r}]")
    fleet = _need(payload, "fleet", dict, where)
    n_tenants = _need(fleet, "tenants", int, f"{where}: fleet")
    if n_tenants != len(tenants):
        raise ArtifactError(
            f"{where}: fleet.tenants {n_tenants} != tenant rows {len(tenants)}"
        )
    alerts = _need(payload, "alerts", list, where)
    for i, alert in enumerate(alerts):
        _check_alert(alert, f"{where}: alerts[{i}]")
    fleet_alerts = _need(fleet, "alerts", int, f"{where}: fleet")
    if fleet_alerts != len(alerts):
        raise ArtifactError(
            f"{where}: fleet.alerts {fleet_alerts} != alert records {len(alerts)}"
        )
    return {"tenants": len(tenants), "alerts": len(alerts)}


def validate_health_report(path: Union[str, Path]) -> dict:
    """Validate a fleet health-report JSON file (``repro-obs health`` artifact)."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path.name}: not valid JSON: {exc}") from exc
    return _check_health_report(payload, path.name)


def validate_alert_log(path: Union[str, Path]) -> dict:
    """Validate a JSONL alert log (one :class:`AlertEvent` per line)."""
    path = Path(path)
    alerts = 0
    kinds: set[str] = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            raise ArtifactError(f"{path.name}:{lineno}: blank line in alert log")
        where = f"{path.name}:{lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"{where}: not valid JSON: {exc}") from exc
        _check_alert(obj, where)
        kinds.add(obj["kind"])
        alerts += 1
    return {"alerts": alerts, "kinds": kinds}


def validate_hw_counters_file(path: Union[str, Path]) -> dict:
    """Validate a standalone counter-snapshot JSON file."""
    path = Path(path)
    try:
        snap = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path.name}: not valid JSON: {exc}") from exc
    return validate_counter_snapshot(snap, path.name)


#: Schema tag on attribution reports (``repro.obs.compare``).  Spelled out
#: here (like ``SERVE_SCHEMA``) so the validators import nothing cyclic.
OBS_REPORT_SCHEMA = "repro.obs-report/1"

#: The report kinds ``repro-obs`` emits.
OBS_REPORT_KINDS = ("runs", "counters", "aggregate", "critical-path")


def _check_numeric_rows(rows, where: str, key_field: str) -> None:
    if not isinstance(rows, list):
        raise ArtifactError(f"{where}: must be a list")
    for i, row in enumerate(rows):
        row_where = f"{where}[{i}]"
        if not isinstance(row, dict):
            raise ArtifactError(f"{row_where}: row must be an object")
        _need(row, key_field, str, row_where)
        for key, value in row.items():
            if key == key_field:
                continue
            if value is not None and not isinstance(value, (int, float, str)):
                raise ArtifactError(
                    f"{row_where}: field {key!r} must be a number, string or "
                    f"null, got {type(value).__name__}"
                )


def validate_obs_report(path: Union[str, Path]) -> dict:
    """Validate a ``repro.obs-report/1`` attribution/aggregation artifact."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path.name}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ArtifactError(f"{path.name}: report must be an object")
    schema = _need(payload, "schema", str, path.name)
    if schema != OBS_REPORT_SCHEMA:
        raise ArtifactError(
            f"{path.name}: schema {schema!r}, expected {OBS_REPORT_SCHEMA!r}"
        )
    kind = _need(payload, "kind", str, path.name)
    if kind not in OBS_REPORT_KINDS:
        raise ArtifactError(
            f"{path.name}: unknown report kind {kind!r} "
            f"(known: {', '.join(OBS_REPORT_KINDS)})"
        )
    if kind in ("aggregate", "critical-path"):
        rows = _need(payload, "rows", list, path.name)
        _check_numeric_rows(rows, f"{path.name}: rows", "name")
        return {"kind": kind, "rows": len(rows)}
    for key in ("total", "spans", "counters", "metrics", "notes"):
        _need(payload, key, object, path.name)
    notes = payload["notes"]
    if not isinstance(notes, list) or any(not isinstance(n, str) for n in notes):
        raise ArtifactError(f"{path.name}: notes must be a list of strings")
    sections = 0
    if payload["total"] is not None:
        total = _need(payload, "total", dict, path.name)
        for key in ("before_s", "after_s", "delta_s"):
            _need(total, key, (int, float), f"{path.name}: total")
    if payload["spans"] is not None:
        _check_numeric_rows(payload["spans"], f"{path.name}: spans", "span")
        sections += 1
    if payload["counters"] is not None:
        counters = _need(payload, "counters", dict, path.name)
        _check_numeric_rows(
            _need(counters, "movers", list, f"{path.name}: counters"),
            f"{path.name}: counters.movers",
            "counter",
        )
        _check_numeric_rows(
            _need(counters, "groups", list, f"{path.name}: counters"),
            f"{path.name}: counters.groups",
            "group",
        )
        _check_numeric_rows(
            _need(counters, "per_proc", list, f"{path.name}: counters"),
            f"{path.name}: counters.per_proc",
            "procedure",
        )
        sections += 1
    if payload["metrics"] is not None:
        metrics = _need(payload, "metrics", dict, path.name)
        _check_numeric_rows(
            _need(metrics, "counters", list, f"{path.name}: metrics"),
            f"{path.name}: metrics.counters",
            "counter",
        )
        _check_numeric_rows(
            _need(metrics, "histograms", list, f"{path.name}: metrics"),
            f"{path.name}: metrics.histograms",
            "histogram",
        )
        sections += 1
    if sections == 0:
        raise ArtifactError(
            f"{path.name}: report has no attribution sections "
            "(spans, counters and metrics are all null)"
        )
    return {"kind": kind, "sections": sections, "notes": len(notes)}


def require_span_coverage(names: set[str]) -> dict:
    """Assert the span names cover the engine, sim and estimator layers."""
    covered = {}
    for layer, prefixes in LAYER_PREFIXES.items():
        covered[layer] = any(
            name == p or name.startswith(p) for name in names for p in prefixes
        )
    missing = sorted(layer for layer, ok in covered.items() if not ok)
    if missing:
        raise ArtifactError(
            f"trace does not cover layer(s): {', '.join(missing)} "
            f"(saw span names: {', '.join(sorted(names))})"
        )
    return covered
