"""The shapes of the telemetry artifacts, and the walker that checks them.

Every artifact the obs stack writes has one reader that checks what it
parses against a shape declared here: ``load_trace`` and ``load_run``
(:mod:`repro.obs.query`), ``read_alert_log`` (:mod:`repro.obs.health`) and
``repro-obs``'s loaders.  ``repro-obs check`` runs those same readers, so
the checker and the analysis accept exactly the same files.

A shape is plain data (the container has no ``jsonschema``):

* a :class:`Leaf` (``STR``, ``INT``, ``NUMBER``, ``NON_NEGATIVE``, ...) —
  numbers never admit ``bool``;
* a :class:`Vocab`, a closed vocabulary such as a schema tag;
* ``[shape]``, a list of ``shape``;
* a dict: its keys are required unless wrapped in :class:`Opt`, and the
  ``...`` key gives the shape of every undeclared key (by default anything;
  ``None`` closes the key set);
* :class:`Null` admits ``null`` as well; :class:`Checked` adds an invariant
  the shape cannot state (histogram buckets, fleet totals, ...).

Failures raise :class:`ArtifactError` naming the file, the line for JSONL,
and the key path.  The schema tags of the formats whose readers import
this module (alerts, health reports, attribution reports) are declared
here, so each tag has one definition and no import cycles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Union

from repro.errors import ObsError
from repro.obs.counters import SNAPSHOT_SCHEMA
from repro.obs.metrics import SERVE_SCHEMA
from repro.obs.trace import TRACE_SCHEMA

__all__ = ["ArtifactError", "check", "read_json", "read_jsonl", "require_span_coverage"]

#: Schema tag stamped on every serialized alert (one JSONL line each).
ALERT_SCHEMA = "repro.health-alert/1"

#: Schema tag stamped on a fleet health report (``repro-obs health`` output).
REPORT_SCHEMA = "repro.health-report/1"

#: Schema tag on every attribution report (``repro.obs.compare``).
OBS_REPORT_SCHEMA = "repro.obs-report/1"

#: Alert severities, mild to severe (the vocabulary is closed).
SEVERITIES = ("warning", "critical")

#: Alert kinds the health monitor can emit (the vocabulary is closed).
ALERT_KINDS = ("drift", "coverage", "slo-backlog")

#: Span-name prefixes that prove the trace covered a pipeline layer.
LAYER_PREFIXES = {
    "engine": ("engine.", "experiment"),
    "sim": ("sim.",),
    "estimator": ("estimate.",),
}


class ArtifactError(ObsError):
    """A telemetry artifact violated its documented structure."""


@dataclass(frozen=True)
class Leaf:
    """A scalar rule: ``test(value)`` holds for every value that is ``label``."""

    label: str
    test: Callable[[Any], bool]


@dataclass(frozen=True)
class Vocab:
    """A closed vocabulary: the value must be one of ``values``."""

    noun: str
    values: tuple


@dataclass(frozen=True)
class Opt:
    """An object key that may be absent."""

    shape: Any


@dataclass(frozen=True)
class Null:
    """A value that may also be ``null``."""

    shape: Any


@dataclass(frozen=True)
class Checked:
    """``shape`` plus ``invariant(value, where)``, run once the shape holds."""

    shape: Any
    invariant: Callable[[Any, str], None]


def _number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


ANY = Leaf("any value", lambda value: True)
STR = Leaf("a string", lambda value: isinstance(value, str))
INT = Leaf("an int", _int)
NUMBER = Leaf("a number", _number)
# Most counters are ints; energy (µJ) and the timer's quantization error
# accumulate as floats.
NON_NEGATIVE = Leaf("a non-negative number", lambda v: _number(v) and v >= 0)
NON_NEGATIVE_INT = Leaf("a non-negative int", lambda v: _int(v) and v >= 0)


def _at(where: str, path: str) -> str:
    return f"{where}: {path}" if path else where


def check(value: Any, shape: Any, where: str, path: str = "") -> None:
    """Raise :class:`ArtifactError` unless ``value`` has ``shape``.

    ``where`` names the file (``trace.jsonl:3`` for a JSONL line) and
    ``path`` the key path inside it; both prefix every message.
    """
    if isinstance(shape, Leaf):
        if not shape.test(value):
            raise ArtifactError(f"{_at(where, path)} must be {shape.label}, got {value!r}")
    elif isinstance(shape, Null):
        if value is not None:
            check(value, shape.shape, where, path)
    elif isinstance(shape, Checked):
        check(value, shape.shape, where, path)
        shape.invariant(value, _at(where, path))
    elif isinstance(shape, Vocab):
        if value not in shape.values:
            raise ArtifactError(
                f"{_at(where, path)}: unknown {shape.noun} {value!r} "
                f"(known: {', '.join(shape.values)})"
            )
    elif isinstance(shape, list):
        if not isinstance(value, list):
            raise ArtifactError(
                f"{_at(where, path)} must be a list, got {type(value).__name__}"
            )
        for i, item in enumerate(value):
            check(item, shape[0], where, f"{path}[{i}]")
    else:
        if not isinstance(value, dict):
            raise ArtifactError(
                f"{_at(where, path)} must be an object, got {type(value).__name__}"
            )
        for key, sub in shape.items():
            if key is ...:
                continue
            if key in value:
                sub = sub.shape if isinstance(sub, Opt) else sub
                check(value[key], sub, where, f"{path}.{key}" if path else key)
            elif not isinstance(sub, Opt):
                raise ArtifactError(f"{_at(where, path)}: missing required key {key!r}")
        rest = shape.get(..., ANY)
        if rest is ANY:
            return
        extra = sorted(key for key in value if key not in shape)
        if rest is None and extra:
            raise ArtifactError(
                f"{where}: unknown {path or 'top-level'} key(s) "
                f"{', '.join(map(repr, extra))} "
                f"(known: {', '.join(key for key in shape if key is not ...)})"
            )
        for key in extra:
            check(value[key], rest, where, f"{path}[{key!r}]")


def _parse(text: str, where: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{where}: not valid JSON: {exc}") from exc


def read_text(path: Union[str, Path]) -> str:
    """An artifact's text; bytes that are not UTF-8 raise :class:`ArtifactError`."""
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ArtifactError(f"{path.name}: not UTF-8 text: {exc}") from exc


def read_json(path: Union[str, Path], shape: Any = ANY) -> Any:
    """Parse a one-document JSON artifact and check it against ``shape``."""
    path = Path(path)
    value = _parse(read_text(path), path.name)
    check(value, shape, path.name)
    return value


def read_jsonl(path: Union[str, Path]) -> Iterator[tuple[str, Any]]:
    """Yield ``(where, record)`` for every non-blank line of a JSONL artifact."""
    path = Path(path)
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if line.strip():
            where = f"{path.name}:{lineno}"
            yield where, _parse(line, where)


# -- JSONL and Chrome traces (repro.obs.trace) ------------------------------


def _span_interval(span: dict, where: str) -> None:
    if span["end"] < span["start"]:
        raise ArtifactError(
            f"{where}: span ends ({span['end']}) before it starts ({span['start']})"
        )


#: Every JSONL trace line; :func:`repro.obs.query.load_trace` checks the
#: header and manifest positions and the strictly increasing ``seq``.
TRACE_RECORD = {"type": Vocab("record type", ("header", "manifest", "span"))}
TRACE_HEADER = {"schema": Vocab("trace schema", (TRACE_SCHEMA,))}
SPAN = Checked(
    {
        "name": STR,
        "start": NUMBER,
        "end": NUMBER,
        "depth": NON_NEGATIVE_INT,
        "seq": INT,
        "pid": INT,
        "tid": INT,
        "attrs": {},
    },
    _span_interval,
)


def _monotonic_tracks(payload: dict, where: str) -> None:
    events = payload["traceEvents"]
    if not events:
        raise ArtifactError(f"{where}: traceEvents is empty")
    last_ts: dict[tuple, int] = {}
    for i, event in enumerate(events):
        track = (event["pid"], event["tid"])
        if event["ts"] < last_ts.get(track, event["ts"]):
            raise ArtifactError(
                f"{where}: traceEvents[{i}]: ts {event['ts']} decreases within "
                f"track pid={track[0]} tid={track[1]} (previous {last_ts[track]})"
            )
        last_ts[track] = event["ts"]


CHROME_TRACE = Checked(
    {
        "traceEvents": [
            {
                "name": STR,
                "ph": STR,
                "ts": INT,
                "dur": NON_NEGATIVE_INT,
                "pid": INT,
                "tid": INT,
            }
        ]
    },
    _monotonic_tracks,
)


# -- counter snapshots, health reports and alerts ---------------------------

COUNTER_SNAPSHOT = {
    "schema": Vocab("counter-snapshot schema", (SNAPSHOT_SCHEMA,)),
    "totals": {...: NON_NEGATIVE},
    "per_proc": {...: {...: NON_NEGATIVE}},
}

HEALTH_SUMMARY = {
    "drift_score": NON_NEGATIVE,
    "drift_alarms": NON_NEGATIVE,
    "shards_absorbed": NON_NEGATIVE,
    "samples_absorbed": NON_NEGATIVE,
    "staleness_s": Null(NON_NEGATIVE),
    "coverage": Null(Leaf("a number in [0, 1]", lambda v: _number(v) and 0 <= v <= 1)),
    "coverage_checks": NON_NEGATIVE,
    "alerts": NON_NEGATIVE,
    "alarmed_procedures": [STR],
    "slo": Opt({"state": Opt(Vocab("slo state", ("ok", "breached"))), ...: NON_NEGATIVE}),
}

ALERT = {
    "schema": Vocab("alert schema", (ALERT_SCHEMA,)),
    "kind": Vocab("alert kind", ALERT_KINDS),
    "severity": Vocab("severity", SEVERITIES),
    "source": STR,
    "value": NUMBER,
    "threshold": NUMBER,
    # -1 marks an alert tied to no shard (staleness, say).
    "shard": Leaf("an int >= -1", lambda v: _int(v) and v >= -1),
    "procedure": Opt(STR),
    "detail": Opt(STR),
}


def _fleet_totals(report: dict, where: str) -> None:
    fleet = report["fleet"]
    for key, rows, noun in (
        ("tenants", report["tenants"], "tenant rows"),
        ("alerts", report["alerts"], "alert records"),
    ):
        if fleet[key] != len(rows):
            raise ArtifactError(f"{where}: fleet.{key} {fleet[key]} != {noun} {len(rows)}")


HEALTH_REPORT = Checked(
    {
        "schema": Vocab("health-report schema", (REPORT_SCHEMA,)),
        "nominal_coverage": Leaf(
            "a number in (0, 1)", lambda v: _number(v) and 0 < v < 1
        ),
        "tenants": {...: HEALTH_SUMMARY},
        "fleet": {"tenants": INT, "alerts": INT},
        "alerts": [ALERT],
    },
    _fleet_totals,
)


# -- the --metrics file (repro.obs.metrics.write_metrics) -------------------


def _histogram_buckets(hist: dict, where: str) -> None:
    bounds, counts = hist["bounds"], hist["counts"]
    if len(counts) != len(bounds) + 1:
        raise ArtifactError(
            f"{where}: expected {len(bounds) + 1} buckets, got {len(counts)}"
        )
    if sum(counts) != hist["count"]:
        raise ArtifactError(f"{where}: bucket counts {sum(counts)} != count {hist['count']}")


SERVE_STATS = {
    "schema": Vocab("serve schema", (SERVE_SCHEMA,)),
    "workers": Leaf("an int >= 1", lambda v: _int(v) and v >= 1),
    "uptime_s": NON_NEGATIVE,
    "totals": {
        "accepted": NON_NEGATIVE,
        "deferred": NON_NEGATIVE,
        "rejected": NON_NEGATIVE,
        ...: NON_NEGATIVE,
    },
    "tenants": {...: {...: NON_NEGATIVE}},
    "latency": {...: NON_NEGATIVE},
    "health": Opt({...: HEALTH_SUMMARY}),
}

METRICS_FILE = {
    "metrics": {
        "counters": {...: NON_NEGATIVE},
        "gauges": {},
        "histograms": {
            ...: Checked(
                {
                    "bounds": [NUMBER],
                    "counts": [NON_NEGATIVE],
                    "count": NON_NEGATIVE,
                    "sum": NUMBER,
                },
                _histogram_buckets,
            )
        },
    },
    "manifest": Opt(
        {
            key: ANY
            for key in ("schema_version", "repro_version", "seed_scheme", "config", "host")
        }
    ),
    "hardware_counters": Opt(COUNTER_SNAPSHOT),
    "serve": Opt(SERVE_STATS),
    "health": Opt(HEALTH_REPORT),
    # A typo'd or half-renamed embed key must fail, not ride along unchecked.
    ...: None,
}


# -- attribution reports (repro.obs.compare, repro-obs --json) --------------


_CELL = Leaf(
    "a number, string or null", lambda v: v is None or isinstance(v, (int, float, str))
)


def _rows(key: str) -> list:
    """A table: one object per row, named by the string column ``key``."""
    return [{key: STR, ...: _CELL}]


def _has_sections(report: dict, where: str) -> None:
    if all(report[key] is None for key in ("spans", "counters", "metrics")):
        raise ArtifactError(
            f"{where}: report has no attribution sections "
            "(spans, counters and metrics are all null)"
        )


_ATTRIBUTION = Checked(
    {
        "total": Null({"before_s": NUMBER, "after_s": NUMBER, "delta_s": NUMBER}),
        "spans": Null(_rows("span")),
        "counters": Null(
            {
                "movers": _rows("counter"),
                "groups": _rows("group"),
                "per_proc": _rows("procedure"),
            }
        ),
        "metrics": Null({"counters": _rows("counter"), "histograms": _rows("histogram")}),
        "notes": [STR],
    },
    _has_sections,
)

#: The body of each report kind ``repro-obs`` writes: ``compare_runs``
#: writes ``runs``, ``explain``/``diff-counters`` on two counter snapshots
#: ``counters``, and the ``aggregate``/``critical-path`` subcommands their
#: own names.
REPORT_BODIES = {
    "runs": _ATTRIBUTION,
    "counters": _ATTRIBUTION,
    "aggregate": {"rows": _rows("name")},
    "critical-path": {"rows": _rows("name")},
}

OBS_REPORT = Checked(
    {
        "schema": Vocab("report schema", (OBS_REPORT_SCHEMA,)),
        "kind": Vocab("report kind", tuple(REPORT_BODIES)),
    },
    lambda report, where: check(report, REPORT_BODIES[report["kind"]], where),
)


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
