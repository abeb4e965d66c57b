"""JSON (de)serialization of finished experiment results.

The experiment engine's result cache stores each :class:`ExperimentResult`
as JSON and reloads it byte-identically (see
:mod:`repro.experiments.engine`).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import ProfilingError

if TYPE_CHECKING:  # pragma: no cover - import cycles: core/experiments depend on profiling
    from repro.experiments.common import ExperimentResult

__all__ = [
    "experiment_result_to_json",
    "experiment_result_from_json",
    "json_default",
]

_FORMAT = "repro/v1"


def json_default(value: Any) -> Any:
    """Make numpy scalars/arrays JSON-safe (experiment series contain them)."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


def _check_header(payload: dict[str, Any], kind: str) -> None:
    if payload.get("format") != _FORMAT:
        raise ProfilingError(f"unsupported format {payload.get('format')!r}")
    if payload.get("kind") != kind:
        raise ProfilingError(f"expected kind {kind!r}, got {payload.get('kind')!r}")


def experiment_result_to_json(result: "ExperimentResult") -> str:
    """Serialize a finished experiment: tables, series, notes, timings.

    Table cells are stored as their *rendered* strings, so a cached result
    reloaded by :func:`experiment_result_from_json` renders byte-identically
    to the live run — the property the engine's determinism guarantee and
    the result cache both rest on.  Series tuples flatten to JSON lists.
    """
    payload = {
        "format": _FORMAT,
        "kind": "experiment-result",
        "experiment_id": result.experiment_id,
        "title": result.title,
        "tables": [
            {
                "title": t.title,
                "columns": list(t.columns),
                "digits": t.digits,
                "rows": [list(row) for row in t.rows],
            }
            for t in result.tables
        ],
        "series": result.series,
        "notes": list(result.notes),
        "timings": dict(result.timings),
    }
    return json.dumps(payload, default=json_default)


def experiment_result_from_json(text: str) -> "ExperimentResult":
    """Inverse of :func:`experiment_result_to_json`."""
    from repro.experiments.common import ExperimentResult
    from repro.util.tables import Table

    payload = json.loads(text)
    _check_header(payload, "experiment-result")
    tables = [
        Table.from_rendered(
            t["title"], t["columns"], t["rows"], digits=int(t["digits"])
        )
        for t in payload["tables"]
    ]
    return ExperimentResult(
        experiment_id=str(payload["experiment_id"]),
        title=str(payload["title"]),
        tables=tables,
        series={str(k): list(v) for k, v in payload["series"].items()},
        notes=[str(n) for n in payload["notes"]],
        timings={str(k): float(v) for k, v in payload["timings"].items()},
    )
