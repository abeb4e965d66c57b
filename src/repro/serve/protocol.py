"""The serve wire protocol: JSON lines in, JSON lines out.

One request per line, one response per line, everything UTF-8 JSON objects.
The protocol is deliberately tiny — motes are the clients — and every
malformed input maps to a **structured error** with a stable machine
``code`` (:class:`~repro.errors.ProtocolError`), never a dropped
connection or a silent discard: a fleet retries on codes.

Requests
--------

``upload`` — one timing shard from one mote::

    {"op": "upload", "deployment": "field-7", "version": "1.4.2",
     "mote": 12, "seq": 3,
     "samples": {"main": [410.0, 388.0], "classify": [88.0]}}

``query`` — current estimate for a tenant::

    {"op": "query", "deployment": "field-7", "version": "1.4.2"}

Both may carry an optional ``"trace"`` string — a client-chosen causal id
that the service stamps on every span the request touches
(``serve.ingest`` → ``serve.absorb`` → ``serve.query`` share it), so one
shard's journey is greppable across the exported timeline.  Absent, uploads
fall back to the deterministic ``deployment@version/mote/seq`` identity
(:attr:`ShardUpload.causal_id`).

``stats`` — service-wide ingest totals::

    {"op": "stats"}

Responses
---------

Uploads are answered with an ``ack`` whose ``status`` is ``accepted``
(queued for micro-batched absorption), ``deferred`` (backpressure: the
tenant's :class:`~repro.profiling.budget.SampleBudget` is exhausted or its
backlog is full — retry after ``retry_after_s``), or — never silently —
an ``error`` object (``op: "error"``, with ``code`` and ``detail``) for
malformed or unroutable requests.  Queries are answered with an
``estimate`` object carrying per-procedure thetas and Wald CI half-widths
(see :mod:`repro.serve.query`).

Error codes are part of the contract: ``bad-json``, ``bad-request``,
``unknown-op``, ``bad-shard``, ``unknown-tenant``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import numpy as np

from repro.errors import ERROR_CODES, ProtocolError
from repro.obs.validate import SERVE_SCHEMA

__all__ = [
    "PROTOCOL_VERSION",
    "ERROR_CODES",
    "TenantKey",
    "ShardUpload",
    "QueryRequest",
    "StatsRequest",
    "Receipt",
    "parse_request",
    "parse_request_line",
    "error_response",
    "encode",
]

#: Bumped on any wire-visible change; echoed by ``stats`` responses.  The
#: tag is declared with the other artifact schemas in :mod:`repro.obs.validate`.
PROTOCOL_VERSION = SERVE_SCHEMA


@dataclass(frozen=True, order=True)
class TenantKey:
    """The routing identity of one estimator stream.

    A *tenant* is one ``(deployment_id, program_version)`` pair: all motes
    of one deployment running one firmware image feed one
    :class:`~repro.core.online.OnlineEstimator`.  A new firmware rollout is
    a new tenant — its CFG (and therefore its timing model) changed, so its
    samples must never mix with the old image's stream.
    """

    deployment_id: str
    program_version: str

    def __str__(self) -> str:
        return f"{self.deployment_id}@{self.program_version}"


@dataclass(frozen=True)
class ShardUpload:
    """One mote's timing shard: per-procedure measured durations."""

    tenant: TenantKey
    mote_id: int
    seq: int
    samples: dict[str, np.ndarray] = field(compare=False)
    trace_id: Optional[str] = field(default=None, compare=False)

    @property
    def n_samples(self) -> int:
        return int(sum(xs.size for xs in self.samples.values()))

    @property
    def causal_id(self) -> str:
        """The id stitching this shard's spans together across the timeline.

        The client's ``trace`` field when it sent one; otherwise the shard's
        own wire identity — deterministic, so replayed fleets produce the
        same causal chain byte-for-byte.
        """
        return self.trace_id or f"{self.tenant}/{self.mote_id}/{self.seq}"


@dataclass(frozen=True)
class QueryRequest:
    """Ask for a tenant's current estimate."""

    tenant: TenantKey
    trace_id: Optional[str] = None


@dataclass(frozen=True)
class StatsRequest:
    """Ask for service-wide ingest totals."""


@dataclass(frozen=True)
class Receipt:
    """The service's verdict on one upload.

    ``status`` is ``accepted`` | ``deferred``; rejections surface as
    :class:`~repro.errors.ProtocolError` (and on the wire as ``error``
    objects) instead — a rejected shard was never parseable or routable,
    so there is nothing to receipt.
    """

    status: str
    tenant: TenantKey
    pending: int
    reason: Optional[str] = None
    retry_after_s: Optional[float] = None

    def to_json(self) -> dict:
        payload: dict[str, Any] = {
            "op": "ack",
            "status": self.status,
            "tenant": str(self.tenant),
            "pending": self.pending,
        }
        if self.reason is not None:
            payload["reason"] = self.reason
        if self.retry_after_s is not None:
            payload["retry_after_s"] = self.retry_after_s
        return payload


def _need(obj: Mapping, key: str, types, code: str) -> Any:
    if key not in obj:
        raise ProtocolError(code, f"missing required field {key!r}")
    value = obj[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ProtocolError(
            code,
            f"field {key!r} must be {getattr(types, '__name__', types)}, "
            f"got {type(value).__name__}",
        )
    return value


def _tenant_of(obj: Mapping) -> TenantKey:
    deployment = _need(obj, "deployment", str, "bad-request")
    version = _need(obj, "version", str, "bad-request")
    if not deployment or not version:
        raise ProtocolError("bad-request", "deployment and version must be non-empty")
    return TenantKey(deployment, version)


def _shard_samples(obj: Mapping) -> dict[str, np.ndarray]:
    raw = _need(obj, "samples", dict, "bad-shard")
    if not raw:
        raise ProtocolError("bad-shard", "samples must name at least one procedure")
    samples: dict[str, np.ndarray] = {}
    for name, xs in raw.items():
        if not isinstance(name, str) or not name:
            raise ProtocolError("bad-shard", f"procedure name must be a string, got {name!r}")
        if not isinstance(xs, list):
            raise ProtocolError(
                "bad-shard", f"samples[{name!r}] must be a list of durations"
            )
        for x in xs:
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise ProtocolError(
                    "bad-shard",
                    f"samples[{name!r}] holds a non-numeric duration: {x!r}",
                )
            if not np.isfinite(x) or x < 0:
                raise ProtocolError(
                    "bad-shard",
                    f"samples[{name!r}] holds an impossible duration: {x!r}",
                )
        if xs:
            samples[name] = np.asarray(xs, dtype=float)
    if not samples:
        raise ProtocolError("bad-shard", "shard carries zero samples")
    return samples


def _trace_of(obj: Mapping) -> Optional[str]:
    if "trace" not in obj:
        return None
    trace = obj["trace"]
    if not isinstance(trace, str) or not trace:
        raise ProtocolError(
            "bad-request", f"field 'trace' must be a non-empty string, got {trace!r}"
        )
    return trace


def parse_request(obj: Any):
    """Validate one decoded request object into a typed request.

    Returns a :class:`ShardUpload`, :class:`QueryRequest` or
    :class:`StatsRequest`; raises :class:`~repro.errors.ProtocolError`
    with a stable code on any violation.
    """
    if not isinstance(obj, dict):
        raise ProtocolError("bad-request", "request must be a JSON object")
    op = _need(obj, "op", str, "bad-request")
    if op == "upload":
        tenant = _tenant_of(obj)
        mote = _need(obj, "mote", int, "bad-request")
        seq = _need(obj, "seq", int, "bad-request")
        if mote < 0 or seq < 0:
            raise ProtocolError("bad-request", "mote and seq must be non-negative")
        return ShardUpload(
            tenant=tenant,
            mote_id=mote,
            seq=seq,
            samples=_shard_samples(obj),
            trace_id=_trace_of(obj),
        )
    if op == "query":
        return QueryRequest(tenant=_tenant_of(obj), trace_id=_trace_of(obj))
    if op == "stats":
        return StatsRequest()
    raise ProtocolError("unknown-op", f"unknown op {op!r} (known: upload, query, stats)")


def parse_request_line(line: str):
    """Decode + validate one wire line (the JSONL entry point)."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError("bad-json", f"not valid JSON: {exc}") from exc
    return parse_request(obj)


def error_response(exc: ProtocolError) -> dict:
    """The structured error object a protocol violation is answered with."""
    return {"op": "error", "code": exc.code, "detail": exc.detail}


def encode(payload: Mapping) -> str:
    """One response line (no trailing newline), deterministic key order."""
    return json.dumps(payload, sort_keys=True)
