"""``repro.serve`` — fleet-scale ingestion for streaming tomography.

The serving layer turns the streaming estimator
(:class:`~repro.core.online.OnlineEstimator`) into a service: thousands of
simulated motes upload timing shards; the service routes each shard to its
tenant's estimator by ``(deployment_id, program_version)``, micro-batches
absorption so EM cost amortizes across shards, applies backpressure from
the tenant's :class:`~repro.profiling.budget.SampleBudget`, and answers
queries with per-procedure estimates and Wald CI half-widths.

Modules
-------

:mod:`~repro.serve.protocol`
    The JSONL wire protocol: requests, receipts, structured error codes.
:mod:`~repro.serve.batcher`
    Count/age micro-batching; batch composition is worker-count-independent.
:mod:`~repro.serve.worker`
    Estimator ownership + batch absorption (one EM sweep per batch).
:mod:`~repro.serve.query`
    Estimate snapshots (theta, half-widths, convergence verdict).
:mod:`~repro.serve.service`
    The asyncio :class:`IngestionService` tying it all together, with
    SHA-256 stable tenant → worker routing (:func:`worker_for`).
:mod:`~repro.serve.loadgen`
    The simulated fleet driver / load generator (``repro-serve`` CLI).

Everything is deterministic where it matters: for a given upload sequence
the final estimates are bit-identical at any worker count.  See
``docs/serving.md``.
"""

from repro.serve.batcher import MicroBatcher, PendingShard
from repro.serve.loadgen import (
    FleetReport,
    FleetSpec,
    TenantSpec,
    build_uploads,
    default_fleet,
    run_fleet,
)
from repro.serve.protocol import (
    ERROR_CODES,
    PROTOCOL_VERSION,
    QueryRequest,
    Receipt,
    ShardUpload,
    StatsRequest,
    TenantKey,
    encode,
    error_response,
    parse_request,
    parse_request_line,
)
from repro.serve.query import TenantEstimate, snapshot_estimate
from repro.serve.service import IngestionService, ServiceConfig, TenantStats
from repro.serve.worker import AbsorbResult, EstimatorWorker

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
    "MicroBatcher",
    "PendingShard",
    "EstimatorWorker",
    "AbsorbResult",
    "TenantEstimate",
    "snapshot_estimate",
    "IngestionService",
    "ServiceConfig",
    "TenantStats",
    "TenantSpec",
    "FleetSpec",
    "FleetReport",
    "default_fleet",
    "build_uploads",
    "run_fleet",
]
