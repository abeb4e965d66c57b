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
    round-robin tenant → worker assignment in registration order.
:mod:`~repro.serve.loadgen`
    The simulated fleet driver / load generator (``repro-serve`` CLI).

Everything is deterministic where it matters: for a given upload sequence
the final estimates are bit-identical at any worker count.  See
``docs/serving.md``.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "protocol": (
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
        ),
        "batcher": ("MicroBatcher", "PendingShard"),
        "worker": ("EstimatorWorker", "AbsorbResult"),
        "query": ("TenantEstimate", "snapshot_estimate"),
        "service": ("IngestionService", "ServiceConfig", "TenantStats"),
        "loadgen": (
            "TenantSpec",
            "FleetSpec",
            "FleetReport",
            "default_fleet",
            "build_uploads",
            "run_fleet",
        ),
    },
)
