"""The ingestion service: fleet uploads in, estimates out.

:class:`IngestionService` is the tentpole of :mod:`repro.serve` — a
single-process asyncio service that accepts timing-shard uploads from
(simulated) motes, routes them by tenant
(:class:`~repro.serve.protocol.TenantKey`; the k-th registered tenant
belongs to worker ``k mod n_workers``) to a pool of
:class:`~repro.serve.worker.EstimatorWorker` tasks, micro-batches
absorption, and answers queries with per-procedure estimates and Wald CI
half-widths.

The design splits hot-path decisions from absorption:

* :meth:`submit` runs synchronously inside the event loop — parse already
  done, it checks the tenant's :class:`~repro.profiling.budget.SampleBudget`
  and backlog cap, buffers the shard in the service-level
  :class:`~repro.serve.batcher.MicroBatcher`, and answers with a
  :class:`~repro.serve.protocol.Receipt` immediately.  Budget or backlog
  pressure yields ``deferred`` (with :data:`RETRY_AFTER_S`) — **deferral,
  not drop**: the shard is not absorbed, the estimator is untouched, and
  the mote is told to retry.
* Full batches are enqueued to the owning worker's FIFO queue; worker tasks
  absorb them (one EM sweep per batch) off the hot path.

**Determinism.**  Budget verdicts and batch composition are decided at
submit time from counters the service updates synchronously, so they are a
pure function of the upload order — never of worker scheduling.  (Backlog
deferral is the exception by design: it reflects live absorption lag.)  Each
tenant's batches are absorbed FIFO by exactly one worker, and absorption
order *across* tenants doesn't matter (estimators are per-tenant).  Hence
the same upload sequence yields bit-identical estimates at any worker
count.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence

import numpy as np

from repro import obs
from repro.core.online import OnlineOptions
from repro.errors import ProtocolError, ServeError
from repro.ir.program import Program
from repro.mote.platform import Platform
from repro.placement.layout import ProgramLayout
from repro.profiling.budget import SampleBudget
from repro.serve.batcher import MicroBatcher
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    QueryRequest,
    Receipt,
    ShardUpload,
    StatsRequest,
    TenantKey,
    error_response,
    parse_request_line,
)
from repro.serve.query import TenantEstimate, snapshot_estimate
from repro.serve.worker import AbsorbResult, EstimatorWorker

if TYPE_CHECKING:  # pragma: no cover - repro.obs.health loads only with health on
    from repro.obs.health import AlertEvent, EstimatorHealthMonitor

__all__ = ["ServiceConfig", "TenantStats", "IngestionService"]

#: The retry hint a deferred upload carries.
RETRY_AFTER_S = 0.5

#: The backlog SLO: a tenant whose unabsorbed shards exceed this fraction of
#: ``max_backlog`` raises an ``slo-backlog`` alert, judged after every
#: absorbed batch and on every ``backlog-full`` deferral.
SLO_BACKLOG_FRAC = 0.8


@dataclass(frozen=True)
class ServiceConfig:
    """Sizing knobs for one :class:`IngestionService`.

    ``flush_interval_s=None`` disables the age trigger entirely — batches
    release on count alone (plus the end-of-stream drain), which is the
    fully deterministic mode the tests and benchmarks use.  ``max_backlog``
    caps each tenant's unabsorbed shards (buffered + queued); beyond it,
    uploads defer.  ``health`` attaches an
    :class:`~repro.obs.health.EstimatorHealthMonitor` to every tenant's
    estimator (drift detection, CI-calibration audit, the backlog SLO) —
    purely observational, so estimates stay bit-identical with it on or off.
    """

    n_workers: int = 1
    max_batch: int = 8
    flush_interval_s: Optional[float] = None
    max_backlog: int = 256
    health: bool = False

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ServeError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.max_backlog < 1:
            raise ServeError(f"max_backlog must be >= 1, got {self.max_backlog}")
        if self.flush_interval_s is not None and self.flush_interval_s <= 0:
            raise ServeError(
                f"flush_interval_s must be positive or None, got {self.flush_interval_s}"
            )


@dataclass
class TenantStats:
    """Always-on per-tenant ingest tallies (plain ints, no obs dependency)."""

    accepted: int = 0
    deferred: int = 0
    samples: int = 0
    batches: int = 0


@dataclass
class _Registration:
    worker: int
    budget: Optional[SampleBudget]
    accepted_counts: dict[str, int] = field(default_factory=dict)
    in_flight: int = 0
    # Health monitoring (None when ServiceConfig.health is off).
    monitor: Optional[EstimatorHealthMonitor] = None
    latencies_s: list = field(default_factory=list)
    backlog_breached: bool = False


class IngestionService:
    """Routes, batches and absorbs a fleet's timing shards.  See module doc."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.config = config or ServiceConfig()
        self._clock = clock
        self._workers = [
            EstimatorWorker(i, clock) for i in range(self.config.n_workers)
        ]
        self._queues: list[asyncio.Queue] = []
        self._tasks: list[asyncio.Task] = []
        self._flusher: Optional[asyncio.Task] = None
        self._batcher = MicroBatcher(self.config.max_batch)
        self._registry: dict[TenantKey, _Registration] = {}
        self._tenant_stats: dict[TenantKey, TenantStats] = {}
        self._latencies: list[float] = []
        self._rejected = 0
        self._queries = 0
        self._started = False
        self._started_at: Optional[float] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Spawn the worker tasks (and the flusher, if age-flushing is on)."""
        if self._started:
            raise ServeError("service already started")
        self._queues = [asyncio.Queue() for _ in self._workers]
        self._tasks = [
            asyncio.create_task(self._worker_loop(worker, queue))
            for worker, queue in zip(self._workers, self._queues)
        ]
        if self.config.flush_interval_s is not None:
            self._flusher = asyncio.create_task(self._flush_loop())
        self._started = True
        if self._started_at is None:
            self._started_at = self._clock()

    async def stop(self) -> None:
        """Drain everything, then tear the tasks down."""
        if not self._started:
            return
        await self.drain()
        if self._flusher is not None:
            self._flusher.cancel()
            try:
                await self._flusher
            except asyncio.CancelledError:
                pass
            self._flusher = None
        for queue in self._queues:
            queue.put_nowait(None)
        await asyncio.gather(*self._tasks)
        self._tasks = []
        self._queues = []
        self._started = False

    async def __aenter__(self) -> "IngestionService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- tenants ------------------------------------------------------------

    def register_tenant(
        self,
        deployment_id: str,
        program_version: str,
        program: Program,
        platform: Platform,
        options: Optional[OnlineOptions] = None,
        layout: Optional[ProgramLayout] = None,
        truth: Optional[Mapping[str, Sequence[float]]] = None,
    ) -> TenantKey:
        """Open an estimator stream for one ``(deployment, version)`` pair.

        When the service runs with :attr:`ServiceConfig.health`, each tenant
        gets its own :class:`~repro.obs.health.EstimatorHealthMonitor`;
        ``truth`` (per-procedure ground-truth branch probabilities, known for
        simulated fleets) additionally enables the CI-calibration audit.
        """
        tenant = TenantKey(deployment_id, program_version)
        if tenant in self._registry:
            raise ServeError(f"tenant {tenant} already registered")
        opts = options or OnlineOptions()
        monitor = None
        if self.config.health:
            from repro.obs.health import EstimatorHealthMonitor

            monitor = EstimatorHealthMonitor(
                source=str(tenant), truth=truth, clock=self._clock
            )
        # Round robin in registration order: tenants spread evenly over the
        # workers, and a tenant keeps its worker for the service's life.
        worker = len(self._registry) % self.config.n_workers
        self._registry[tenant] = _Registration(
            worker=worker, budget=opts.budget, monitor=monitor
        )
        self._tenant_stats[tenant] = TenantStats()
        estimator = self._workers[worker].adopt(
            tenant, program, platform, options=opts, layout=layout
        )
        if monitor is not None:
            estimator.attach_health(monitor)
        obs.inc("serve.tenants_registered")
        return tenant

    @property
    def tenants(self) -> tuple[TenantKey, ...]:
        return tuple(sorted(self._registry))

    def _registration(self, tenant: TenantKey) -> _Registration:
        registration = self._registry.get(tenant)
        if registration is None:
            raise ProtocolError("unknown-tenant", f"no tenant {tenant} registered")
        return registration

    # -- ingest hot path ----------------------------------------------------

    async def submit(self, upload: ShardUpload) -> Receipt:
        """Accept or defer one shard; never blocks on absorption.

        Raises :class:`~repro.errors.ProtocolError` (``unknown-tenant``)
        for unregistered tenants — a routing failure, not a receipt.
        """
        self._require_started()
        tenant = upload.tenant
        registration = self._registration(tenant)
        stats = self._tenant_stats[tenant]
        with obs.span(
            "serve.ingest",
            tenant=str(tenant),
            mote=upload.mote_id,
            seq=upload.seq,
            causal=upload.causal_id,
        ):
            budget = registration.budget
            if budget is not None and budget.exhausted(registration.accepted_counts):
                return self._defer(tenant, stats, "budget-exhausted")
            if registration.in_flight >= self.config.max_backlog:
                if registration.monitor is not None:
                    self._check_backlog(tenant, registration)
                return self._defer(tenant, stats, "backlog-full")
            for name, xs in upload.samples.items():
                registration.accepted_counts[name] = registration.accepted_counts.get(
                    name, 0
                ) + int(xs.size)
            registration.in_flight += 1
            stats.accepted += 1
            stats.samples += upload.n_samples
            obs.inc("serve.shards_accepted")
            obs.inc(f"serve.tenant.{tenant}.accepted")
            batch = self._batcher.add(upload, self._clock())
        if batch is not None:
            self._enqueue(tenant, batch)
            # Yield once so the owning worker can start on the batch now
            # rather than after the submit burst — keeps ingest latency
            # honest and the backlog bounded under sustained load.
            await asyncio.sleep(0)
        return Receipt(
            status="accepted", tenant=tenant, pending=registration.in_flight
        )

    def _defer(self, tenant: TenantKey, stats: TenantStats, reason: str) -> Receipt:
        stats.deferred += 1
        obs.inc("serve.shards_deferred")
        obs.inc(f"serve.tenant.{tenant}.deferred")
        return Receipt(
            status="deferred",
            tenant=tenant,
            pending=self._registry[tenant].in_flight,
            reason=reason,
            retry_after_s=RETRY_AFTER_S,
        )

    def _enqueue(self, tenant: TenantKey, batch) -> None:
        self._queues[self._registry[tenant].worker].put_nowait((tenant, batch))

    async def _worker_loop(self, worker: EstimatorWorker, queue: asyncio.Queue) -> None:
        while True:
            job = await queue.get()
            try:
                if job is None:
                    return
                tenant, batch = job
                self._record(worker.absorb(tenant, batch))
            finally:
                queue.task_done()

    def _record(self, result: AbsorbResult) -> None:
        registration = self._registry[result.tenant]
        registration.in_flight -= result.n_shards
        stats = self._tenant_stats[result.tenant]
        stats.batches += 1
        self._latencies.extend(result.latencies_s)
        registration.latencies_s.extend(result.latencies_s)
        if registration.monitor is not None:
            self._check_backlog(result.tenant, registration)

    def _check_backlog(self, tenant: TenantKey, registration: _Registration) -> None:
        """Evaluate the tenant's backlog SLO; emit an edge-triggered alert.

        Runs after every absorbed batch (drift/coverage checks already ran
        inside the estimator's absorb) and on every ``backlog-full``
        deferral, where the backlog is full and so over the threshold.  The
        SLO alerts once per breach episode: an absorbed batch that leaves
        the backlog at or under the threshold re-arms it.
        """
        monitor = registration.monitor
        assert monitor is not None
        frac = registration.in_flight / self.config.max_backlog
        breached = frac > SLO_BACKLOG_FRAC
        if breached and not registration.backlog_breached:
            monitor.emit(
                "slo-backlog",
                "critical",
                value=frac,
                threshold=SLO_BACKLOG_FRAC,
                detail=f"slo-backlog breached for {tenant}",
            )
        registration.backlog_breached = breached

    def _slo_state(self, tenant: TenantKey, registration: _Registration) -> dict:
        """The tenant's live SLO readout for the stats/health embeds."""
        stats = self._tenant_stats[tenant]
        total = stats.accepted + stats.deferred
        state: dict = {
            "state": "breached" if registration.backlog_breached else "ok",
            "backlog_frac": registration.in_flight / self.config.max_backlog,
            "deferral_rate": stats.deferred / total if total else 0.0,
        }
        if registration.latencies_s:
            lat = np.asarray(registration.latencies_s, dtype=float) * 1e3
            state["p99_ms"] = float(np.percentile(lat, 99))
        return state

    async def _flush_loop(self) -> None:
        interval = self.config.flush_interval_s
        assert interval is not None
        while True:
            await asyncio.sleep(interval)
            for tenant, batch in self._batcher.take_aged(self._clock(), interval):
                self._enqueue(tenant, batch)

    async def drain(self) -> None:
        """Flush every buffered shard and wait for all absorption to finish."""
        self._require_started()
        for tenant, batch in self._batcher.take_all():
            self._enqueue(tenant, batch)
        await asyncio.gather(*(queue.join() for queue in self._queues))

    def _require_started(self) -> None:
        if not self._started:
            raise ServeError("service not started (use `async with` or start())")

    # -- queries / stats ----------------------------------------------------

    def query(
        self, tenant: TenantKey, trace_id: Optional[str] = None
    ) -> TenantEstimate:
        """The tenant's estimate as of the last absorbed batch."""
        registration = self._registration(tenant)
        self._queries += 1
        attrs = {"tenant": str(tenant)}
        if trace_id is not None:
            attrs["causal"] = trace_id
        with obs.span("serve.query", **attrs):
            estimator = self._workers[registration.worker].estimator(tenant)
            in_flight = registration.in_flight
            snapshot = snapshot_estimate(
                tenant,
                estimator,
                shards_absorbed=self._tenant_stats[tenant].accepted - in_flight,
                pending=in_flight,
            )
        obs.inc("serve.queries")
        return snapshot

    def health_monitors(self) -> dict[str, EstimatorHealthMonitor]:
        """Per-tenant health monitors, tenant-sorted (empty when health is off)."""
        return {
            str(tenant): registration.monitor
            for tenant, registration in sorted(self._registry.items())
            if registration.monitor is not None
        }

    def alert_events(self) -> list[AlertEvent]:
        """Every health alert emitted so far, tenant-sorted then in emit order."""
        events: list[AlertEvent] = []
        for monitor in self.health_monitors().values():
            events.extend(monitor.alerts)
        return events

    def count_rejected(self) -> None:
        """Tally one structurally rejected request (protocol violation)."""
        self._rejected += 1
        obs.inc("serve.shards_rejected")

    def latency_percentiles(self) -> dict[str, float]:
        """Ingest latency (submit → absorbed) percentiles over all shards."""
        if not self._latencies:
            return {"p50_ms": 0.0, "p90_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0}
        lat = np.asarray(self._latencies, dtype=float) * 1e3
        return {
            "p50_ms": float(np.percentile(lat, 50)),
            "p90_ms": float(np.percentile(lat, 90)),
            "p99_ms": float(np.percentile(lat, 99)),
            "max_ms": float(lat.max()),
        }

    def stats_payload(self) -> dict:
        """The ``stats`` wire response (also the metrics-file serve embed)."""
        tenants = {}
        for tenant in sorted(self._tenant_stats):
            stats = self._tenant_stats[tenant]
            tenants[str(tenant)] = {
                "accepted": stats.accepted,
                "deferred": stats.deferred,
                "samples": stats.samples,
                "batches": stats.batches,
            }
        totals = {
            "accepted": sum(s.accepted for s in self._tenant_stats.values()),
            "deferred": sum(s.deferred for s in self._tenant_stats.values()),
            "rejected": self._rejected,
            "samples": sum(s.samples for s in self._tenant_stats.values()),
            "batches": sum(s.batches for s in self._tenant_stats.values()),
            "queries": self._queries,
        }
        payload = {
            "op": "stats",
            "schema": PROTOCOL_VERSION,
            "workers": self.config.n_workers,
            "uptime_s": (
                0.0
                if self._started_at is None
                else max(self._clock() - self._started_at, 0.0)
            ),
            "totals": totals,
            "tenants": tenants,
            "latency": self.latency_percentiles(),
        }
        health = {}
        for tenant in sorted(self._registry):
            registration = self._registry[tenant]
            if registration.monitor is None:
                continue
            summary = registration.monitor.summary()
            summary["slo"] = self._slo_state(tenant, registration)
            health[str(tenant)] = summary
        if health:
            payload["health"] = health
        return payload

    # -- wire protocol ------------------------------------------------------

    async def handle_line(self, line: str) -> dict:
        """Serve one JSONL request; every outcome is a JSON-able response."""
        try:
            request = parse_request_line(line)
        except ProtocolError as exc:
            self.count_rejected()
            return error_response(exc)
        try:
            if isinstance(request, ShardUpload):
                return (await self.submit(request)).to_json()
            if isinstance(request, QueryRequest):
                return self.query(request.tenant, trace_id=request.trace_id).to_json()
            assert isinstance(request, StatsRequest)
            return self.stats_payload()
        except ProtocolError as exc:
            self.count_rejected()
            return error_response(exc)
