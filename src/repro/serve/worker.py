"""Estimator workers: the absorption half of the ingestion service.

Each worker owns the :class:`~repro.core.online.OnlineEstimator` instances
of the tenants routed to it and does exactly one thing with them: absorb
released micro-batches via
:meth:`~repro.core.online.OnlineEstimator.absorb_batch` (one warm-started
EM sweep per batch).  Everything stateful about a tenant lives in its
estimator, and each tenant's batches reach its one worker in submit order,
which is why worker topology is invisible in the output.

Workers are plain synchronous objects; the service's asyncio loop decides
*when* they run.  That keeps every absorption observable (``serve.absorb``
spans, per-batch latency histograms) and testable without an event loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro import obs
from repro.core.online import OnlineEstimator, OnlineOptions, ShardEstimate
from repro.errors import ServeError
from repro.ir.program import Program
from repro.mote.platform import Platform
from repro.placement.layout import ProgramLayout
from repro.serve.batcher import PendingShard
from repro.serve.protocol import TenantKey

__all__ = ["AbsorbResult", "EstimatorWorker"]


@dataclass(frozen=True)
class AbsorbResult:
    """What one micro-batch absorption produced."""

    tenant: TenantKey
    point: ShardEstimate
    n_shards: int
    n_samples: int
    latencies_s: tuple[float, ...]  # submit -> absorbed, per shard in the batch


class EstimatorWorker:
    """Owns per-tenant estimators and absorbs their micro-batches."""

    def __init__(
        self, index: int, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.index = index
        self._clock = clock
        self._estimators: dict[TenantKey, OnlineEstimator] = {}

    # -- tenant lifecycle ---------------------------------------------------

    def adopt(
        self,
        tenant: TenantKey,
        program: Program,
        platform: Platform,
        options: Optional[OnlineOptions] = None,
        layout: Optional[ProgramLayout] = None,
    ) -> OnlineEstimator:
        """Start serving ``tenant`` here with a fresh estimator."""
        if tenant in self._estimators:
            raise ServeError(f"worker {self.index} already serves {tenant}")
        estimator = OnlineEstimator(program, platform, options=options, layout=layout)
        self._estimators[tenant] = estimator
        return estimator

    def estimator(self, tenant: TenantKey) -> OnlineEstimator:
        estimator = self._estimators.get(tenant)
        if estimator is None:
            raise ServeError(f"worker {self.index} does not serve {tenant}")
        return estimator

    # -- absorption ---------------------------------------------------------

    def absorb(self, tenant: TenantKey, batch: list[PendingShard]) -> AbsorbResult:
        """Fold one released micro-batch into ``tenant``'s estimator.

        One :meth:`~repro.core.online.OnlineEstimator.absorb_batch` call —
        i.e. one EM sweep — regardless of batch size; the ``serve.absorb``
        span and the ``serve.absorb_latency_s`` histogram carry the cost.
        """
        estimator = self.estimator(tenant)
        if not batch:
            raise ServeError(f"empty micro-batch for {tenant}")
        shards = [pending.upload.samples for pending in batch]
        n_samples = sum(pending.upload.n_samples for pending in batch)
        with obs.span(
            "serve.absorb",
            tenant=str(tenant),
            worker=self.index,
            shards=len(batch),
            samples=n_samples,
            causal=[pending.upload.causal_id for pending in batch],
        ) as handle:
            point = estimator.absorb_batch(shards)
            handle.set(em_iterations=point.em_iterations, converged=point.converged)
        done = self._clock()
        latencies = tuple(done - pending.submitted_at for pending in batch)
        obs.inc("serve.batches_absorbed")
        obs.observe("serve.batch_size", float(len(batch)))
        for latency in latencies:
            obs.observe("serve.absorb_latency_s", latency)
        return AbsorbResult(
            tenant=tenant,
            point=point,
            n_shards=len(batch),
            n_samples=n_samples,
            latencies_s=latencies,
        )
