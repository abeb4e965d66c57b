"""``repro.serve`` ingest as a benchmark workload.

The fleet and service are ``benchmarks/bench_serve.py``'s quick-size
shape with six tenants instead of two, one per registered program: 50
motes per tenant, 4 shard rounds, 2 samples per procedure per shard, and
``ServiceConfig(n_workers=2, max_batch=64)``, whose batches release on
count only (no age flush).  Each tenant's 200 shards therefore absorb as
three warm-started 64-shard refits plus the drain's 8, over a growing
sample.  One client submits the 1200 pre-generated uploads back to back,
each submit awaited before the next (a closed loop with one request
outstanding), then drains.  The measured window runs from the first submit
to the end of the drain.

Every tenant's shard stream is fixed: it is ``loadgen.build_uploads`` of
that fleet at seed 2015, the experiments' seed and the fleet's own (pools
from one profiled run per program, the ground truth that run's, shards
dealt from the pools).  The benchmark seed draws only the arrival order: a
random interleaving of the six tenants' streams that keeps each stream's
own order.  Batches release per tenant on count, so every tenant absorbs
the same batches at every seed and EM does the same work; the seed moves
which tenant's refit runs when, and so the queue waits.  Streams dealt
per seed would move the estimation problem itself: over dealing seeds 1-6
EM ran 730-820 iterations and 73-108 path re-enumerations (814 and 92 at
seed 2015), so a timing gate could not tell code from data.

The service absorbs inline on its only event loop, so a submit that
releases a batch returns after that batch's EM refit: the submit times
carry the absorb cost, and their sum plus the drain is the window.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

import numpy as np

from common import (
    PLATFORM,
    Scored,
    place_and_evaluate,
    quality,
    same_thetas,
    theta_problems,
    untimed,
)
from repro import obs
from repro.core.online import OnlineEstimator
from repro.serve.loadgen import build_uploads, default_fleet, tenant_truth
from repro.serve.protocol import ShardUpload
from repro.serve.service import IngestionService, ServiceConfig
from repro.util.rng import derive_rng
from repro.workloads.registry import workload_by_name

__all__ = ["Workload"]

#: ``bench_serve``'s service: batches of 64 shards, released on count only.
CONFIG = ServiceConfig(n_workers=2, max_batch=64)


@dataclass
class IngestOutcome:
    """What one ingest pass produced."""

    receipts: list
    estimates: dict
    stats: dict
    latency: dict


class Workload:
    """``serve-ingest``: one pass = every upload submitted, then a drain."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # bench_serve's quick fleet; six tenants, four shard rounds and seed
        # 2015 are default_fleet's defaults.
        self.fleet = default_fleet(n_motes=50, samples_per_proc=2)
        started = time.perf_counter()
        self.programs = {
            spec.tenant: workload_by_name(spec.workload).program()
            for spec in self.fleet.tenants
        }
        compiled = time.perf_counter()
        self.uploads = self._arrivals()
        self.truth = {spec.tenant: tenant_truth(self.fleet, spec) for spec in self.fleet.tenants}
        generated = time.perf_counter()
        self._service = self._registered_service()
        self.setup_seconds = {
            "lang.compile_s": compiled - started,
            "serve.loadgen_s": generated - compiled,
        }

    def _arrivals(self) -> list[ShardUpload]:
        """The tenants' fixed shard streams, interleaved in a seed-drawn order."""
        streams: dict = {}
        for upload in build_uploads(self.fleet):
            streams.setdefault(upload.tenant, []).append(upload)
        # Shuffling one slot per upload gives every interleaving that keeps
        # each stream's own order.
        slots = [tenant for tenant, stream in streams.items() for _ in stream]
        derive_rng(self.seed, "pipebench", "arrivals").shuffle(slots)
        pending = {tenant: iter(stream) for tenant, stream in streams.items()}
        return [next(pending[tenant]) for tenant in slots]

    def _registered_service(self) -> IngestionService:
        service = IngestionService(CONFIG)
        for spec in self.fleet.tenants:
            service.register_tenant(
                spec.deployment_id,
                spec.program_version,
                self.programs[spec.tenant],
                PLATFORM,
                options=spec.options(),
            )
        return service

    def run_pass(self, timed) -> IngestOutcome:
        """One timed pass on a freshly registered service."""
        service, self._service = self._service, None
        try:
            return asyncio.run(self._ingest(service, timed))
        finally:
            # Register the next pass's service outside its window.
            self._service = self._registered_service()

    async def _ingest(self, service: IngestionService, timed) -> IngestOutcome:
        await service.start()
        try:
            receipts = []
            with obs.span("bench.window"):
                for upload in self.uploads:
                    with timed("bench.serve.submit"):
                        receipts.append(await service.submit(upload))
                with timed("bench.serve.drain"):
                    await service.drain()
            estimates = {tenant: service.query(tenant) for tenant in service.tenants}
            return IngestOutcome(
                receipts=receipts,
                estimates=estimates,
                stats=service.stats_payload(),
                latency=service.latency_percentiles(),
            )
        finally:
            await service.stop()

    def quality(self, outcome: IngestOutcome) -> dict[str, float]:
        """Exact metrics: served-estimate accuracy, and what it buys placed."""
        scored = []
        for spec in self.fleet.tenants:
            thetas = outcome.estimates[spec.tenant].thetas
            rom_bytes, counters = place_and_evaluate(
                self.programs[spec.tenant],
                thetas,
                workload_by_name(spec.workload).channels,
                self.seed,
                untimed,
            )
            scored.append(
                Scored(spec.workload, thetas, self.truth[spec.tenant], rom_bytes, counters)
            )
        return quality(scored)

    def work(self, outcome: IngestOutcome) -> tuple[int, int]:
        """``(attempted, failed)``: shards sent, and those deferred, rejected
        or still unabsorbed at drain."""
        totals = outcome.stats["totals"]
        pending = sum(est.pending for est in outcome.estimates.values())
        sent = len(self.uploads)
        absorbed_ok = totals["accepted"] - pending
        return sent, sent - absorbed_ok + totals["rejected"]

    def layer_counts(self, outcome: IngestOutcome) -> dict[str, float]:
        """Per-layer counts the trace does not carry."""
        totals = outcome.stats["totals"]
        pooled: dict = {}
        for upload in self.uploads:
            for name, xs in upload.samples.items():
                pooled.setdefault((upload.tenant, name), []).append(xs)
        n_samples = sum(xs.size for parts in pooled.values() for xs in parts)
        distinct = sum(np.unique(np.concatenate(parts)).size for parts in pooled.values())
        return {
            "profiling.samples": n_samples,
            "profiling.distinct_duration_frac": distinct / n_samples,
            "serve.batches": totals["batches"],
            "serve.shards_per_batch": totals["accepted"] / totals["batches"],
            "serve.deferred": totals["deferred"],
            "serve.queue_wait_p50_ms": outcome.latency["p50_ms"],
            "serve.queue_wait_p90_ms": outcome.latency["p90_ms"],
        }

    def report(self, outcome: IngestOutcome, loop_s: float) -> list[str]:
        """Human-readable lines describing one pass's work."""
        return [
            f"tenants: {len(self.fleet.tenants)} ({', '.join(s.workload for s in self.fleet.tenants)}); "
            f"uploads={len(self.uploads)}; max_batch={CONFIG.max_batch}; "
            f"workers={CONFIG.n_workers}; batches={outcome.stats['totals']['batches']}",
            f"ingest_shards_per_s {len(self.uploads) / loop_s!r} 1/s (uploads over loop_s)",
        ]

    def check(self, passes: list[IngestOutcome]) -> list[str]:
        """Correctness problems in the passes' outputs (empty when correct)."""
        problems = []
        first = passes[0]
        for receipt in first.receipts:
            if receipt.status != "accepted":
                problems.append(f"{receipt.tenant}: upload {receipt.status} ({receipt.reason})")
                break
        sent = {spec.tenant: 0 for spec in self.fleet.tenants}
        for upload in self.uploads:
            sent[upload.tenant] += upload.n_samples
        for tenant, estimate in first.estimates.items():
            if estimate.pending != 0:
                problems.append(f"{tenant}: {estimate.pending} shard(s) unabsorbed at drain")
            if estimate.total_samples != sent[tenant]:
                problems.append(
                    f"{tenant}: absorbed {estimate.total_samples} samples, sent {sent[tenant]}"
                )
            problems.extend(theta_problems(str(tenant), estimate.thetas))
        for index, later in enumerate(passes[1:], start=2):
            for tenant, estimate in first.estimates.items():
                if not same_thetas(estimate.thetas, later.estimates[tenant].thetas):
                    problems.append(f"{tenant}: pass {index} differs from pass 1")
        problems.extend(self._check_replay(first))
        return problems

    def _check_replay(self, outcome: IngestOutcome) -> list[str]:
        """Served estimates must equal the same batches replayed offline."""
        problems = []
        for spec in self.fleet.tenants:
            shards = [u.samples for u in self.uploads if u.tenant == spec.tenant]
            estimator = OnlineEstimator(
                self.programs[spec.tenant], PLATFORM, options=spec.options()
            )
            for start in range(0, len(shards), CONFIG.max_batch):
                estimator.absorb_batch(shards[start : start + CONFIG.max_batch])
            if not same_thetas(estimator.thetas, outcome.estimates[spec.tenant].thetas):
                problems.append(f"{spec.tenant}: served estimate differs from offline replay")
        return problems
