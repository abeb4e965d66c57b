"""Per-tenant micro-batching of accepted shards.

Absorbing one shard costs one warm-started EM sweep
(:meth:`repro.core.online.OnlineEstimator.absorb`); at fleet rates that
sweep must be amortized.  The batcher buffers accepted uploads **per
tenant** and releases them as batches when either trigger fires:

* **count** — a tenant's pending backlog reaches ``max_batch`` (checked on
  every add, so the common high-rate path never waits on a timer), or
* **age** — the oldest pending shard has waited ``flush_interval_s``
  (checked by the service's flusher task, so a trickle-rate tenant still
  sees bounded staleness).

Batch composition is a pure function of each tenant's upload order and
``max_batch``: the batcher holds no clocks and no randomness, which is
what makes service output bit-identical at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ServeError
from repro.serve.protocol import ShardUpload, TenantKey

__all__ = ["PendingShard", "MicroBatcher"]


@dataclass(frozen=True)
class PendingShard:
    """One accepted upload plus its submit timestamp (for ingest latency)."""

    upload: ShardUpload
    submitted_at: float


class MicroBatcher:
    """Order-preserving per-tenant shard buffer with two flush triggers."""

    def __init__(self, max_batch: int) -> None:
        if max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = max_batch
        self._pending: dict[TenantKey, list[PendingShard]] = {}

    def add(
        self, upload: ShardUpload, submitted_at: float
    ) -> Optional[list[PendingShard]]:
        """Buffer one accepted upload; return a full batch if the add filled one."""
        queue = self._pending.setdefault(upload.tenant, [])
        queue.append(PendingShard(upload=upload, submitted_at=submitted_at))
        if len(queue) >= self.max_batch:
            del self._pending[upload.tenant]
            return queue
        return None

    def take_aged(
        self, now: float, flush_interval_s: float
    ) -> list[tuple[TenantKey, list[PendingShard]]]:
        """Release every tenant whose oldest shard has waited long enough."""
        ready = []
        for tenant in sorted(self._pending):
            queue = self._pending[tenant]
            if queue and now - queue[0].submitted_at >= flush_interval_s:
                ready.append((tenant, queue))
        for tenant, _ in ready:
            del self._pending[tenant]
        return ready

    def take_all(self) -> list[tuple[TenantKey, list[PendingShard]]]:
        """Release everything (end-of-stream drain), in tenant order."""
        batches = [(tenant, self._pending[tenant]) for tenant in sorted(self._pending)]
        self._pending.clear()
        return batches
