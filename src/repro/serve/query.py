"""The query side: estimate snapshots served back to the fleet.

A query never touches EM — it reads the tenant's
:class:`~repro.core.online.OnlineEstimator` state as of the last absorbed
micro-batch and packages it: per-procedure branch-probability estimates
(theta) with their Wald CI half-widths, cumulative sample counts, and the
convergence policy's current verdict.  Shards still sitting in the batcher
are reported as ``pending`` so a caller can tell "converged" from
"converged, but ten shards haven't been folded in yet".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.online import OnlineEstimator
from repro.serve.protocol import TenantKey

__all__ = ["TenantEstimate", "snapshot_estimate"]


@dataclass(frozen=True)
class TenantEstimate:
    """One tenant's current estimate, as served to ``query`` requests."""

    tenant: TenantKey
    shards_absorbed: int
    pending: int
    total_samples: int
    n_samples: dict[str, int]
    thetas: dict[str, np.ndarray]
    half_widths: dict[str, np.ndarray]
    max_half_width: float
    converged: bool
    budget_exhausted: bool

    def to_json(self) -> dict:
        """The wire form of this snapshot (``op: "estimate"``)."""
        return {
            "op": "estimate",
            "tenant": str(self.tenant),
            "shards_absorbed": self.shards_absorbed,
            "pending": self.pending,
            "total_samples": self.total_samples,
            "n_samples": dict(sorted(self.n_samples.items())),
            "thetas": {
                name: [float(x) for x in theta]
                for name, theta in sorted(self.thetas.items())
            },
            "half_widths": {
                name: [float(x) for x in hw]
                for name, hw in sorted(self.half_widths.items())
            },
            "max_half_width": self.max_half_width,
            "converged": self.converged,
            "budget_exhausted": self.budget_exhausted,
        }


def snapshot_estimate(
    tenant: TenantKey, estimator: OnlineEstimator, shards_absorbed: int, pending: int
) -> TenantEstimate:
    """Read ``estimator``'s current state into a :class:`TenantEstimate`.

    ``shards_absorbed`` and ``pending`` count uploads (the estimator's
    trajectory counts micro-batches), so together they are the tenant's
    accepted shards.  Pure read — no refit, no RNG — so queries are cheap
    and serving them never perturbs the estimate.
    """
    trajectory = estimator.trajectory
    last = trajectory[-1] if trajectory else None
    return TenantEstimate(
        tenant=tenant,
        shards_absorbed=shards_absorbed,
        pending=pending,
        total_samples=estimator.total_samples,
        n_samples=dict(last.n_samples) if last else {},
        thetas=estimator.thetas,
        half_widths=estimator.half_widths,
        max_half_width=last.max_half_width if last else 0.0,
        converged=last.converged if last else False,
        budget_exhausted=last.budget_exhausted if last else False,
    )
