"""Is the tomography inverse problem well-posed for a given procedure?

Three observed moments constrain at most three parameter directions, so a
procedure with many branches can be *structurally* under-determined from its
own timing alone.  Two further structural traps exist even with few
branches: a branch whose two arms cost the same contributes nothing to any
moment, and symmetric diamonds make ``theta`` and ``1 - theta``
indistinguishable.  This module quantifies all of this through the rank of
the moment map's Jacobian, so the estimator can attach warnings instead of
silently returning a prior-dominated answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.timing import ProcedureTimingModel

__all__ = [
    "IdentifiabilityReport",
    "analyze_identifiability",
    "exchangeable_pairs",
    "practically_invisible_parameters",
]

_RANK_RTOL = 1e-7


@dataclass(frozen=True)
class IdentifiabilityReport:
    """Structural diagnosis of one procedure's estimation problem."""

    procedure: str
    n_parameters: int
    moments_used: int
    jacobian_rank: int
    singular_values: tuple[float, ...]
    insensitive_parameters: tuple[int, ...]
    warnings: tuple[str, ...]

    @property
    def well_posed(self) -> bool:
        """True when every parameter direction is constrained."""
        return self.jacobian_rank >= self.n_parameters


def practically_invisible_parameters(
    model: ProcedureTimingModel,
    noise_variance: float,
    n_samples: int,
    detectability: float = 2.0,
) -> list[int]:
    """Parameters whose full-range effect drowns in measurement noise.

    Structural identifiability (nonzero Jacobian) is necessary but not
    sufficient: a branch whose arms differ by one cycle moves the mean by at
    most one cycle, which a timer with ``noise_variance`` per measurement
    cannot resolve from ``n_samples`` observations.  A parameter is flagged
    when sweeping it across [0.1, 0.9] (others fixed) moves *every* moment
    by less than ``detectability`` standard errors of that moment's
    empirical estimator.

    ``noise_variance`` should come from
    :meth:`repro.mote.timer.TimestampTimer.noise_variance`.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if noise_variance < 0:
        raise ValueError(f"noise_variance must be >= 0, got {noise_variance}")
    k = model.n_parameters
    if k == 0:
        return []
    base = np.full(k, 0.45)
    base_moments = model.moments(base)
    total_var = base_moments.variance + noise_variance
    se_mean = np.sqrt(total_var / n_samples)
    se_var = max(total_var, 1.0) * np.sqrt(2.0 / n_samples)
    se_mu3 = max(np.sqrt(total_var), 1.0) ** 3 * np.sqrt(6.0 / n_samples) * 2.5
    ses = np.array([se_mean, se_var, se_mu3])

    invisible: list[int] = []
    for j in range(k):
        lo, hi = base.copy(), base.copy()
        lo[j], hi[j] = 0.1, 0.9
        delta = np.abs(
            np.array(model.moments(hi).as_tuple()) - np.array(model.moments(lo).as_tuple())
        )
        if np.all(delta < detectability * ses):
            invisible.append(j)
    return invisible


def exchangeable_pairs(
    model: ProcedureTimingModel,
    probes: int = 3,
    rtol: float = 1e-9,
    rng_seed: int = 0,
) -> list[tuple[int, int]]:
    """Detect parameter pairs that are *exchangeable* in the timing model.

    Two branches are exchangeable when swapping their probabilities leaves
    the execution-time distribution unchanged — e.g. two loops with
    identical per-iteration costs.  No timing-only estimator can tell such a
    pair's labels apart; downstream users should treat their estimates as an
    unordered set.  Detection probes the first three moments at a few random
    asymmetric points and declares a pair exchangeable when every probe is
    swap-invariant.
    """
    k = model.n_parameters
    if k < 2:
        return []
    gen = np.random.default_rng(rng_seed)
    points = [gen.uniform(0.15, 0.85, size=k) for _ in range(max(probes, 1))]
    pairs: list[tuple[int, int]] = []
    for i in range(k):
        for j in range(i + 1, k):
            invariant = True
            for point in points:
                if abs(point[i] - point[j]) < 0.05:
                    point = point.copy()
                    point[j] = min(point[j] + 0.2, 0.9)
                swapped = point.copy()
                swapped[i], swapped[j] = swapped[j], swapped[i]
                a = np.array(model.moments(point).as_tuple())
                b = np.array(model.moments(swapped).as_tuple())
                scale = np.maximum(np.abs(a), 1.0)
                if np.any(np.abs(a - b) / scale > rtol):
                    invariant = False
                    break
            if invariant:
                pairs.append((i, j))
    return pairs


def analyze_identifiability(
    model: ProcedureTimingModel, moments_used: int = 3
) -> IdentifiabilityReport:
    """Rank-analyze the moment map's exact Jacobian at theta = 0.45.

    0.45 rather than 0.5 because symmetric diamonds have a *stationary*
    variance at exactly 0.5 — evaluating there would under-report their
    (locally recoverable) sensitivity.
    """
    k = model.n_parameters
    name = model.procedure.name
    if k == 0:
        return IdentifiabilityReport(
            procedure=name,
            n_parameters=0,
            moments_used=moments_used,
            jacobian_rank=0,
            singular_values=(),
            insensitive_parameters=(),
            warnings=(),
        )
    moments, jacobians = model.moments_and_jacobians(np.full((1, k), 0.45))
    scale = np.maximum(np.abs(moments[0, :moments_used]), 1.0)
    normalized = jacobians[0, :moments_used] / scale[:, None]

    singular = np.linalg.svd(normalized, compute_uv=False)
    threshold = (singular[0] if singular.size else 0.0) * _RANK_RTOL
    rank = int(np.sum(singular > max(threshold, 1e-12)))

    column_norms = np.linalg.norm(normalized, axis=0)
    insensitive = tuple(int(j) for j in np.flatnonzero(column_norms < 1e-9))

    warnings: list[str] = []
    if k > moments_used:
        warnings.append(
            f"{name}: {k} branch parameters exceed {moments_used} observed "
            f"moments; the problem is under-determined from this procedure's "
            f"timing alone"
        )
    if rank < min(k, moments_used):
        warnings.append(
            f"{name}: moment Jacobian rank {rank} < min(params, moments) — "
            f"some parameter directions are locally indistinguishable"
        )
    for j in insensitive:
        warnings.append(
            f"{name}: branch {model.branch_labels[j]!r} does not affect any "
            f"observed moment (equal-cost arms); its estimate will follow the prior"
        )
    return IdentifiabilityReport(
        procedure=name,
        n_parameters=k,
        moments_used=moments_used,
        jacobian_rank=rank,
        singular_values=tuple(float(s) for s in singular),
        insensitive_parameters=insensitive,
        warnings=tuple(warnings),
    )
