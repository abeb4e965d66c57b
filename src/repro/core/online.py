"""Streaming tomography: warm-started incremental estimation.

The paper's cost axis is *how many timing samples* profiling has to spend
before the estimate is usable.  A batch fit answers that only in hindsight;
this module answers it while collecting.  :class:`OnlineEstimator` absorbs
timing observations in **shards** and re-fits after each one — but instead
of re-running EM cold from the 0.5 prior the way
:class:`~repro.core.estimator.CodeTomography` does per call, every re-fit
**warm-starts** EM from the previous shard's theta, shrunk toward 0.5 by
:data:`WARM_PSEUDO_COUNT`.  Each fit enumerates its path family afresh at
that start.

After each shard the estimator records a trajectory point
(:class:`ShardEstimate`): per-procedure theta, Wald CI half-widths derived
from EM's responsibility-weighted arm counts, and cumulative sample counts.
The **convergence policy** stops collection when every measured procedure's
CI half-widths drop below ``epsilon``, or when the
:class:`~repro.profiling.budget.SampleBudget` is exhausted — whichever
comes first (procedures with *no* samples yet are excluded from the CI
criterion: they are unobservable, and the budget governs them).

Everything here is deterministic: EM uses no RNG, so the trajectory is a
pure function of the shard sequence.  That is why the streaming
experiments (F2, F9) are byte-identical at any ``--jobs``: each streams one
workload's shards through one estimator inside one engine unit, and a
unit's shards come from its own profiled run, seeded by the experiment
config rather than by the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.errors import EstimationError
from repro.core.em import EMEstimator
from repro.ir.program import Program
from repro.markov.moments import RewardMoments
from repro.mote.platform import Platform
from repro.placement.layout import ProgramLayout
from repro.profiling.budget import SampleBudget
from repro.profiling.timing_profiler import TimingDataset
from repro.sim.timing import ProgramTimingModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.health import EstimatorHealthMonitor

__all__ = [
    "OnlineOptions",
    "ShardEstimate",
    "OnlineEstimator",
    "dataset_shards",
    "merge_shards",
]

#: Two-sided 95% normal quantile: the Wald CI half-width multiplier.
CI_Z = 1.959963984540054

#: A parameter with zero effective arm counts gets the honest half-width.
_FULL_HALF_WIDTH = 0.5

#: Pseudo-count ``n0`` that shrinks each warm start toward the uninformative
#: 0.5 prior in proportion to how little data the previous iterate was fit
#: on: ``theta0 = (n_prev·theta_prev + n0·0.5) / (n_prev + n0)``.  Early
#: shards are small, and EM iterates fit on 50 samples can land at extremes
#: that poison every subsequent warm re-fit; the shrinkage washes out
#: exactly when the accumulated evidence (``n_prev``) dwarfs ``n0``.  Zero
#: would disable shrinkage (raw previous iterate).
WARM_PSEUDO_COUNT = 100.0


@dataclass(frozen=True)
class OnlineOptions:
    """The stopping policy of one streaming estimation run.

    ``epsilon=None`` disables the CI stopping criterion (the trajectory is
    still tracked); ``budget=None`` disables the budget criterion.
    """

    epsilon: Optional[float] = 0.02
    budget: Optional[SampleBudget] = None

    def __post_init__(self) -> None:
        if self.epsilon is not None and not 0.0 < self.epsilon < 1.0:
            raise EstimationError(f"epsilon must lie in (0, 1), got {self.epsilon}")


@dataclass(frozen=True)
class ShardEstimate:
    """One trajectory point: the estimate's state after absorbing a shard."""

    shard_index: int
    n_samples: dict[str, int]
    total_samples: int
    thetas: dict[str, np.ndarray]
    half_widths: dict[str, np.ndarray]
    em_iterations: int
    converged: bool
    budget_exhausted: bool

    @property
    def should_stop(self) -> bool:
        """The convergence policy's verdict after this shard."""
        return self.converged or self.budget_exhausted

    @property
    def max_half_width(self) -> float:
        """Widest CI half-width over *measured* parametered procedures."""
        widths = [
            float(hw.max())
            for name, hw in self.half_widths.items()
            if hw.size and self.n_samples.get(name, 0) > 0
        ]
        return max(widths) if widths else 0.0


class OnlineEstimator:
    """Absorbs timing shards and re-fits the whole program incrementally."""

    def __init__(
        self,
        program: Program,
        platform: Platform,
        options: Optional[OnlineOptions] = None,
        layout: Optional[ProgramLayout] = None,
    ) -> None:
        self.program = program
        self.platform = platform
        self.options = options or OnlineOptions()
        self.layout = layout or ProgramLayout.source_order(program)
        self._timing = ProgramTimingModel(program, platform, self.layout)
        self._samples: dict[str, np.ndarray] = {}
        self._theta: dict[str, np.ndarray] = {}
        self._half_width: dict[str, np.ndarray] = {}
        self._trajectory: list[ShardEstimate] = []
        # Health attachment (observational only — never feeds back into the
        # fit, so trajectories are identical with or without a monitor).
        self._health: Optional["EstimatorHealthMonitor"] = None
        self._moments: dict[str, RewardMoments] = {}
        self._arm_counts: dict[str, np.ndarray] = {}

    # -- health -------------------------------------------------------------

    def attach_health(
        self, monitor: "EstimatorHealthMonitor"
    ) -> "EstimatorHealthMonitor":
        """Attach an :class:`~repro.obs.health.EstimatorHealthMonitor`.

        The monitor observes every subsequent :meth:`absorb`: pre-refit
        innovation signals (shard means vs. the previous iterate's predicted
        moments) feed its drift detectors, and the post-refit point feeds
        its coverage audit and staleness clock.
        """
        self._health = monitor
        return monitor

    @property
    def health(self) -> Optional["EstimatorHealthMonitor"]:
        return self._health

    # -- absorbing shards ---------------------------------------------------

    def absorb(
        self, shard: Union[TimingDataset, Mapping[str, Sequence[float]]]
    ) -> ShardEstimate:
        """Fold one shard of observations in and re-fit; returns the point.

        Absorbing past the stop verdict is allowed (more data never hurts);
        ``should_stop`` is the *policy's* advice, enforced by the caller's
        collection loop.
        """
        return self._absorb(shard, n_shards=1)

    def _absorb(
        self,
        shard: Union[TimingDataset, Mapping[str, Sequence[float]]],
        n_shards: int,
    ) -> ShardEstimate:
        """Absorb ``shard``, which merges ``n_shards`` shards, as one point."""
        data = shard.samples if isinstance(shard, TimingDataset) else shard
        arrays = {
            name: np.asarray(xs, dtype=float).copy()
            for name, xs in data.items()
            if len(xs)
        }
        index = len(self._trajectory)
        signals: dict[str, float] = {}
        if self._health is not None and self._moments:
            # Innovations against the *previous* iterate's predictions, before
            # this shard touches the fit — the drift detectors' input.
            from repro.obs.health import residual_signals

            signals = residual_signals(self._moments, arrays)
        prev_counts = {name: int(xs.size) for name, xs in self._samples.items()}
        for name, xs in arrays.items():
            held = self._samples.get(name)
            self._samples[name] = xs if held is None else np.concatenate([held, xs])
        with obs.span(
            "estimate.online.shard",
            shard=index,
            samples=int(sum(a.size for a in arrays.values())),
        ) as span_handle:
            point = self._refit(index, prev_counts)
            span_handle.set(
                em_iterations=point.em_iterations, converged=point.converged
            )
        obs.inc("online.shards")
        obs.inc("online.em_iterations", point.em_iterations)
        self._trajectory.append(point)
        if self._health is not None:
            self._health.observe_absorb(
                point, signals=signals, arm_counts=self._arm_counts, shards=n_shards
            )
        return point

    def absorb_batch(
        self, shards: Sequence[Union[TimingDataset, Mapping[str, Sequence[float]]]]
    ) -> ShardEstimate:
        """Fold several shards in with **one** re-fit (micro-batching).

        The shards are merged in argument order (per-procedure arrays
        concatenate), then absorbed as a single shard, so the cost is one
        warm-started EM sweep per batch instead of one per shard.  This is
        the primitive the ingestion service's batcher leans on: the merged
        estimate is a pure function of the shard sequence and the batch
        boundaries, so identical batching yields bit-identical trajectories
        at any worker count.  An empty batch raises — a flush with nothing
        to flush is a scheduling bug, not a no-op.
        """
        if not shards:
            raise EstimationError("absorb_batch needs at least one shard")
        return self._absorb(merge_shards(shards), n_shards=len(shards))

    def _refit(
        self, shard_index: int, prev_counts: Mapping[str, int]
    ) -> ShardEstimate:
        """One warm-started bottom-up sweep over the call graph.

        ``prev_counts`` holds per-procedure sample counts *before* this
        shard — the evidence behind the previous iterate, which sets the
        warm-start shrinkage weight.
        """
        callee_moments: dict[str, RewardMoments] = {}
        arm_counts: dict[str, np.ndarray] = {}
        em_iterations = 0
        for proc in self.program.topological_procedures():
            name = proc.name
            model = self._timing.procedure_model(name, callee_moments)
            k = model.n_parameters
            if k == 0:
                theta = np.empty(0)
                self._theta[name] = theta
                self._half_width[name] = np.empty(0)
                callee_moments[name] = model.moments(theta)
                continue
            ys = self._samples.get(name)
            if ys is None or ys.size == 0:
                theta = np.full(k, 0.5)
                self._theta[name] = theta
                self._half_width[name] = np.full(k, _FULL_HALF_WIDTH)
                callee_moments[name] = model.moments(theta)
                continue
            theta0 = self._theta.get(name)
            if theta0 is not None and theta0.shape != (k,):
                theta0 = None
            if theta0 is not None:
                n_prev = float(prev_counts.get(name, 0))
                n0 = WARM_PSEUDO_COUNT
                if n0 > 0.0:
                    theta0 = (n_prev * theta0 + n0 * 0.5) / (n_prev + n0)
            em = EMEstimator(model, timer=self.platform.timer)
            result = em.fit(ys, theta0=theta0)
            em_iterations += result.iterations
            self._theta[name] = result.theta
            self._half_width[name] = self._ci_half_width(result.theta, result.arm_counts)
            if result.arm_counts is not None:
                arm_counts[name] = np.asarray(result.arm_counts, dtype=float).copy()
            callee_moments[name] = model.moments(result.theta)
        # Post-refit predictions and effective counts, kept for the health
        # monitor: the next shard's innovations are judged against these.
        self._moments = callee_moments
        self._arm_counts = arm_counts
        return self._trajectory_point(shard_index, em_iterations)

    def _ci_half_width(
        self, theta: np.ndarray, arm_counts: Optional[np.ndarray]
    ) -> np.ndarray:
        """Wald half-width per branch from EM's effective arm counts."""
        if arm_counts is None or arm_counts.shape != theta.shape:
            return np.full(theta.shape, _FULL_HALF_WIDTH)
        width = CI_Z * np.sqrt(
            theta * (1.0 - theta) / np.maximum(arm_counts, 1e-12)
        )
        return np.where(arm_counts > 0, np.minimum(width, _FULL_HALF_WIDTH), _FULL_HALF_WIDTH)

    def _trajectory_point(self, shard_index: int, em_iterations: int) -> ShardEstimate:
        counts = {name: int(xs.size) for name, xs in self._samples.items()}
        converged = False
        if self.options.epsilon is not None:
            measured = [
                hw
                for name, hw in self._half_width.items()
                if hw.size and counts.get(name, 0) > 0
            ]
            converged = bool(measured) and all(
                float(hw.max()) < self.options.epsilon for hw in measured
            )
        budget = self.options.budget
        exhausted = budget.exhausted(counts) if budget is not None else False
        return ShardEstimate(
            shard_index=shard_index,
            n_samples=counts,
            total_samples=sum(counts.values()),
            thetas={name: t.copy() for name, t in self._theta.items()},
            half_widths={name: hw.copy() for name, hw in self._half_width.items()},
            em_iterations=em_iterations,
            converged=converged,
            budget_exhausted=exhausted,
        )

    # -- state inspection ---------------------------------------------------

    @property
    def thetas(self) -> dict[str, np.ndarray]:
        """Current per-procedure estimates (copies)."""
        return {name: t.copy() for name, t in self._theta.items()}

    @property
    def half_widths(self) -> dict[str, np.ndarray]:
        """Current per-procedure CI half-widths (copies)."""
        return {name: hw.copy() for name, hw in self._half_width.items()}

    @property
    def trajectory(self) -> tuple[ShardEstimate, ...]:
        """All trajectory points, in absorb order."""
        return tuple(self._trajectory)

    @property
    def total_samples(self) -> int:
        return sum(xs.size for xs in self._samples.values())

    @property
    def should_stop(self) -> bool:
        """True once the last shard satisfied the convergence policy."""
        return bool(self._trajectory) and self._trajectory[-1].should_stop


def merge_shards(
    shards: Sequence[Union[TimingDataset, Mapping[str, Sequence[float]]]],
) -> dict[str, np.ndarray]:
    """Concatenate shards, in order, into one per-procedure sample dict.

    Order matters and is preserved: two merges of the same shard sequence
    are element-for-element identical, which is what lets the ingestion
    service's micro-batches stay deterministic under any scheduling.
    """
    merged: dict[str, list[np.ndarray]] = {}
    for shard in shards:
        data = shard.samples if isinstance(shard, TimingDataset) else shard
        for name, xs in data.items():
            arr = np.asarray(xs, dtype=float)
            if arr.size:
                merged.setdefault(name, []).append(arr)
    return {name: np.concatenate(chunks) for name, chunks in merged.items()}


def dataset_shards(
    dataset: TimingDataset, boundaries: Sequence[int]
) -> list[TimingDataset]:
    """Split a dataset into per-procedure prefix shards at ``boundaries``.

    ``boundaries`` are strictly increasing cumulative per-procedure sample
    budgets; shard ``i`` carries samples ``boundaries[i-1]:boundaries[i]``
    of every procedure, in collection order.  A procedure with fewer samples
    than a boundary simply stops contributing — nothing is repeated or
    resampled, so feeding the shards to :meth:`OnlineEstimator.absorb` in
    order reproduces the full dataset prefix by prefix.
    """
    shards: list[TimingDataset] = []
    previous = 0
    for bound in boundaries:
        if bound <= previous:
            raise EstimationError(
                f"shard boundaries must be strictly increasing positives, "
                f"got {list(boundaries)}"
            )
        shard: dict[str, np.ndarray] = {}
        for name, xs in dataset.samples.items():
            chunk = xs[previous:bound]
            if chunk.size:
                shard[name] = chunk.copy()
        shards.append(TimingDataset(shard))
        previous = bound
    return shards
