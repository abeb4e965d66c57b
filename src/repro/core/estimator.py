"""The Code Tomography facade: whole-program estimation.

:class:`CodeTomography` orchestrates the per-procedure estimators over the
program's (acyclic) call graph, bottom-up: leaves are estimated first, their
*estimated* time distributions are folded into their callers' timing models,
and so on to the entry procedure.  That composition is the "tomography" of
the name — every procedure is reconstructed from boundary measurements only,
and the reconstruction of one feeds the model of the next.

Methods:

* ``"moments"`` — moment matching (robust default, scales to any CFG);
* ``"em"``      — path-family EM (sharper on multi-branch procedures when
  the timer is decent, costlier);
* ``"hybrid"``  — moments fit first, then EM refinement from that start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro import obs
from repro.errors import EstimationError
from repro.core.em import MAX_ITERATIONS, EMEstimator
from repro.core.identifiability import analyze_identifiability
from repro.core.moments_fit import (
    fit_moments,
    moment_sample,
    observed_moments,
    robust_filter,
)
from repro.ir.program import Program
from repro.markov.moments import RewardMoments
from repro.mote.platform import Platform
from repro.placement.layout import ProgramLayout
from repro.profiling.timing_profiler import TimingDataset
from repro.sim.timing import ProcedureTimingModel, ProgramTimingModel
from repro.util.rng import RngSource, as_rng

__all__ = [
    "EstimationOptions",
    "ProcedureEstimate",
    "EstimationResult",
    "CodeTomography",
]

_METHODS = ("moments", "em", "hybrid")

#: A robust estimate is flagged ``degraded`` when fewer samples than this
#: survive the fault screen ...
MIN_SAMPLES = 8

#: ... or when the screen rejected at least this fraction of the sample.
DEGRADED_REJECT_FRACTION = 0.25


def _full_width_ci(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The honest interval for an estimate we cannot stand behind."""
    return np.zeros(k), np.ones(k)


def _degradation(opts: "EstimationOptions", name: str, kept: int, rejected: int):
    """Decide whether a robust estimate must be flagged degraded.

    Returns ``(degraded, warning_or_None)``.  Only meaningful in robust
    mode; the classic path never degrades (it has no rejection signal).
    """
    if not opts.robust:
        return False, None
    total = kept + rejected
    if kept < MIN_SAMPLES:
        return True, (
            f"{name}: degraded — only {kept} usable sample(s) after fault "
            f"screening (need {MIN_SAMPLES})"
        )
    if total and rejected / total >= DEGRADED_REJECT_FRACTION:
        return True, (
            f"{name}: degraded — fault screening rejected {rejected}/{total} "
            f"samples (≥ {DEGRADED_REJECT_FRACTION:.0%})"
        )
    return False, None


@dataclass(frozen=True)
class EstimationOptions:
    """The choices one estimation run makes for all its procedures.

    ``robust`` switches on the fault-tolerant path (:mod:`repro.faults` is
    the regime it exists for): a model-based outlier screen before fitting
    (see :func:`repro.core.moments_fit.robust_filter`), plus graceful
    degradation — an estimate is flagged ``degraded`` (full-width
    confidence interval, never NaN) when fewer than :data:`MIN_SAMPLES`
    survive or when the screen rejected at least
    :data:`DEGRADED_REJECT_FRACTION` of the sample.  On fault-free data the
    robust path rejects nothing and is bit-identical to the classic one.
    """

    method: str = "moments"
    moments_used: int = 3
    seed: Optional[int] = None
    robust: bool = False

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise EstimationError(
                f"method must be one of {_METHODS}, got {self.method!r}"
            )


@dataclass(frozen=True)
class ProcedureEstimate:
    """One procedure's estimated branch probabilities plus diagnostics.

    ``degraded`` marks an estimate the robust pipeline could not stand
    behind (too few surviving samples, or too much of the sample was
    fault-rejected); such estimates carry the full-width ``[0, 1]``
    confidence interval per branch instead of a pretend-precise one.
    ``n_rejected`` counts samples the robust screen discarded.
    """

    procedure: str
    theta: np.ndarray
    n_samples: int
    method: str
    fit_cost: float
    predicted_moments: tuple[float, float, float]
    observed_moments: Optional[tuple[float, float, float]]
    warnings: tuple[str, ...] = ()
    degraded: bool = False
    n_rejected: int = 0
    ci_lower: Optional[np.ndarray] = None
    ci_upper: Optional[np.ndarray] = None


@dataclass
class EstimationResult:
    """Whole-program estimation outcome."""

    estimates: dict[str, ProcedureEstimate] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    @property
    def thetas(self) -> dict[str, np.ndarray]:
        """Per-procedure probability vectors, the placement pass's input."""
        return {name: est.theta for name, est in self.estimates.items()}

    def estimate_for(self, proc_name: str) -> ProcedureEstimate:
        """Look up one procedure's estimate."""
        try:
            return self.estimates[proc_name]
        except KeyError:
            raise EstimationError(f"no estimate for procedure {proc_name!r}") from None


class CodeTomography:
    """Estimates branch probabilities from end-to-end procedure timings."""

    def __init__(
        self,
        program: Program,
        platform: Platform,
        layout: Optional[ProgramLayout] = None,
    ) -> None:
        self.program = program
        self.platform = platform
        self.layout = layout or ProgramLayout.source_order(program)
        self._timing = ProgramTimingModel(program, platform, self.layout)

    def estimate(
        self,
        dataset: TimingDataset,
        options: Optional[EstimationOptions] = None,
        rng: RngSource = None,
    ) -> EstimationResult:
        """Estimate every procedure's branch probabilities from ``dataset``.

        Procedures with no timing samples fall back to the uninformed 0.5
        vector with a warning — downstream placement still works, it just
        gets no information for that procedure.  Refitting as data arrives,
        warm-started from the previous estimate, is
        :class:`~repro.core.online.OnlineEstimator`'s job.
        """
        opts = options or EstimationOptions()
        gen = as_rng(rng if rng is not None else opts.seed)
        result = EstimationResult()
        callee_moments: dict[str, RewardMoments] = {}

        with obs.span(
            "estimate.program", program=self.program.name, method=opts.method
        ) as prog_span:
            for proc in self.program.topological_procedures():
                model = self._timing.procedure_model(proc.name, callee_moments)
                with obs.span("estimate.proc", proc=proc.name, method=opts.method):
                    estimate = self._estimate_procedure(model, dataset, opts, gen)
                result.estimates[proc.name] = estimate
                result.warnings.extend(estimate.warnings)
                obs.inc("estimator.procedures")
                if estimate.degraded:
                    obs.inc("estimator.degraded")
                if estimate.n_rejected:
                    obs.inc("estimator.samples_rejected", estimate.n_rejected)
                # Fold this procedure's *estimated* time distribution into callers.
                callee_moments[proc.name] = model.moments(estimate.theta)
            prog_span.set(procedures=len(result.estimates))
        return result

    # -- per-procedure dispatch ----------------------------------------------

    def _estimate_procedure(
        self,
        model: ProcedureTimingModel,
        dataset: TimingDataset,
        opts: EstimationOptions,
        gen: np.random.Generator,
    ) -> ProcedureEstimate:
        name = model.procedure.name
        k = model.n_parameters
        warnings: list[str] = []

        if k == 0:
            theta = np.empty(0)
            return ProcedureEstimate(
                procedure=name,
                theta=theta,
                n_samples=dataset.count(name),
                method="trivial",
                fit_cost=0.0,
                predicted_moments=model.moments(theta).as_tuple(),
                observed_moments=None,
            )

        if dataset.count(name) == 0:
            theta = np.full(k, 0.5)
            warnings.append(
                f"{name}: no timing samples; falling back to uniform 0.5 prior"
            )
            ci_lo, ci_hi = _full_width_ci(k)
            return ProcedureEstimate(
                procedure=name,
                theta=theta,
                n_samples=0,
                method="prior",
                fit_cost=float("nan"),
                predicted_moments=model.moments(theta).as_tuple(),
                observed_moments=None,
                warnings=tuple(warnings),
                degraded=True,
                ci_lower=ci_lo,
                ci_upper=ci_hi,
            )

        report = analyze_identifiability(model, moments_used=opts.moments_used)
        warnings.extend(report.warnings)

        durations = dataset.durations(name)
        timer = self.platform.timer

        if opts.method == "em":
            # Plain EM reports the observed moments of the sample a moments
            # fit would match, and needs no fit.
            sample, _ = moment_sample(model, durations, timer, robust=opts.robust)
            observed = observed_moments(sample, timer)
        else:
            moment_fit = fit_moments(
                model,
                durations,
                timer=timer,
                moments_used=opts.moments_used,
                rng=gen,
                robust=opts.robust,
            )
            observed = moment_fit.observed_moments
        if opts.method == "moments":
            degraded, note = _degradation(
                opts, name, moment_fit.n_samples, moment_fit.n_rejected
            )
            if note:
                warnings.append(note)
            ci_lo, ci_hi = _full_width_ci(k) if degraded else (None, None)
            return ProcedureEstimate(
                procedure=name,
                theta=moment_fit.theta,
                n_samples=moment_fit.n_samples,
                method="moments",
                fit_cost=moment_fit.cost,
                predicted_moments=moment_fit.predicted_moments,
                observed_moments=moment_fit.observed_moments,
                warnings=tuple(warnings),
                degraded=degraded,
                n_rejected=moment_fit.n_rejected,
                ci_lower=ci_lo,
                ci_upper=ci_hi,
            )

        # EM sees the same fault-screened sample the robust moments fit kept;
        # on clean data nothing is rejected and `em_durations` is the
        # original array.
        em_durations = durations
        em_rejected = 0
        if opts.robust:
            em_durations, em_rejected = robust_filter(model, durations, timer)

        em = EMEstimator(model, timer=timer)
        # EM's likelihood surface is multimodal; "hybrid" races an EM run
        # started from the moments fit against one from the uniform prior and
        # keeps the higher-likelihood solution.
        starts: list = [None]
        if opts.method == "hybrid":
            starts.append(moment_fit.theta)
        em_result = None
        for theta0 in starts:
            candidate = em.fit(em_durations, theta0=theta0)
            if em_result is None or candidate.log_likelihood > em_result.log_likelihood:
                em_result = candidate
        assert em_result is not None
        if not em_result.converged:
            warnings.append(
                f"{name}: EM did not converge within {MAX_ITERATIONS} iterations"
            )
        if em_result.dropped_observations:
            warnings.append(
                f"{name}: EM dropped {em_result.dropped_observations} observation(s) "
                f"incompatible with the enumerated path family"
            )
        degraded, note = _degradation(opts, name, em_result.n_samples, em_rejected)
        if note:
            warnings.append(note)
        ci_lo, ci_hi = _full_width_ci(k) if degraded else (None, None)
        return ProcedureEstimate(
            procedure=name,
            theta=em_result.theta,
            n_samples=em_result.n_samples,
            method=opts.method,
            fit_cost=-em_result.log_likelihood,
            predicted_moments=model.moments(em_result.theta).as_tuple(),
            observed_moments=observed,
            warnings=tuple(warnings),
            degraded=degraded,
            n_rejected=em_rejected,
            ci_lower=ci_lo,
            ci_upper=ci_hi,
        )
