"""Expectation–maximization estimation over latent block paths.

Each measured duration ``y_i`` came from some unobserved entry-to-exit path.
Treating the path as the latent variable gives a classic EM scheme:

* **E-step** — with the current ``theta_t``, enumerate the most probable
  path family and compute responsibilities
  ``γ_ip ∝ P(p | theta_t) · N(y_i; d_p, σ_p²)``, where ``d_p`` is the path's
  duration mean and ``σ_p²`` combines the timer's quantization/jitter
  variance with the path's callee-time variance;
* **M-step** — each branch probability becomes the responsibility-weighted
  fraction of its then-arm counts:
  ``theta_k = Σ_ip γ_ip a_pk / Σ_ip γ_ip (a_pk + b_pk)``.

The family is re-enumerated whenever the iterate moves materially, so paths
likely under the *estimate* (not under the 0.5 prior) stay covered.

Observations matching no enumerated path (all kernels ≈ 0) are dropped from
that iteration rather than poisoning the weights; if *every* observation is
dropped, the fit returns its current iterate flagged ``converged=False``
with ``dropped_observations == n_samples`` instead of dividing by zero
responsibility mass.

Both steps run at the size of the distinct data.  Timer ticks quantize the
durations, so a sample holds few distinct values: the kernel, joint, row
maxima and normalization run once per *distinct* duration (``np.unique``),
and the M-step, the log-likelihood and the dropped-observation count weight
each distinct row by its multiplicity in the sample.  The path family
arrives as classes of paths with equal arm counts and durations
(:class:`~repro.core.path_enum.PathFamily`), merged while the search still
holds them on its frontier, so enumeration too costs per class prefix, not
per path; each class's prior mass carries its size.  Per iteration the work
is distinct durations × path classes, not observations × paths.  The merged
search differs from a per-path one only where a ``max_paths`` cut falls
inside a tier of classes tied exactly in reference probability, which it
fills class by class (:mod:`repro.core.path_enum`).  The weighted sums run
in a different order than per-observation ones would, so θ̂ agrees with a
per-observation, per-path EM to rounding, not bit for bit; chain formation
snaps its edge weights to a 1e-9 grid
(:data:`repro.placement.chains.WEIGHT_GRID`) so that such noise does not
flip a placement.

Per fit, the distinct durations and their weights are found once.  Per
family (the first, and one per re-enumeration), the log-kernel matrix and
the family's θ-independent terms (:class:`~repro.core.path_enum.PathFamily`
computes its log multiplicities when built) are computed once.  Per
iteration only what depends on θ runs: the class log-priors, the joint,
the responsibilities and their weighted sums, as numpy calls on those
arrays.  Where no distinct duration is dropped, the iteration uses the
arrays whole instead of gathering the usable rows.  The k-vector
bookkeeping (the re-enumeration shift, the M-step division, its fallback
and clip, the convergence step) runs on k Python floats, whose IEEE
arithmetic, ``min`` and ``max`` give numpy's results bit for bit; a NaN
step propagates as ``np.max`` propagates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.errors import EstimationError
from repro.core.path_enum import PathFamily, enumerate_paths
from repro.mote.timer import TimestampTimer
from repro.sim.timing import ProcedureTimingModel

__all__ = ["EMResult", "EMEstimator"]

_MIN_KERNEL_STD = 0.5

#: Iteration cap per fit.
MAX_ITERATIONS = 60

#: Convergence: the largest per-branch step of the iterate falls below this.
TOLERANCE = 1e-4

#: Re-enumerate the path family once the iterate has moved this far (max
#: per-branch distance) from the theta the family was enumerated under.
REENUMERATE_SHIFT = 0.05


@dataclass(frozen=True)
class EMResult:
    """Outcome of one EM run.

    ``arm_counts`` holds the final M-step's responsibility-weighted arm
    totals ``a_k + b_k`` per branch — the effective number of times each
    branch was observed, which a Wald interval turns into a CI half-width
    (see :mod:`repro.core.online`).  ``None`` on the trivial k=0 path.
    """

    theta: np.ndarray
    iterations: int
    converged: bool
    log_likelihood: float
    n_samples: int
    n_paths: int
    dropped_observations: int
    arm_counts: Optional[np.ndarray] = None


class EMEstimator:
    """EM over enumerated paths for one procedure."""

    def __init__(
        self, model: ProcedureTimingModel, timer: Optional[TimestampTimer] = None
    ) -> None:
        self.model = model
        self.timer = timer

    def _kernel_variance(self) -> float:
        if self.timer is None:
            return _MIN_KERNEL_STD**2
        return max(self.timer.noise_variance(), _MIN_KERNEL_STD**2)

    def _log_kernel(
        self, observations: np.ndarray, family: PathFamily
    ) -> np.ndarray:
        """``log N(y_i; d_p, σ_p²)`` as an (n_values, n_rows) matrix."""
        var = self._kernel_variance() + family.duration_variances  # (n_rows,)
        diff = observations[:, None] - family.duration_means[None, :]
        # Observations absurdly far from every path overflow diff**2 to inf;
        # the resulting -inf log-kernel is exactly the "drop this row"
        # signal the E-step wants, so the overflow is intentional.
        with np.errstate(over="ignore"):
            return -0.5 * (
                diff**2 / var[None, :] + np.log(2.0 * np.pi * var[None, :])
            )

    def fit(
        self,
        durations: Sequence[float],
        theta0: Optional[Sequence[float]] = None,
    ) -> EMResult:
        """Run EM on measured ``durations``; ``theta0`` defaults to 0.5."""
        ys = np.asarray(durations, dtype=float)
        if ys.size == 0:
            raise EstimationError("EMEstimator.fit needs at least one duration sample")
        k = self.model.n_parameters
        if k == 0:
            return EMResult(
                theta=np.empty(0),
                iterations=0,
                converged=True,
                log_likelihood=0.0,
                n_samples=int(ys.size),
                n_paths=0,
                dropped_observations=0,
            )
        theta = np.full(k, 0.5) if theta0 is None else np.asarray(theta0, dtype=float)
        if theta.shape != (k,):
            raise EstimationError(f"theta0 must have length {k}, got {theta.shape}")
        theta = np.clip(theta, 0.02, 0.98)

        with obs.span(
            "estimate.em", proc=self.model.procedure.name, samples=int(ys.size)
        ) as span_handle:
            result = self._fit_loop(ys, theta)
            span_handle.set(iterations=result.iterations, converged=result.converged)
        obs.inc("estimator.em_fits")
        obs.inc("estimator.em_iterations", result.iterations)
        obs.observe(
            "estimator.em_iterations_per_fit",
            result.iterations,
            bounds=(1, 2, 5, 10, 20, 40, 60),
        )
        if not result.converged:
            obs.inc("estimator.em_nonconverged")
        return result

    def _fit_loop(self, ys: np.ndarray, theta0: np.ndarray) -> EMResult:
        """The EM iteration proper (split out so the public entry can trace it)."""
        family = enumerate_paths(self.model, theta0)
        # Both steps run over distinct durations, each weighted by the
        # number of observations that share it.
        values, weights = np.unique(ys, return_counts=True)
        log_kernel = self._log_kernel(values, family)
        # The iterate and the per-branch bookkeeping are k Python floats.
        theta = theta0.tolist()
        family_theta = family.reference_theta

        converged = False
        log_likelihood = -np.inf
        dropped = 0
        iterations = 0
        arm_counts: list[float] = []
        for iterations in range(1, MAX_ITERATIONS + 1):
            # Re-enumerate when the iterate has drifted from the family's base.
            if _max_step(theta, family_theta) > REENUMERATE_SHIFT:
                obs.inc("estimator.em_reenumerations")
                family = enumerate_paths(self.model, theta)
                log_kernel = self._log_kernel(values, family)
                family_theta = theta

            log_prior = family.log_probabilities(theta)
            # Renormalize the truncated path family into a proper mixture so
            # that (a) responsibilities are unbiased by enumeration coverage
            # and (b) log-likelihoods are comparable across families with
            # different truncation (the hybrid start-race relies on this).
            prior_max = log_prior.max()
            log_mass = prior_max + np.log(np.exp(log_prior - prior_max).sum())
            log_prior = log_prior - log_mass
            log_joint = log_kernel + log_prior[None, :]  # (n_distinct, n_rows)
            row_max = log_joint.max(axis=1)
            usable = np.isfinite(row_max)
            if usable.all():
                dropped = 0
                w = weights
            elif not usable.any():
                # The M-step would divide by zero responsibility mass.  Hand
                # back the current iterate, honestly flagged: not converged,
                # every observation dropped, zero effective arm counts (so
                # any CI built from this fit stays full-width).
                obs.inc("estimator.em_empty_mass")
                return EMResult(
                    theta=np.array(theta),
                    iterations=iterations,
                    converged=False,
                    log_likelihood=-np.inf,
                    n_samples=int(ys.size),
                    n_paths=int(family.multiplicity.sum()),
                    dropped_observations=int(ys.size),
                    arm_counts=np.zeros(len(theta)),
                )
            else:
                dropped = int(weights[~usable].sum())
                w = weights[usable]
                log_joint = log_joint[usable]
                row_max = row_max[usable]
            shifted = np.exp(log_joint - row_max[:, None])
            norm = shifted.sum(axis=1, keepdims=True)
            path_weight = w @ (shifted / norm)  # (n_rows,) responsibility mass
            row_log_mass = np.log(norm[:, 0]) + row_max
            log_likelihood = float(w @ row_log_mass)

            a_total = (path_weight @ family.then_counts).tolist()
            b_total = (path_weight @ family.else_counts).tolist()
            arm_counts = [a + b for a, b in zip(a_total, b_total)]
            # θ_k = a_k / (a_k + b_k), or the old θ_k for a branch that got
            # no mass, clipped to [1e-4, 1 - 1e-4].
            new_theta = [
                min(max(a / max(denom, 1e-12) if denom > 0 else t, 1e-4), 1.0 - 1e-4)
                for a, denom, t in zip(a_total, arm_counts, theta)
            ]

            if _max_step(new_theta, theta) < TOLERANCE:
                theta = new_theta
                converged = True
                break
            theta = new_theta

        return EMResult(
            theta=np.array(theta),
            iterations=iterations,
            converged=converged,
            log_likelihood=log_likelihood,
            n_samples=int(ys.size),
            n_paths=int(family.multiplicity.sum()),
            dropped_observations=dropped,
            arm_counts=np.array(arm_counts),
        )


def _max_step(new: Sequence[float], old: Sequence[float]) -> float:
    """``np.max(np.abs(new - old))`` on Python floats: NaN if any step is NaN."""
    steps = [abs(x - y) for x, y in zip(new, old)]
    return max(steps) if all(step == step for step in steps) else math.nan
