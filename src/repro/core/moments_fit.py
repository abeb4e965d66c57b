"""Moment-matching estimation of branch probabilities.

The forward model predicts the mean, variance and third central moment of a
procedure's execution time as smooth functions of the branch-probability
vector ``theta``.  The estimator solves the inverse problem as bounded
nonlinear least squares:

    minimize  || W . (predicted_moments(theta) - observed_moments) ||^2
              + PRIOR_WEIGHT * || theta - 0.5 ||^2

* **Weights** are inverse standard errors of the empirical moments, so a
  moment estimated from few samples cannot dominate the fit.
* **Noise correction**: timer quantization and jitter inflate the observed
  variance by a known amount (:meth:`TimestampTimer.noise_variance`), which
  is subtracted before fitting; their effect on mean and skew is ~zero.
* **Multi-start**: the residual surface of chains with loops is multimodal,
  so the solver restarts from scattered initial points and keeps the best.
* **Prior**: a weak pull toward 0.5 regularizes directions the moments do
  not constrain (see :mod:`repro.core.identifiability`), instead of letting
  them wander to a bound.

Solver
------

Every start runs at once, in lockstep, through one projected
Levenberg–Marquardt iteration (:func:`_levenberg_marquardt`).  Each round
evaluates the residuals of all unfinished starts with one call to
:meth:`ProcedureTimingModel.moments_and_jacobians`, which returns the
moments with their exact Jacobian (``∂N/∂θ = N·(∂Q/∂θ)·N`` for the
fundamental matrix N) for the whole stack from one stacked solve.  A step
solves ``(JᵀJ + λ·diag(JᵀJ)) δ = −Jᵀr``, λ starting at 1e-3, over the
free parameters: a parameter at a bound of the box ``[1e-4, 1 − 1e-4]``
whose gradient points out of it stays there, and one the step would carry
out of the box is put on the bound while the rest are solved again
(:func:`_bounded_step`).  A step that lowers the cost is kept; λ then
shrinks with the ratio ρ of actual to predicted reduction (Nielsen's
rule), and grows geometrically after a rejected step.  A start stops when

* an evaluated step lowers the cost by less than ``1e-12`` of it while the
  quadratic model predicted that decrease well (ρ > 0.25),
* a step shorter than ``1e-12·(1e-12 + |θ|)`` fails to lower the cost,
* the largest free gradient component is at most ``1e-12``, or
* it has spent 400 residual evaluations.

The first two are the relative-cost and step tests, with the same
tolerances, of the trust-region solver (scipy's ``least_squares``) this
fit used before; the step test stops only a start that no longer makes
progress, because a large λ also makes steps short in a narrow valley.
``tests/estimation_oracle.py`` keeps the former fit as the oracle the
tests and a CI sweep hold this one's cost to.  The best start wins; ties
go to the earliest, the uniform 0.5 start first.

Robust path
-----------

Under fault injection (:mod:`repro.faults`) the duration sample is
contaminated: corrupted uploads are uniform noise over the 16-bit tick
range and timer glitches add ~10⁵ cycles, both orders of magnitude outside
any plausible execution time — while *clean* mote durations are heavily
quantized and heavy-tailed (MAD and IQR are routinely zero), so the
textbook median/MAD screen would reject genuine rare-path samples.  The
robust path (``fit_moments(..., robust=True)``) therefore screens against
the *model*, not the sample: samples farther from the predicted measured
mean (anchored at the uninformed prior ``theta = 0.5``) than
``ROBUST_FLOOR_MULT · mean_pred + ROBUST_K · σ_pred`` are rejected —
see :func:`robust_filter` — and the moment match runs on the survivors.

When nothing is rejected the fit sees the untouched sample with an
untouched generator, so on clean data the robust path is **bit-identical**
to the classic one.  Rejection is
capped at :data:`MAX_REJECT_FRACTION` of the sample: that cap is the
screen's breakdown point — contamination beyond ~35% necessarily leaks
fault mass into the trimmed fit (the estimator layer flags such fits
``degraded``, see :class:`repro.core.estimator.EstimationOptions`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.errors import EstimationError, ReproError
from repro.mote.timer import TimestampTimer
from repro.sim.timing import ProcedureTimingModel
from repro.util.rng import RngSource, as_rng

__all__ = [
    "MomentFitResult",
    "fit_moments",
    "moment_sample",
    "observed_moments",
    "robust_filter",
]

#: Every estimate stays this far inside (0, 1).
_THETA_EPS = 1e-4

#: The solver's relative-cost, step and gradient tolerance.
_TOLERANCE = 1e-12

#: Residual evaluations one start may spend.
_MAX_EVALUATIONS = 400

#: Floor of the damping on the unit-diagonal step system.
_MIN_DAMPING = 1e-15

#: Weight of the pull toward the uninformed 0.5 prior.
PRIOR_WEIGHT = 1e-3

#: Below this many samples the robust screen declines to reject anything —
#: the anchor fit is too weak to tell an outlier from a rare path.
ROBUST_MIN_SAMPLES = 8

#: The robust screen's envelope: a sample is rejected beyond
#: ``ROBUST_FLOOR_MULT · mean_pred + ROBUST_K · σ_pred`` of the predicted mean.
ROBUST_K = 8.0
ROBUST_FLOOR_MULT = 25.0

#: The screen's breakdown point: it never rejects more than this fraction.
MAX_REJECT_FRACTION = 0.35


def robust_filter(
    model: ProcedureTimingModel,
    durations: Sequence[float],
    timer: Optional[TimestampTimer],
) -> tuple[np.ndarray, int]:
    """Screen ``durations`` against the model's predicted measurement.

    Distances are measured from the predicted mean at the uninformed prior
    (``theta = 0.5``); a sample is rejected when it lies beyond an envelope
    of plausible execution regimes: the max over probe parameter vectors
    (0.5 and the loop-heavy 0.9) of ``ROBUST_FLOOR_MULT · mean_pred +
    ROBUST_K · σ_pred``, with ``σ_pred`` including the timer's noise
    variance and everything floored at the timer resolution.  Anchoring on
    fixed probes instead of a data-driven fit is deliberate twice over: a
    fit on contaminated data can be dragged to a bound (a loop probability
    near 1 makes the predicted variance explode, widening the screen until
    nothing is rejected), and the sample's own MAD/IQR is routinely zero on
    quantized mote durations (rejecting genuine rare paths).  The absolute
    ``mean_pred`` multiple is what keeps heavy-tailed clean data safe: a
    rare long path sits within a few tens of predicted means, while
    glitches and corrupted uploads land hundreds to thousands out.

    Rejection is capped at :data:`MAX_REJECT_FRACTION` of the sample (the
    documented breakdown point); past the cap only the most extreme
    samples go.  Returns ``(survivors, n_rejected)``; with nothing
    rejected, the *original* array object is returned so callers can cheaply
    detect the no-op case.
    """
    xs = np.asarray(durations, dtype=float)
    n = int(xs.size)
    if n < ROBUST_MIN_SAMPLES:
        return xs, 0
    k = model.n_parameters
    probes = [np.full(k, p) for p in (0.5, 0.9)]
    resolution = float(timer.resolution_cycles) if timer is not None else 1.0
    noise = timer.noise_variance() if timer is not None else 0.0
    mean_anchor = 0.0
    threshold = 0.0
    for i, probe in enumerate(probes):
        moments = model.moments(probe)
        if i == 0:
            mean_anchor = moments.mean
        sigma = max(math.sqrt(max(moments.variance, 0.0) + noise), resolution)
        threshold = max(
            threshold,
            ROBUST_FLOOR_MULT * max(moments.mean, resolution) + ROBUST_K * sigma,
        )
    dist = np.abs(xs - mean_anchor)
    reject = dist > threshold
    n_reject = int(reject.sum())
    if n_reject == 0:
        return xs, 0
    cap = int(math.floor(MAX_REJECT_FRACTION * n))
    if cap == 0:
        return xs, 0
    if n_reject > cap:
        order = np.argsort(dist, kind="stable")
        keep = np.zeros(n, dtype=bool)
        keep[order[: n - cap]] = True
        return xs[keep], cap
    return xs[~reject], n_reject


@dataclass(frozen=True)
class MomentFitResult:
    """Outcome of one moment-matching fit.

    ``n_samples`` counts the samples the fit actually used; ``n_rejected``
    counts samples the robust screen discarded first (0 on the classic
    path).
    """

    theta: np.ndarray
    cost: float
    observed_moments: tuple[float, float, float]
    predicted_moments: tuple[float, float, float]
    n_samples: int
    restarts_used: int
    n_rejected: int = 0


def _moment_scales(
    mean: float, variance: float, n_samples: int, moments_used: int
) -> np.ndarray:
    """Approximate standard errors of the empirical moments.

    Normal-theory approximations: SE(mean) = sqrt(var/n), SE(var) =
    var·sqrt(2/n), SE(mu3) ≈ sqrt(6)·var^{3/2}·sqrt(6/n) (loose but the
    right order).  Floored to keep the weighting finite on degenerate data.
    """
    n = max(n_samples, 1)
    std = np.sqrt(max(variance, 0.0))
    se_mean = std / np.sqrt(n)
    se_var = max(variance, 1.0) * np.sqrt(2.0 / n)
    se_mu3 = max(std, 1.0) ** 3 * np.sqrt(6.0 / n) * 2.5
    scales = np.array([se_mean, se_var, se_mu3])[:moments_used]
    return np.maximum(scales, 1e-9)


def fit_moments(
    model: ProcedureTimingModel,
    durations: Sequence[float],
    timer: Optional[TimestampTimer] = None,
    moments_used: int = 3,
    restarts: int = 8,
    rng: RngSource = None,
    robust: bool = False,
) -> MomentFitResult:
    """Estimate ``theta`` from measured end-to-end ``durations``.

    Parameters
    ----------
    model:
        The procedure's analytic timing model (layout-aware, callee moments
        already folded in).
    durations:
        Measured durations in cycles, as produced by the timing profiler.
    timer:
        When given, its quantization/jitter variance is subtracted from the
        observed variance before matching, and a drifting crystal's known
        scale factor is divided out of the durations first.
    moments_used:
        1 = mean only, 2 = +variance, 3 = +third central moment.  The
        ablation (T3) sweeps this.
    robust:
        Screen the sample through the model-based outlier filter
        (:func:`robust_filter`) before fitting.  When the screen rejects
        nothing — in particular on any fault-free dataset — the result is
        bit-identical to the classic estimator.
    """
    xs = np.asarray(durations, dtype=float)
    if xs.size == 0:
        raise EstimationError("fit_moments needs at least one duration sample")
    if not 1 <= moments_used <= 3:
        raise EstimationError(f"moments_used must be 1, 2 or 3, got {moments_used}")
    if restarts < 1:
        raise EstimationError(f"restarts must be >= 1, got {restarts}")

    gen = as_rng(rng)
    with obs.span(
        "estimate.moments",
        proc=model.procedure.name,
        samples=int(xs.size),
        robust=robust,
    ):
        obs.inc("estimator.moment_fits")
        # The screen consumes no randomness.  Zero rejections hand the *same*
        # array to the same fit with the same generator state, so the robust
        # path is bit-identical to the classic one on clean data.
        sample, n_rejected = moment_sample(model, xs, timer, robust=robust)
        return _fit_core(model, sample, timer, moments_used, restarts, gen, n_rejected)


def moment_sample(
    model: ProcedureTimingModel,
    durations: Sequence[float],
    timer: Optional[TimestampTimer] = None,
    robust: bool = False,
) -> tuple[np.ndarray, int]:
    """The sample :func:`fit_moments` matches, as ``(durations, n_rejected)``.

    A drifting timer's known scale factor is divided out first; with
    ``robust`` the rescaled sample then goes through :func:`robust_filter`
    (a model with no parameters is never screened).
    """
    xs = np.asarray(durations, dtype=float)
    if timer is not None and timer.drift_ppm != 0.0:
        # Calibrated crystal drift is a known multiplicative bias; divide it
        # out so the moment match sees durations on the true cycle axis.
        xs = xs / timer.drift_scale
    if not robust or model.n_parameters == 0:
        return xs, 0
    return robust_filter(model, xs, timer)


def observed_moments(
    xs: np.ndarray, timer: Optional[TimestampTimer] = None
) -> tuple[float, float, float]:
    """Mean, variance and third central moment of ``xs`` as the fit targets them.

    With a timer, its measurement-noise variance is subtracted from the
    sample variance (floored at 0).
    """
    mean = float(xs.mean())
    centered = xs - mean
    variance = float(np.mean(centered**2))
    mu3 = float(np.mean(centered**3))
    if timer is not None:
        variance = max(variance - timer.noise_variance(), 0.0)
    return mean, variance, mu3


def _fit_core(
    model: ProcedureTimingModel,
    xs: np.ndarray,
    timer: Optional[TimestampTimer],
    moments_used: int,
    restarts: int,
    gen: np.random.Generator,
    n_rejected: int,
) -> MomentFitResult:
    """One weighted multi-start moment match on an already-vetted sample."""
    k = model.n_parameters
    mean, variance, mu3 = observed_moments(xs, timer)
    observed = np.array([mean, variance, mu3])

    if k == 0:
        predicted = model.moments(np.empty(0)).as_tuple()
        return MomentFitResult(
            theta=np.empty(0),
            cost=0.0,
            observed_moments=(mean, variance, mu3),
            predicted_moments=predicted,
            n_samples=int(xs.size),
            restarts_used=0,
            n_rejected=n_rejected,
        )

    scales = _moment_scales(mean, variance, int(xs.size), moments_used)
    target = observed[:moments_used]
    sqrt_prior = np.sqrt(PRIOR_WEIGHT)
    prior_rows = sqrt_prior * np.eye(k)

    def residuals(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pred, jac = model.moments_and_jacobians(thetas)
        data_part = (pred[:, :moments_used] - target) / scales
        prior_part = sqrt_prior * (thetas - 0.5)
        data_jac = jac[:, :moments_used] / scales[:, None]
        prior_jac = np.broadcast_to(prior_rows, (len(thetas), k, k))
        return (
            np.concatenate([data_part, prior_part], axis=1),
            np.concatenate([data_jac, prior_jac], axis=1),
        )

    starts = [np.full(k, 0.5)]
    for _ in range(restarts - 1):
        starts.append(gen.uniform(0.15, 0.85, size=k))

    try:
        thetas, costs = _levenberg_marquardt(residuals, np.array(starts))
    except (ReproError, np.linalg.LinAlgError) as exc:
        raise EstimationError(f"moments fit failed: {exc}") from exc
    best = int(np.argmin(costs))
    theta_hat = np.clip(thetas[best], 0.0, 1.0)
    predicted = model.moments(theta_hat).as_tuple()
    return MomentFitResult(
        theta=theta_hat,
        cost=float(costs[best]),
        observed_moments=(mean, variance, mu3),
        predicted_moments=predicted,
        n_samples=int(xs.size),
        restarts_used=len(starts),
        n_rejected=n_rejected,
    )


def _levenberg_marquardt(residuals, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ``½|r(θ)|²`` over the box from every row of ``starts`` at once.

    ``residuals`` maps a ``(B, k)`` stack of θ to ``(r, J)``, shaped
    ``(B, m)`` and ``(B, m, k)``.  Returns the final θ of every start and
    its cost.  The stopping rules are in the module docstring.
    """
    lo, hi = _THETA_EPS, 1.0 - _THETA_EPS
    theta = np.clip(starts, lo, hi)
    res, jac = residuals(theta)
    cost = 0.5 * np.einsum("bm,bm->b", res, res)
    count = len(theta)
    damping = np.full(count, 1e-3)
    growth = np.full(count, 2.0)
    evaluations = np.ones(count, dtype=int)
    running = np.ones(count, dtype=bool)
    while running.any():
        idx = np.flatnonzero(running)
        now, r, j = theta[idx], res[idx], jac[idx]
        grad = np.einsum("bmk,bm->bk", j, r)
        hess = np.einsum("bmi,bmj->bij", j, j)
        held = ((now <= lo) & (grad > 0)) | ((now >= hi) & (grad < 0))
        flat = np.abs(np.where(held, 0.0, grad)).max(axis=1) <= _TOLERANCE
        step = _bounded_step(now, grad, hess, damping[idx], held, lo, hi)
        trial = np.clip(now + step, lo, hi)
        step = trial - now
        predicted = -np.einsum("bk,bk->b", grad, step) - 0.5 * np.einsum(
            "bi,bij,bj->b", step, hess, step
        )
        res_new, jac_new = residuals(trial)
        evaluations[idx] += 1
        cost_new = 0.5 * np.einsum("bm,bm->b", res_new, res_new)
        cost_new = np.where(np.isfinite(cost_new), cost_new, np.inf)
        reduction = cost[idx] - cost_new
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = reduction / predicted
        kept = (reduction > 0) & ~flat
        # A short step that still lowers the cost is progress along a
        # narrow valley, where λ has yet to shrink: keep going.
        short = np.linalg.norm(step, axis=1) < _TOLERANCE * (
            _TOLERANCE + np.linalg.norm(now, axis=1)
        )
        done = (
            flat
            | ((predicted > 0) & (ratio > 0.25) & (reduction < _TOLERANCE * cost[idx]))
            | (short & ~kept)
            | (evaluations[idx] >= _MAX_EVALUATIONS)
        )
        moved = idx[kept]
        theta[moved] = trial[kept]
        res[moved] = res_new[kept]
        jac[moved] = jac_new[kept]
        cost[moved] = cost_new[kept]
        damping[moved] *= np.maximum(1.0 / 3.0, 1.0 - (2.0 * ratio[kept] - 1.0) ** 3)
        growth[moved] = 2.0
        stuck = idx[~kept]
        damping[stuck] *= growth[stuck]
        growth[stuck] *= 2.0
        running[idx[done]] = False
    return theta, cost


def _bounded_step(
    theta: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    damping: np.ndarray,
    held: np.ndarray,
    lo: float,
    hi: float,
) -> np.ndarray:
    """Damped Gauss–Newton steps that stay in the box, one per row.

    Solves ``(JᵀJ + λ·diag(JᵀJ)) δ = −Jᵀr`` over the parameters not
    ``held``; a held parameter's row is replaced by ``δ_j = fixed_j``
    (0 for one already at its bound).  A parameter the step would carry
    out of the box joins the held set with the step that puts it on the
    bound, and the rest are solved again: at most k + 1 solves.  The
    system is solved scaled to a unit diagonal, where the damping is
    ``λ·I`` with λ at least :data:`_MIN_DAMPING`, so it stays nonsingular
    when one moment's weight swamps the others.
    """
    k = theta.shape[1]
    eye = np.eye(k)
    held = held.copy()
    fixed = np.zeros_like(theta)
    scale = 1.0 / np.sqrt(np.einsum("bii->bi", hess))
    unit = hess * scale[:, :, None] * scale[:, None, :]
    lam = np.maximum(damping, _MIN_DAMPING)[:, None]
    for _ in range(k + 1):
        diagonal = eye * np.where(held, 1.0, lam)[:, None, :]
        system = np.where(held[:, :, None], 0.0, unit) + diagonal
        rhs = np.where(held, fixed / scale, -grad * scale)
        step = np.linalg.solve(system, rhs[..., None])[..., 0] * scale
        below = ~held & (theta + step < lo)
        above = ~held & (theta + step > hi)
        if not (below | above).any():
            break
        fixed = np.where(below, lo - theta, np.where(above, hi - theta, fixed))
        held |= below | above
    return step
