"""Code Tomography: the paper's primary contribution.

Estimate the branch probabilities of a program's per-procedure Markov
execution model using **only end-to-end timing measured at the start and end
of each procedure** — no per-edge counters, no PC sampling.  The estimators
invert the analytic forward model of :mod:`repro.sim.timing`:

* :func:`~repro.core.moments_fit.fit_moments` — match the model's predicted
  mean/variance/skew of execution time to the empirical moments of the
  measured durations (nonlinear weighted least squares with multi-start);
* :class:`~repro.core.em.EMEstimator` — treat the block path of each
  invocation as latent and run expectation–maximization over an enumerated
  path family, with the timer's quantization/jitter as the observation
  kernel;
* :class:`~repro.core.estimator.CodeTomography` — the user-facing facade:
  walks the (acyclic) call graph bottom-up, folds estimated callee time
  distributions into caller models, and returns per-procedure estimates
  with diagnostics.

Supporting analysis: :mod:`~repro.core.identifiability` (is the inverse
problem well-posed for this CFG?).
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "moments_fit": ("fit_moments", "MomentFitResult", "robust_filter"),
        "path_enum": ("PathFamily", "enumerate_paths"),
        "em": ("EMEstimator", "EMResult"),
        "estimator": (
            "CodeTomography",
            "EstimationOptions",
            "EstimationResult",
            "ProcedureEstimate",
        ),
        "online": (
            "OnlineEstimator",
            "OnlineOptions",
            "ShardEstimate",
            "dataset_shards",
        ),
        "identifiability": (
            "IdentifiabilityReport",
            "analyze_identifiability",
            "exchangeable_pairs",
            "practically_invisible_parameters",
        ),
        "drift": ("DriftTrack", "estimate_epochs", "detect_drift"),
        "report": ("estimation_report", "render_estimation_report"),
    },
)
