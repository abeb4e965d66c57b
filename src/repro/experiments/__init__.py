"""Experiment harness: one module per reconstructed table/figure.

See DESIGN.md's per-experiment index.  Each module exposes
``run(config: ExperimentConfig) -> ExperimentResult``; the CLI
(:mod:`repro.experiments.runner`, installed as ``repro-experiments``) runs
any subset and prints the tables.  ``ExperimentConfig(quick=True)`` shrinks
sample counts so the whole suite finishes in seconds (used by tests);
benchmarks run the full configuration.
"""

from repro.experiments.common import ExperimentConfig, ExperimentResult
from repro.experiments import (
    fig_f1_accuracy,
    fig_f2_samples,
    fig_f3_resolution,
    fig_f4_mispredict,
    fig_f5_speedup,
    fig_f6_robustness,
    fig_f7_drift,
    fig_f8_faults,
    fig_f9_convergence,
    fig_f10_closed_loop,
    table_t1_benchmarks,
    table_t2_overhead,
    table_t3_estimators,
)

ALL_EXPERIMENTS = {
    "t1": table_t1_benchmarks.run,
    "t2": table_t2_overhead.run,
    "t3": table_t3_estimators.run,
    "f1": fig_f1_accuracy.run,
    "f2": fig_f2_samples.run,
    "f3": fig_f3_resolution.run,
    "f4": fig_f4_mispredict.run,
    "f5": fig_f5_speedup.run,
    "f6": fig_f6_robustness.run,
    "f7": fig_f7_drift.run,
    "f8": fig_f8_faults.run,
    "f9": fig_f9_convergence.run,
    "f10": fig_f10_closed_loop.run,
}

# Imported after ALL_EXPERIMENTS exists: the engine resolves experiment
# functions through this mapping (lazily, to keep the import DAG acyclic).
from repro.experiments.engine import ExperimentOutcome, run_experiments  # noqa: E402

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentOutcome",
    "run_experiments",
    "ALL_EXPERIMENTS",
]
