"""F2 — Estimation accuracy versus number of timing samples.

How many end-to-end measurements does tomography need?  The figure sweeps
the per-procedure sample budget and reports pooled MAE per point; the
expected shape is monotone improvement at roughly the Monte-Carlo 1/sqrt(n)
rate until timer quantization floors it.

Since the streaming estimator landed, each workload produces **one
trajectory**: the long run's dataset is split into per-procedure prefix
shards at the sample budgets and absorbed incrementally by
:class:`~repro.core.online.OnlineEstimator`, which warm-starts EM
between points instead of re-fitting cold per size.
Every point therefore sees the same observation stream its predecessors
saw — exactly the prefix property the old subsample loop approximated with
repetitions — so the sweep needs no repetitions and is deterministic for a
seed.
"""

from __future__ import annotations

from functools import partial

from repro.analysis.metrics import program_estimation_error
from repro.core.online import OnlineEstimator, OnlineOptions, dataset_shards
from repro.experiments.common import (
    ExperimentConfig,
    ExperimentResult,
    UnitResult,
    combine_units,
    map_units,
    profiled_run,
)
from repro.util.tables import Table
from repro.workloads.registry import workload_by_name

__all__ = ["run", "workload_unit", "SAMPLE_COUNTS", "WORKLOADS"]

SAMPLE_COUNTS = (50, 100, 200, 500, 1000, 2000, 5000)
WORKLOADS = ("sense", "event-detect", "oscilloscope")


def workload_unit(name: str, config: ExperimentConfig) -> UnitResult:
    """Stream the sample-budget sweep on one workload (one batchable unit)."""
    counts = SAMPLE_COUNTS[:4] if config.quick else SAMPLE_COUNTS
    spec = workload_by_name(name)
    # One long run provides the pool; the budgets become prefix-shard
    # boundaries so every point extends the previous point's data.
    base = ExperimentConfig(
        platform=config.platform,
        activations=max(counts),
        seed=config.seed,
        quick=False,
        scenario=config.scenario,
    )
    run_data = profiled_run(spec, base)
    estimator = OnlineEstimator(
        run_data.program, config.platform, OnlineOptions(epsilon=None)
    )
    unit = UnitResult()
    for point in map(estimator.absorb, dataset_shards(run_data.dataset, counts)):
        mae = program_estimation_error(point.thetas, run_data.truth, "mae")
        budget = counts[point.shard_index]
        unit.add_row(name, budget, mae)
        unit.add_series(workload=name, samples=budget, mae=mae)
    return unit


def run(config: ExperimentConfig) -> ExperimentResult:
    """Sweep the sample budget on three representative workloads."""
    table = Table(
        "F2: estimation error vs timing-sample budget",
        ["workload", "samples", "mae"],
        digits=4,
    )
    series: dict[str, list] = {"workload": [], "samples": [], "mae": []}
    units = map_units(partial(workload_unit, config=config), WORKLOADS)
    timings = combine_units(units, table, series)
    return ExperimentResult(
        experiment_id="f2",
        title="accuracy vs sample count",
        tables=[table],
        series=series,
        timings=timings,
        notes=[
            "Shape check: MAE decreases (roughly ~1/sqrt(n)) as the timing "
            "sample budget grows.",
            "Each workload is one streaming trajectory (warm-started "
            "incremental EM over prefix shards), not per-size cold refits.",
        ],
    )
