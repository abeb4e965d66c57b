"""F4 — Branch misprediction rate by placement strategy.

The paper's payoff figure: feed the estimated profile back into code
placement and measure dynamic misprediction rates.  Four strategies per
workload — source order (no profile), random, tomography-guided, and
oracle-guided (exact instrumented profile) — under two static prediction
schemes.  Evaluation runs use *fresh* sensor randomness, so a profile must
generalize, not memorize.
"""

from __future__ import annotations

from functools import partial

from repro.experiments.common import (
    ExperimentConfig,
    ExperimentResult,
    UnitResult,
    combine_units,
    map_units,
    profiled_run,
    tomography_thetas,
)
from repro.mote.predictor import AlwaysNotTakenPredictor, BTFNPredictor
from repro.obs import counters as hwc
from repro.placement import optimize_program_layout, random_program_layout
from repro.sim import run_program_batched
from repro.util.tables import Table
from repro.workloads.inputs import build_sensors
from repro.workloads.registry import all_workloads, workload_by_name

__all__ = ["run", "pair_unit", "STRATEGIES", "PREDICTOR_KEYS"]

STRATEGIES = ("source-order", "random", "tomography", "oracle")

# Keyed by a picklable string so units can rebuild the predictor in a worker.
_PREDICTORS = {"btfn": BTFNPredictor, "always-not-taken": AlwaysNotTakenPredictor}
PREDICTOR_KEYS = ("btfn", "always-not-taken")


def pair_unit(pair: tuple[str, str], config: ExperimentConfig) -> UnitResult:
    """One (predictor, workload) pair: profile, place, evaluate all strategies."""
    predictor_key, workload = pair
    predictor = _PREDICTORS[predictor_key]()
    spec = workload_by_name(workload)
    predictor_config = ExperimentConfig(
        platform=config.platform.with_predictor(predictor),
        activations=config.activations,
        seed=config.seed,
        quick=config.quick,
        scenario=config.scenario,
    )
    profile_data = profiled_run(spec, predictor_config)
    tomo_thetas = tomography_thetas(profile_data, predictor_config)
    layouts = {
        "source-order": None,
        "random": random_program_layout(profile_data.program, rng=config.seed),
        "tomography": optimize_program_layout(profile_data.program, tomo_thetas),
        "oracle": optimize_program_layout(profile_data.program, profile_data.truth),
    }
    unit = UnitResult()
    factory = partial(build_sensors, dict(spec.channels), config.scenario)
    for strategy in STRATEGIES:
        # The evaluation reads its rates off the hardware counters — the
        # same registers a deployed mote would report — rather than the
        # simulator's ground-truth bookkeeping.  A per-strategy registry
        # takes a clean delta; counts still fold into any ambient registry
        # (e.g. the CLI's --counters aggregate) on exit.  Evaluation is a
        # fleet, not a single mote: batches over fresh input streams, each
        # a fresh mote running the program compiled once for this layout.
        with hwc.counters_active(hwc.HardwareCounters()) as hw:
            run_program_batched(
                profile_data.program,
                predictor_config.platform,
                factory,
                activations=predictor_config.effective_activations,
                batch_size=8,
                rng=config.seed + 1000,  # fresh inputs
                layout=layouts[strategy],
            )
        snap = hw.snapshot()
        rate = hwc.mispredict_rate(snap)
        unit.add_row(
            spec.name, predictor.name, strategy, rate, hwc.taken_rate(snap)
        )
        unit.add_series(
            workload=spec.name,
            predictor=predictor.name,
            strategy=strategy,
            mispredict_rate=rate,
        )
    return unit


def run(config: ExperimentConfig) -> ExperimentResult:
    """Measure dynamic misprediction rates for every strategy x predictor."""
    table = Table(
        "F4: branch misprediction rate by placement strategy",
        ["workload", "predictor", "strategy", "mispredict_rate", "taken_rate"],
        digits=4,
    )
    series: dict[str, list] = {
        "workload": [],
        "predictor": [],
        "strategy": [],
        "mispredict_rate": [],
    }
    pairs = [
        (key, spec.name) for key in PREDICTOR_KEYS for spec in all_workloads()
    ]
    units = map_units(partial(pair_unit, config=config), pairs)
    timings = combine_units(units, table, series)
    return ExperimentResult(
        experiment_id="f4",
        title="misprediction rate by placement strategy",
        tables=[table],
        series=series,
        timings=timings,
        notes=[
            "Shape check: tomography-guided placement tracks oracle-guided "
            "closely and beats source order on aggregate."
        ],
    )
