"""F7 (extension) — tracking branch-probability drift over time.

Not in the original evaluation: this exercises the continuous-profiling
extension that the overhead numbers (T2) make plausible.  A single-branch
probe program watches a channel whose mean drifts sinusoidally (the
``drifting`` scenario's diurnal model); the timing stream is sliced into
epochs and re-estimated per epoch.  The reconstructed trajectory must move
with the drift and trip the drift detector, while the same machinery on
stationary inputs stays flat and quiet.
"""

from __future__ import annotations

from functools import partial

from repro.core.drift import detect_drift, estimate_epochs
from repro.experiments.common import (
    ExperimentConfig,
    ExperimentResult,
    UnitResult,
    combine_units,
    map_units,
)
from repro.lang import compile_source
from repro.profiling import TimingProfiler
from repro.sim import ProgramTimingModel, run_program
from repro.util.tables import Table
from repro.workloads.inputs import build_sensors

__all__ = ["run", "scenario_unit", "PROBE_SOURCE", "EPOCHS", "SCENARIOS"]

# One strongly timing-visible branch: P(sense > 700) under the scenario.
PROBE_SOURCE = """
proc main() {
    var v = sense(ch);
    if (v > 700) {
        send(v);
    }
    led(0);
}
"""

EPOCHS = 6
SCENARIOS = ("default", "drifting")
_CHANNELS = {"ch": (620.0, 120.0)}


def _track(config: ExperimentConfig, scenario: str):
    program = compile_source(PROBE_SOURCE, "drift-probe")
    sensors = build_sensors(_CHANNELS, scenario=scenario, rng=config.seed)
    result = run_program(
        program, config.platform, sensors, activations=config.effective_activations
    )
    dataset = TimingProfiler(config.platform, rng=config.seed + 1).collect(
        result.records
    )
    model = ProgramTimingModel(program, config.platform).procedure_model("main", {})
    durations = dataset.durations("main")
    epoch_size = max(len(durations) // EPOCHS, 50)
    return estimate_epochs(
        model,
        durations,
        epoch_size=epoch_size,
        timer=config.platform.timer,
        rng=config.seed,
    )


def scenario_unit(scenario: str, config: ExperimentConfig) -> UnitResult:
    """Track one input scenario's per-epoch trajectory (one batchable unit)."""
    track = _track(config, scenario)
    events = detect_drift(track, threshold=0.07)
    unit = UnitResult()
    for epoch in range(track.n_epochs):
        theta = float(track.thetas[epoch, 0])
        unit.add_row(scenario, epoch, theta, track.n_samples[epoch])
        unit.add_series(scenario=scenario, epoch=epoch, theta=theta)
    unit.add_series(
        total_variation=(scenario, float(track.total_variation()[0])),
        drift_events=(scenario, len(events)),
    )
    return unit


def run(config: ExperimentConfig) -> ExperimentResult:
    """Epoch-sliced estimation under stationary vs drifting inputs."""
    table = Table(
        "F7: per-epoch estimate of P(reading > 700) on the drift probe",
        ["scenario", "epoch", "theta", "n_samples"],
    )
    series: dict[str, list] = {
        "scenario": [],
        "epoch": [],
        "theta": [],
        "total_variation": [],
        "drift_events": [],
    }
    units = map_units(partial(scenario_unit, config=config), SCENARIOS)
    timings = combine_units(units, table, series)
    return ExperimentResult(
        experiment_id="f7",
        title="drift tracking (extension)",
        tables=[table],
        series=series,
        timings=timings,
        notes=[
            "Shape check: total variation of the per-epoch estimate is "
            "several times larger under the drifting scenario, and the "
            "drift detector fires there but not (or barely) on stationary "
            "inputs."
        ],
    )
