"""Domain study: profiling a rare-event detector without instrumenting it.

The scenario that motivates the paper: a deployed acoustic event detector
whose interesting branches fire rarely and whose flash/RAM budget has no
room for per-edge counters.  This script:

1. runs the ``event-detect`` workload under three input regimes (quiet iid,
   bursty, correlated);
2. estimates its branch profile from end-to-end timing in each regime;
3. shows that the optimized placement from the *quiet* profile still helps
   under the other regimes (profiles transfer).

Run:  python examples/event_detection_study.py
"""

from __future__ import annotations

import numpy as np

from repro.core import CodeTomography, EstimationOptions
from repro.mote import MICAZ_LIKE
from repro.placement import optimize_program_layout
from repro.profiling import TimingProfiler
from repro.sim import run_program
from repro.util.tables import Table
from repro.workloads import workload_by_name

SCENARIOS = ("default", "bursty", "correlated")
ACTIVATIONS = 4000


def main() -> None:
    platform = MICAZ_LIKE
    spec = workload_by_name("event-detect")
    program = spec.program()
    print(f"workload {spec.name!r}: {spec.description}")
    print(f"structure: {program.totals()}")

    table = Table(
        "event-detect: estimation quality and placement benefit by input regime",
        ["scenario", "mae", "mispredict_before", "mispredict_after"],
    )
    quiet_thetas = None
    for scenario in SCENARIOS:
        run = run_program(
            program,
            platform,
            spec.sensors(scenario=scenario, rng=10),
            activations=ACTIVATIONS,
        )
        dataset = TimingProfiler(platform, rng=11).collect(run.records)
        estimate = CodeTomography(program, platform).estimate(
            dataset, EstimationOptions(method="hybrid", seed=12)
        )
        truth = {p.name: run.counters.true_branch_probabilities(p) for p in program}
        errors = np.concatenate(
            [np.abs(estimate.thetas[n] - truth[n]) for n in truth if truth[n].size]
        )
        if scenario == "default":
            quiet_thetas = estimate.thetas

        # Placement from the quiet profile, evaluated under this regime.
        layout = optimize_program_layout(program, quiet_thetas)
        before = run_program(
            program, platform, spec.sensors(scenario=scenario, rng=77),
            activations=ACTIVATIONS,
        )
        after = run_program(
            program, platform, spec.sensors(scenario=scenario, rng=77),
            activations=ACTIVATIONS, layout=layout,
        )
        table.add_row(
            scenario,
            float(errors.mean()),
            before.counters.mispredict_rate,
            after.counters.mispredict_rate,
        )
    print()
    print(table)


if __name__ == "__main__":
    main()
