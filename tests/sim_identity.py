"""Hold the compiled engine to the oracle at the pipeline benchmark's size.

The differential tests run 20–40 activations a case.  pipebench runs 3,000
per program: one profiled mote of 3,000 activations, then an evaluation of
375 batches of 8 on the layout placed from the program's ground-truth θ.
For each seed and each registered workload this script runs both, the way
pipebench does, on the compiled engine and on the oracle
(``tests/sim_oracle.py``), each under an isolated ``HardwareCounters``
registry.  It compares the ``RunResult``, the counters' key order and the
hardware snapshot with ``==``, and exits 1 naming every mismatch (0 when
there is none)::

    PYTHONPATH=src python -m tests.sim_identity [--seeds 2015 2016 2017]

The profiled run draws its inputs from the seed and the evaluation from
``seed + 1000``, as pipebench and F4 do; at seed 2015 both are exactly the
runs of a pipebench loop pass.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Callable

from repro.mote import MICAZ_LIKE
from repro.obs.counters import HardwareCounters, counters_active
from repro.placement import optimize_refined_program_layout
from repro.sim import run_program, run_program_batched
from repro.workloads.inputs import build_sensors
from repro.workloads.registry import all_workloads
from tests.sim_oracle import oracle_engine

ACTIVATIONS = 3000
EVAL_BATCH = 8


def key_order(counters) -> list:
    """First-visit key order of every counter, which renderings iterate."""
    return [
        list(c)
        for c in (counters.block_visits, counters.edge_counts, counters.invocations)
    ]


def observed(run: Callable) -> tuple:
    """``run()``'s result, its counters' key order and the registry it filled."""
    hw = HardwareCounters()
    with counters_active(hw, isolated=True):
        result = run()
    return result, key_order(result.counters), hw.snapshot()


def on_both_engines(run: Callable) -> tuple[tuple, tuple]:
    compiled = observed(run)
    with oracle_engine():
        oracle = observed(run)
    return compiled, oracle


def _differences(label: str, compiled: tuple, oracle: tuple) -> list[str]:
    names = ("RunResult", "counter key order", "hardware snapshot")
    return [
        f"{label}: {name} differs"
        for name, mine, theirs in zip(names, compiled, oracle)
        if mine != theirs
    ]


def mismatches(seeds) -> list[str]:
    """Every profiled or evaluation run whose engines disagree, by name."""
    found = []
    for seed in seeds:
        for spec in all_workloads():
            program = spec.program()
            # A sensor suite is stateful, so each engine gets its own.
            compiled, oracle = on_both_engines(
                lambda: run_program(
                    program, MICAZ_LIKE, spec.sensors(rng=seed), activations=ACTIVATIONS
                )
            )
            found += _differences(f"seed {seed} {spec.name} profiled", compiled, oracle)
            result = compiled[0]
            thetas = {proc.name: result.counters.true_branch_probabilities(proc) for proc in program}
            layout = optimize_refined_program_layout(program, thetas, MICAZ_LIKE)
            compiled, oracle = on_both_engines(
                lambda: run_program_batched(
                    program,
                    MICAZ_LIKE,
                    partial(build_sensors, dict(spec.channels), "default"),
                    activations=ACTIVATIONS,
                    batch_size=EVAL_BATCH,
                    rng=seed + 1000,
                    layout=layout,
                )
            )
            found += _differences(f"seed {seed} {spec.name} evaluation", compiled, oracle)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[2015])
    args = parser.parse_args(argv)
    found = mismatches(args.seeds)
    for line in found:
        print(line)
    if found:
        return 1
    runs = 2 * len(args.seeds) * len(all_workloads())
    print(f"all {runs} runs identical on both engines (seeds {' '.join(map(str, args.seeds))})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
