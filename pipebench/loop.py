"""The paper's loop as a benchmark workload: profile, estimate, place, evaluate.

Each pass takes the six registered programs, one after another, through
the same public calls a user makes:

1. ``run_program`` — the profiled run (scalar interpreter, program globals
   persist across activations);
2. ``TimingProfiler.collect`` — entry/exit timing through the mote timer;
3. ``CodeTomography.estimate`` — branch probabilities from those timings;
4. ``optimize_refined_program_layout`` — chain placement plus BTFN-aware
   refinement;
5. ``run_program_batched`` on fresh inputs under a ``HardwareCounters``
   registry — the evaluation the mispredict and cycle metrics come from.

The profiled mote is one fixed deployment: its sensor inputs come from
:data:`~common.DEPLOYMENT_SEED`, the experiments' seed.  The benchmark seed
drives the rest as experiment F1 derives it: the estimator's restarts from
``seed``, the timer's jitter draw from ``seed + 1`` (the MICAz-like timer
has none, so the profiled durations repeat at every seed), and the
evaluation inputs from ``seed + 1000`` as in F4.  At seed 2015 the hybrid
estimates reproduce the code-tomography rows of
``benchmarks/results/f1.txt``.  Sensor inputs drawn per seed would move
the estimation problem itself: EM's cost follows the estimate through the
path-family size, and tinydb-agg's hybrid estimate alone then took
4.4-7.6 s across seeds 1-6.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import (
    ACTIVATIONS,
    DEPLOYMENT_SEED,
    PLATFORM,
    Scored,
    place_and_evaluate,
    quality,
    same_thetas,
    theta_problems,
)
from repro.sim import run_program
from repro import obs
from repro.analysis.metrics import program_estimation_error
from repro.core import CodeTomography, EstimationOptions
from repro.errors import EstimationError
from repro.markov.builders import BranchParameterization
from repro.profiling import TimingProfiler
from repro.util.tables import format_float
from repro.workloads.registry import all_workloads

__all__ = ["Workload"]

#: The seed at which the hybrid loop must reproduce F1's golden rows.
F1_SEED = 2015
F1_GOLDEN = Path(__file__).resolve().parent.parent / "benchmarks" / "results" / "f1.txt"


@dataclass
class ProgramOutcome:
    """What one program's trip through the loop produced."""

    scored: Scored
    procedures: int
    failed: int
    samples: int
    distinct_samples: int


class Workload:
    """``loop-hybrid`` / ``loop-moments``: one pass = six programs through the loop."""

    def __init__(self, seed: int, method: str) -> None:
        self.seed = seed
        self.method = method
        started = time.perf_counter()
        self.programs = [(spec, spec.program()) for spec in all_workloads()]
        self.setup_seconds = {"lang.compile_s": time.perf_counter() - started}

    def run_pass(self, timed) -> list[ProgramOutcome]:
        """One timed pass; ``timed(span)`` times and spans each layer call."""
        outcomes = []
        with obs.span("bench.window"):
            for spec, program in self.programs:
                with timed("bench.sim.run"):
                    run = run_program(
                        program, PLATFORM, spec.sensors(rng=DEPLOYMENT_SEED), activations=ACTIVATIONS
                    )
                profiler = TimingProfiler(PLATFORM, rng=self.seed + 1)
                with timed("bench.profiling.collect"):
                    dataset = profiler.collect(run.records)
                options = EstimationOptions(method=self.method, seed=self.seed)
                estimate = None
                with timed("bench.core.estimate"):
                    try:
                        estimate = CodeTomography(program, PLATFORM).estimate(dataset, options)
                    except EstimationError:
                        pass
                parametered = {
                    proc.name: BranchParameterization(proc.cfg).n_parameters
                    for proc in program
                }
                procedures = sum(1 for k in parametered.values() if k)
                if estimate is None:
                    # Place from the uninformed prior so the loop still completes;
                    # every procedure with a branch counts as failed.
                    thetas = {name: np.full(k, 0.5) for name, k in parametered.items()}
                    failed = procedures
                else:
                    thetas = estimate.thetas
                    # A fall-back to the prior is flagged degraded as well.
                    failed = sum(1 for est in estimate.estimates.values() if est.degraded)
                rom_bytes, counters = place_and_evaluate(
                    program, thetas, spec.channels, self.seed, timed
                )
                truth = {
                    proc.name: run.counters.true_branch_probabilities(proc) for proc in program
                }
                outcomes.append(
                    ProgramOutcome(
                        scored=Scored(spec.name, thetas, truth, rom_bytes, counters),
                        procedures=procedures,
                        failed=failed,
                        samples=sum(xs.size for xs in dataset.samples.values()),
                        distinct_samples=sum(
                            np.unique(xs).size for xs in dataset.samples.values()
                        ),
                    )
                )
        return outcomes

    def quality(self, outcomes: list[ProgramOutcome]) -> dict[str, float]:
        """The exact (seed-determined) metrics of one pass."""
        return quality([o.scored for o in outcomes])

    def work(self, outcomes: list[ProgramOutcome]) -> tuple[int, int]:
        """``(attempted, failed)``: procedure estimates of one pass."""
        return (
            sum(o.procedures for o in outcomes),
            sum(o.failed for o in outcomes),
        )

    def layer_counts(self, outcomes: list[ProgramOutcome]) -> dict[str, float]:
        """Per-layer counts the trace does not carry."""
        samples = sum(o.samples for o in outcomes)
        return {
            "placement.procedures": sum(len(o.scored.truth) for o in outcomes),
            "profiling.samples": samples,
            "profiling.distinct_duration_frac": (
                sum(o.distinct_samples for o in outcomes) / samples
            ),
        }

    def report(self, outcomes: list[ProgramOutcome], loop_s: float) -> list[str]:
        """Human-readable lines describing one pass's work."""
        return [
            f"programs: {', '.join(o.scored.name for o in outcomes)}; "
            f"method={self.method}; activations={ACTIVATIONS} profiled + "
            f"{ACTIVATIONS} evaluated per program"
        ]

    def check(self, passes: list[list[ProgramOutcome]]) -> list[str]:
        """Correctness problems in the passes' outputs (empty when correct)."""
        first = [o.scored for o in passes[0]]
        problems = [p for one in first for p in theta_problems(one.name, one.thetas)]
        for index, later in enumerate(passes[1:], start=2):
            for a, b in zip(first, (o.scored for o in later)):
                if (
                    not same_thetas(a.thetas, b.thetas)
                    or a.counters != b.counters
                    or a.rom_bytes != b.rom_bytes
                ):
                    problems.append(f"{a.name}: pass {index} differs from pass 1")
        if self.method == "hybrid" and self.seed == F1_SEED:
            problems.extend(_check_f1(first))
        return problems


def _check_f1(scored: list[Scored]) -> list[str]:
    """The hybrid loop at seed 2015 must reproduce F1's code-tomography rows."""
    golden = {}
    for line in F1_GOLDEN.read_text().splitlines():
        cells = line.split()
        if len(cells) == 4 and cells[1] == "code-tomography":
            golden[cells[0]] = (cells[2], cells[3])
    problems = []
    if len(golden) != len(scored):
        problems.append(f"{F1_GOLDEN.name}: expected {len(scored)} rows, found {len(golden)}")
    for one in scored:
        row = (
            format_float(program_estimation_error(one.thetas, one.truth, "mae"), 4),
            format_float(program_estimation_error(one.thetas, one.truth, "max"), 4),
        )
        if golden.get(one.name) != row:
            problems.append(
                f"{one.name}: mae/max {row} != {F1_GOLDEN.name} {golden.get(one.name)}"
            )
    return problems
