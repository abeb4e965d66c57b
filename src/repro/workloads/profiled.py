"""One workload profiled once: the run every estimate starts from.

:func:`profile_workload` runs a registered workload on a mote, collects its
procedure timings through the platform timer, and reads the ground-truth
branch probabilities off the run's counters.  The experiments
(:func:`repro.experiments.common.profiled_run`) and the serve fleet's
sample pools (:mod:`repro.serve.loadgen`) both start here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ir.program import Program
from repro.mote.platform import Platform
from repro.placement.layout import ProgramLayout
from repro.profiling.timing_profiler import TimingDataset, TimingProfiler
from repro.sim.runner import run_program
from repro.sim.trace import RunResult
from repro.workloads.registry import WorkloadSpec

__all__ = ["ProfiledRun", "profile_workload"]


@dataclass
class ProfiledRun:
    """One workload executed once, with everything later stages need."""

    spec: WorkloadSpec
    program: Program
    result: RunResult
    dataset: TimingDataset
    truth: dict[str, np.ndarray]


def profile_workload(
    spec: WorkloadSpec,
    platform: Platform,
    activations: int,
    seed: int,
    scenario: str = "default",
    layout: Optional[ProgramLayout] = None,
) -> ProfiledRun:
    """Run ``spec`` for ``activations`` on sensor inputs drawn from ``seed``
    under ``scenario``, and collect its timing dataset (timer jitter from
    ``seed + 1``) and ground truth."""
    program = spec.program()
    sensors = spec.sensors(scenario=scenario, rng=seed)
    result = run_program(program, platform, sensors, activations=activations, layout=layout)
    dataset = TimingProfiler(platform, rng=seed + 1).collect(result.records)
    truth = {
        proc.name: result.counters.true_branch_probabilities(proc) for proc in program
    }
    return ProfiledRun(
        spec=spec, program=program, result=result, dataset=dataset, truth=truth
    )
