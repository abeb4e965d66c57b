"""Analytic layout evaluation: expected mispredictions, taken branches, cycles.

Given a layout and branch probabilities, every metric the evaluation reports
has a closed form: expected branch executions come from the fundamental
matrix, each arm's taken/mispredicted status from the layout resolution, and
expected cycles from the procedure timing model.  The simulator measures the
same quantities dynamically; integration tests check the two agree, and the
benchmark harness uses whichever is appropriate for the experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.ir.procedure import Procedure
from repro.ir.program import Program
from repro.markov.builders import BranchParameterization
from repro.markov.visits import expected_visits
from repro.mote.platform import Platform
from repro.placement.layout import Layout, ProgramLayout
from repro.sim.timing import ProgramTimingModel

__all__ = ["LayoutMetrics", "evaluate_program_layout"]


@dataclass(frozen=True)
class LayoutMetrics:
    """Expected per-invocation (or per-activation) branch/cycle metrics."""

    branches: float
    taken: float
    mispredicts: float
    expected_cycles: float

    @property
    def mispredict_rate(self) -> float:
        """Mispredicted fraction of executed conditional branches."""
        return self.mispredicts / self.branches if self.branches > 0 else 0.0

    @property
    def taken_rate(self) -> float:
        """Taken fraction of executed conditional branches."""
        return self.taken / self.branches if self.branches > 0 else 0.0


def _branch_event_expectations(
    procedure: Procedure,
    layout: Layout,
    theta: Sequence[float],
    platform: Platform,
) -> tuple[float, float, float]:
    """(branches, taken, mispredicts) expected per invocation of ``procedure``."""
    par = BranchParameterization(procedure.cfg)
    vec = par.validate_theta(np.asarray(theta, dtype=float))
    chain = par.chain(vec, {label: 0.0 for label in par.states})
    visits = expected_visits(chain)
    predictor = platform.cpu.predictor

    branches = taken = mispredicts = 0.0
    for k, label in enumerate(par.branch_labels):
        executions = visits[label]
        if executions == 0.0:
            continue
        site = layout.resolve_branch(label)
        predicted = predictor.predicts_taken(backward_target=site.backward_taken_target)
        for arm, p_arm in (("then", float(vec[k])), ("else", 1.0 - float(vec[k]))):
            arm_exec = executions * p_arm
            arm_taken = site.arm_taken(arm)
            branches += arm_exec
            if arm_taken:
                taken += arm_exec
            if arm_taken != predicted:
                mispredicts += arm_exec
    return branches, taken, mispredicts


def _activation_weights(
    program: Program, thetas: Mapping[str, Sequence[float]]
) -> dict[str, float]:
    """Expected invocations of each procedure per top-level activation."""
    weights = {name: 0.0 for name in program.procedures}
    weights[program.entry] = 1.0
    # Process callers before callees: reverse topological (callee-first) order.
    for proc in reversed(program.topological_procedures()):
        w = weights[proc.name]
        if w == 0.0:
            continue
        par = BranchParameterization(proc.cfg)
        vec = np.asarray(thetas.get(proc.name, ()), dtype=float)
        chain = par.chain(vec, {label: 0.0 for label in par.states})
        visits = expected_visits(chain)
        for block in proc.cfg:
            if block.label not in visits:
                continue  # unreachable code never executes
            for callee in block.calls():
                weights[callee] += w * visits[block.label]
    return weights


def evaluate_program_layout(
    program: Program,
    layout: ProgramLayout,
    thetas: Mapping[str, Sequence[float]],
    platform: Platform,
) -> LayoutMetrics:
    """Expected per-activation metrics of the whole program.

    Branch-event expectations are composed over the call graph with each
    procedure weighted by its expected invocations per activation; cycles
    come from the entry procedure's timing model (callee time folded in).
    """
    weights = _activation_weights(program, thetas)
    branches = taken = mispredicts = 0.0
    for proc in program:
        w = weights[proc.name]
        if w == 0.0:
            continue
        b, t, m = _branch_event_expectations(
            proc, layout.layout(proc.name), thetas.get(proc.name, ()), platform
        )
        branches += w * b
        taken += w * t
        mispredicts += w * m
    timing = ProgramTimingModel(program, platform, layout)
    cycles = timing.entry_moments(thetas).mean
    return LayoutMetrics(
        branches=branches, taken=taken, mispredicts=mispredicts, expected_cycles=cycles
    )
