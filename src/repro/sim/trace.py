"""Execution records and ground-truth counters.

The interpreter emits one :class:`InvocationRecord` per procedure invocation
(the timestamps tomography will degrade and consume) and maintains an
:class:`ExecutionCounters` with the exact dynamic counts a full-instrumentation
profiler would gather — the oracle every estimator is judged against.  The
compiled interpreter counts into flat slots and folds them into its
:class:`ExecutionCounters` when the object is read or the counts are
reported; its CPU-side hardware counters are the same counts priced through
the compiled layout (see
:meth:`repro.sim.interpreter.Interpreter.report_counters`).

A record is a :class:`~typing.NamedTuple`, one per invocation: as a tuple it
is cheap to build, and it compares equal to a plain tuple of its fields.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from repro.errors import SimulationError
from repro.ir.procedure import Procedure

__all__ = ["InvocationRecord", "ExecutionCounters", "RunResult"]


class InvocationRecord(NamedTuple):
    """One dynamic procedure invocation with exact cycle boundaries."""

    procedure: str
    entry_cycle: int
    exit_cycle: int
    depth: int
    path: Optional[tuple[str, ...]] = None

    @property
    def duration_cycles(self) -> int:
        """Exact execution time in cycles (callee time included)."""
        return self.exit_cycle - self.entry_cycle


@dataclass
class ExecutionCounters:
    """Exact dynamic execution counts, the profiling ground truth.

    Keys are ``(procedure, block_label)`` for visits, ``(procedure,
    block_label, arm)`` for edges, where ``arm`` is ``"then"``, ``"else"``
    or ``"jump"``, and the procedure name for completed invocations.
    """

    block_visits: Counter = field(default_factory=Counter)
    edge_counts: Counter = field(default_factory=Counter)
    branches_executed: int = 0
    taken_total: int = 0
    mispredict_total: int = 0
    sense_reads: int = 0
    sends: int = 0
    invocations: Counter = field(default_factory=Counter)

    # -- derived ground truth --------------------------------------------------

    def true_branch_probabilities(self, proc: Procedure) -> np.ndarray:
        """Empirical then-arm probability per branch, in parameter order.

        Branches never executed get 0.5 (no information — matches the
        estimator's uninformed prior, so accuracy metrics do not reward or
        punish unexercised branches arbitrarily).
        """
        from repro.markov.builders import BranchParameterization

        par = BranchParameterization(proc.cfg)
        theta = np.empty(par.n_parameters)
        for k, label in enumerate(par.branch_labels):
            then_count = self.edge_counts[(proc.name, label, "then")]
            else_count = self.edge_counts[(proc.name, label, "else")]
            total = then_count + else_count
            theta[k] = then_count / total if total else 0.5
        return theta

    @property
    def mispredict_rate(self) -> float:
        """Mispredicted fraction of executed conditional branches."""
        if self.branches_executed == 0:
            return 0.0
        return self.mispredict_total / self.branches_executed

    @property
    def taken_rate(self) -> float:
        """Taken fraction of executed conditional branches."""
        if self.branches_executed == 0:
            return 0.0
        return self.taken_total / self.branches_executed


@dataclass
class RunResult:
    """Aggregate outcome of a batch of activations."""

    program_name: str
    activations: int
    total_cycles: int
    counters: ExecutionCounters
    records: list[InvocationRecord]
    energy_mj: float
    radio_packets: int

    def records_for(self, proc_name: str) -> list[InvocationRecord]:
        """The invocation records of one procedure, in execution order."""
        return [r for r in self.records if r.procedure == proc_name]

    def durations_for(self, proc_name: str) -> np.ndarray:
        """Exact durations (cycles) of one procedure's invocations."""
        durations = [r.duration_cycles for r in self.records_for(proc_name)]
        if not durations:
            raise SimulationError(f"procedure {proc_name!r} never ran")
        return np.asarray(durations, dtype=float)

    @property
    def cycles_per_activation(self) -> float:
        """Mean whole-activation cost."""
        if self.activations == 0:
            return 0.0
        return self.total_cycles / self.activations
