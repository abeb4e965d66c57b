"""Profiling budgets: hook placement under RAM, collection under sample caps.

Two independent budget axes live here.  :class:`SampleBudget` caps how many
timing *measurements* a profiling campaign may spend — the paper's central
cost axis, consumed by the streaming estimator's convergence policy
(:mod:`repro.core.online`): collection stops when every CI is tight enough
**or** the budget is exhausted, whichever comes first.

The rest of the module is hook *placement* under a RAM budget.  A deployment
may not afford timing hooks on *every* procedure — each costs
:data:`~repro.profiling.overhead.TIMING_RAM_BYTES_PER_PROC` bytes of
accumulator RAM plus per-invocation cycles.  This planner picks which
procedures to instrument:

* procedures without conditional branches contribute nothing — never pick;
* every instrumented procedure constrains its own parameters directly, so
  value is first ordered by parameter count;
* hot procedures (more invocations per activation) produce more samples per
  joule, breaking ties;
* callers of *un*-instrumented callees suffer (callee moments must come
  from the prior), so callees of selected procedures are preferred next.

The output is a plain plan object the caller can apply by filtering the
:class:`~repro.profiling.timing_profiler.TimingDataset` — procedures left
out simply have no samples, which the estimator already handles by falling
back to the prior with a warning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.errors import ProfilingError
from repro.ir.program import Program
from repro.profiling.overhead import TIMING_RAM_BYTES_PER_PROC
from repro.profiling.timing_profiler import TimingDataset

__all__ = ["SampleBudget", "HookPlan", "plan_hooks", "apply_plan"]


@dataclass(frozen=True)
class SampleBudget:
    """Cap on how many timing samples a profiling campaign may spend.

    ``max_total`` bounds the sum over all procedures.
    """

    max_total: int

    def __post_init__(self) -> None:
        if self.max_total < 1:
            raise ProfilingError(f"max_total must be >= 1, got {self.max_total}")

    def exhausted(self, counts: Mapping[str, int]) -> bool:
        """True once the per-procedure sample ``counts`` sum to the cap."""
        return sum(counts.values()) >= self.max_total


@dataclass(frozen=True)
class HookPlan:
    """Which procedures get timing hooks, and what that costs."""

    selected: tuple[str, ...]
    skipped: tuple[str, ...]
    ram_bytes: int
    covered_parameters: int
    total_parameters: int

    @property
    def coverage(self) -> float:
        """Fraction of branch parameters directly observable under the plan."""
        if self.total_parameters == 0:
            return 1.0
        return self.covered_parameters / self.total_parameters


def plan_hooks(
    program: Program,
    ram_budget_bytes: int,
    invocation_weights: Optional[Mapping[str, float]] = None,
) -> HookPlan:
    """Select procedures to instrument within ``ram_budget_bytes``.

    ``invocation_weights`` optionally supplies expected invocations per
    activation (e.g. from a prior run's counters); procedures default to
    weight 1.  Greedy by (parameters, weight) value per RAM byte — optimal
    here because every hook costs the same.
    """
    if ram_budget_bytes < 0:
        raise ProfilingError(f"ram_budget_bytes must be >= 0, got {ram_budget_bytes}")
    weights = dict(invocation_weights or {})

    candidates = []
    total_parameters = 0
    for proc in program:
        params = proc.branch_count()
        total_parameters += params
        if params == 0:
            continue
        weight = float(weights.get(proc.name, 1.0))
        candidates.append((params, weight, proc.name))
    # Highest parameter count first, then hotter procedures, then name.
    candidates.sort(key=lambda c: (-c[0], -c[1], c[2]))

    selected: list[str] = []
    covered = 0
    spent = 0
    for params, _, name in candidates:
        if spent + TIMING_RAM_BYTES_PER_PROC > ram_budget_bytes:
            continue
        selected.append(name)
        covered += params
        spent += TIMING_RAM_BYTES_PER_PROC
    skipped = [p.name for p in program if p.name not in selected]
    return HookPlan(
        selected=tuple(selected),
        skipped=tuple(skipped),
        ram_bytes=spent,
        covered_parameters=covered,
        total_parameters=total_parameters,
    )


def apply_plan(dataset: TimingDataset, plan: HookPlan) -> TimingDataset:
    """Restrict a dataset to the procedures the plan instruments.

    Models what the mote would actually upload: procedures without hooks
    produce no measurements at all.
    """
    return TimingDataset(
        {
            name: xs.copy()
            for name, xs in dataset.samples.items()
            if name in plan.selected
        }
    )
