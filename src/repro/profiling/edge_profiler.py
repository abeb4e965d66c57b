"""Full edge instrumentation: the exact (and expensive) baseline profiler.

A real deployment would add a counter increment on every CFG edge.  In the
simulation the interpreter already maintains exact edge counts, so the
profiler reads them directly; what instrumentation *costs* is modelled
separately in :mod:`repro.profiling.overhead`.  The profile this produces is
the oracle: tomography's accuracy (F1/F2/F3) is measured against it, and the
oracle-guided placement (F4/F5) is built from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ProfilingError
from repro.ir.program import Program
from repro.sim.trace import ExecutionCounters

__all__ = ["EdgeProfile", "EdgeProfiler"]


@dataclass
class EdgeProfile:
    """Per-procedure branch probabilities plus raw edge counts."""

    thetas: dict[str, np.ndarray] = field(default_factory=dict)
    edge_counts: dict[tuple[str, str, str], int] = field(default_factory=dict)

    def theta(self, proc_name: str) -> np.ndarray:
        """Branch-probability vector of one procedure (parameter order)."""
        try:
            return self.thetas[proc_name]
        except KeyError:
            raise ProfilingError(f"no edge profile for procedure {proc_name!r}") from None

    def static_edges(self) -> int:
        """Number of distinct instrumented edges that fired at least once."""
        return len(self.edge_counts)

    def dynamic_edges(self) -> int:
        """Total dynamic edge traversals (the increments a mote would pay)."""
        return sum(self.edge_counts.values())


class EdgeProfiler:
    """Derives the exact profile from execution counters."""

    def __init__(self, program: Program) -> None:
        self.program = program

    def collect(self, counters: ExecutionCounters) -> EdgeProfile:
        """Build the oracle profile for every procedure in the program."""
        profile = EdgeProfile()
        for proc in self.program:
            profile.thetas[proc.name] = counters.true_branch_probabilities(proc)
        profile.edge_counts = {
            key: count for key, count in counters.edge_counts.items() if count
        }
        return profile
