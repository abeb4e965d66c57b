"""The sample budget of a profiling campaign.

:class:`SampleBudget` caps how many timing *measurements* a profiling
campaign may spend — the paper's central cost axis, consumed by the
streaming estimator's convergence policy (:mod:`repro.core.online`):
collection stops when every CI is tight enough **or** the budget is
exhausted, whichever comes first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import ProfilingError

__all__ = ["SampleBudget"]


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
