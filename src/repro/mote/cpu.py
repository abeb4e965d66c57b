"""CPU timing: straight-line costs plus layout-dependent control transfer.

The straight-line half delegates to :class:`repro.ir.costmodel.CostModel`.
The control-transfer half is what placement optimizes:

* an **unconditional jump** to the next block in flash is free (it is elided
  by the layout); to anywhere else it costs ``jump_cycles``;
* a **conditional branch** always pays ``branch_base_cycles``; if control
  leaves the fall-through path it additionally pays ``taken_extra_cycles``
  (fetch redirect), and if the static scheme guessed wrong it pays
  ``mispredict_penalty_cycles`` (pipeline refill);
* **returns** pay the cost model's return overhead.

Every price here is a constant of the branch site and the layout, which is
why the simulator resolves them once per compiled procedure and derives
its hardware counters from execution counts (see
:mod:`repro.sim.interpreter`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.mote.predictor import BTFNPredictor, StaticPredictor

__all__ = ["CpuModel"]


@dataclass(frozen=True)
class CpuModel:
    """An in-order mote MCU's cycle accounting.

    Straight-line block costs come from :attr:`cost_model`
    (``cpu.cost_model.block_cycles(block)``).
    """

    cost_model: CostModel = DEFAULT_COST_MODEL
    predictor: StaticPredictor = None  # type: ignore[assignment]
    jump_cycles: int = 2
    branch_base_cycles: int = 1
    taken_extra_cycles: int = 1
    mispredict_penalty_cycles: int = 3

    def __post_init__(self) -> None:
        if self.predictor is None:
            object.__setattr__(self, "predictor", BTFNPredictor())

    def jump_cost(self, *, fallthrough: bool) -> int:
        """Cost of an unconditional transfer (0 when elided by layout)."""
        return 0 if fallthrough else self.jump_cycles

    def return_cost(self) -> int:
        """Cost of leaving a procedure."""
        return self.cost_model.return_overhead

    def branch_cost(self, *, taken: bool, backward_target: bool) -> int:
        """Cycle cost of one conditional branch.

        ``taken`` is layout-relative (control left the fall-through path);
        ``backward_target`` describes where the taken-target sits in flash,
        which is what a static BTFN scheme keys on.
        """
        cycles = self.branch_base_cycles
        if taken:
            cycles += self.taken_extra_cycles
        if taken != self.predictor.predicts_taken(backward_target=backward_target):
            cycles += self.mispredict_penalty_cycles
        return cycles
