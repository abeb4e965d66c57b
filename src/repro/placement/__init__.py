"""Code placement: block layout, chain formation, and its evaluation.

The feedback half of the paper: branch probabilities (exact or
tomography-estimated) drive a basic-block reordering pass that minimizes
taken branches and static mispredictions.  The package provides:

* :class:`~repro.placement.layout.Layout` /
  :class:`~repro.placement.layout.ProgramLayout` — the flash ordering of
  blocks and the resolution of each branch site against it;
* :mod:`repro.placement.chains` — Pettis–Hansen-style bottom-up chain
  formation from edge frequencies;
* :mod:`repro.placement.optimizer` — the profile-guided placement pass;
* :mod:`repro.placement.baselines` — source-order and random placements;
* :mod:`repro.placement.refine` — BTFN-aware local-search refinement over
  the exact expected control-transfer cost (chains are predictor-blind);
* :mod:`repro.placement.mispredict` — exact expected misprediction / taken /
  cycle metrics for a layout under a branch-probability assignment.
"""

from repro.placement.layout import Layout, ProgramLayout, ResolvedBranch
from repro.placement.baselines import random_program_layout, source_order_layout
from repro.placement.chains import build_chains
from repro.placement.optimizer import optimize_layout, optimize_program_layout
from repro.placement.mispredict import LayoutMetrics, evaluate_program_layout
from repro.placement.refine import (
    control_transfer_cost,
    optimize_refined_layout,
    optimize_refined_program_layout,
    refine_layout,
)
from repro.placement.rom import LayoutRom, layout_rom, program_layout_rom

__all__ = [
    "Layout",
    "ProgramLayout",
    "ResolvedBranch",
    "source_order_layout",
    "random_program_layout",
    "build_chains",
    "optimize_layout",
    "optimize_program_layout",
    "control_transfer_cost",
    "refine_layout",
    "optimize_refined_layout",
    "optimize_refined_program_layout",
    "LayoutMetrics",
    "evaluate_program_layout",
    "LayoutRom",
    "layout_rom",
    "program_layout_rom",
]
