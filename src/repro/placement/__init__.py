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

from repro.util.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "layout": ("Layout", "ProgramLayout", "ResolvedBranch"),
        "baselines": ("source_order_layout", "random_program_layout"),
        "chains": ("build_chains",),
        "optimizer": ("optimize_layout", "optimize_program_layout"),
        "refine": (
            "control_transfer_cost",
            "refine_layout",
            "optimize_refined_layout",
            "optimize_refined_program_layout",
        ),
        "mispredict": ("LayoutMetrics", "evaluate_program_layout"),
        "rom": ("LayoutRom", "layout_rom", "program_layout_rom"),
    },
)
