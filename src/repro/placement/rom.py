"""Layout-aware flash sizing.

:class:`~repro.mote.memory.MemoryMap` sizes blocks layout-independently; a
concrete layout then adds or removes control-transfer words:

* an unconditional jump whose target is the next block is elided (saves a
  word);
* a conditional branch with no fall-through arm materializes an extra
  unconditional jump for the other arm (costs a wide word).

Placement trades these against branch penalties, and on a flash-constrained
mote the ROM delta matters; this module prices it so the optimizer's output
can be checked against the device budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.instructions import Branch, Jump
from repro.mote.memory import MemoryMap
from repro.placement.layout import Layout, ProgramLayout

__all__ = ["LayoutRom", "layout_rom", "program_layout_rom"]


@dataclass(frozen=True)
class LayoutRom:
    """Flash cost of one layout, split into its moving parts."""

    base_bytes: int  # layout-independent block bytes
    elided_jump_bytes: int  # saved by fall-through jumps
    materialized_jump_bytes: int  # added by branches without a fall-through arm
    total_bytes: int


def layout_rom(layout: Layout, memory: MemoryMap) -> LayoutRom:
    """Price one procedure's code under ``layout``."""
    cfg = layout.cfg
    base = memory.cfg_rom(cfg)
    elided = 0
    materialized = 0
    for block in cfg:
        term = block.terminator
        if isinstance(term, Jump) and layout.jump_is_elided(block.label):
            elided += memory.word_bytes
        elif isinstance(term, Branch):
            site = layout.resolve_branch(block.label)
            if site.extra_jump_arm is not None:
                materialized += memory.word_bytes
    return LayoutRom(
        base_bytes=base,
        elided_jump_bytes=elided,
        materialized_jump_bytes=materialized,
        total_bytes=base - elided + materialized,
    )


def program_layout_rom(layout: ProgramLayout, memory: MemoryMap) -> LayoutRom:
    """Price a whole program image under its per-procedure layouts."""
    base = elided = materialized = 0
    for _, proc_layout in layout:
        rom = layout_rom(proc_layout, memory)
        base += rom.base_bytes
        elided += rom.elided_jump_bytes
        materialized += rom.materialized_jump_bytes
    return LayoutRom(
        base_bytes=base,
        elided_jump_bytes=elided,
        materialized_jump_bytes=materialized,
        total_bytes=base - elided + materialized,
    )
