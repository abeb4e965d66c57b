"""Tests for layout-aware ROM sizing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lang import compile_source
from repro.mote import MICAZ_LIKE
from repro.placement import (
    Layout,
    layout_rom,
    optimize_program_layout,
    program_layout_rom,
    source_order_layout,
)


@pytest.fixture
def branchy_program():
    return compile_source(
        """
        proc main() {
            if (sense(a) > 700) {
                send(1);
            } else {
                led(0);
            }
            while (sense(b) > 800) {
                led(1);
            }
        }
        """
    )


class TestLayoutRom:
    def test_total_combines_components(self, branchy_program):
        layout = source_order_layout(branchy_program)
        rom = program_layout_rom(layout, MICAZ_LIKE.memory)
        assert rom.total_bytes == (
            rom.base_bytes - rom.elided_jump_bytes + rom.materialized_jump_bytes
        )
        assert rom.base_bytes > 0

    def test_source_order_elides_some_jumps(self, branchy_program):
        # Lowering emits jumps to the textually-next join blocks, which the
        # source-order layout keeps adjacent.
        layout = source_order_layout(branchy_program)
        rom = program_layout_rom(layout, MICAZ_LIKE.memory)
        assert rom.elided_jump_bytes > 0

    def test_reversed_layout_costs_more_rom(self, branchy_program):
        main = branchy_program.procedure("main")
        source = Layout.source_order(main.cfg)
        reversed_order = [main.cfg.entry] + [
            l for l in reversed(main.cfg.labels) if l != main.cfg.entry
        ]
        shuffled = Layout(main.cfg, reversed_order)
        memory = MICAZ_LIKE.memory
        assert layout_rom(shuffled, memory).total_bytes >= layout_rom(source, memory).total_bytes

    def test_optimized_layout_stays_within_budget(self):
        from repro.workloads import all_workloads

        memory = MICAZ_LIKE.memory
        for spec in all_workloads():
            prog = spec.program()
            thetas = {
                p.name: np.full(p.branch_count(), 0.7) for p in prog
            }
            optimized = optimize_program_layout(prog, thetas)
            rom = program_layout_rom(optimized, memory)
            assert rom.total_bytes < memory.flash_bytes
            # Placement may add/remove a few words but not explode the image.
            base = program_layout_rom(source_order_layout(prog), memory)
            assert abs(rom.total_bytes - base.total_bytes) <= 0.25 * base.total_bytes
