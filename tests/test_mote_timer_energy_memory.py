"""Tests for the timestamp timer, energy model, and memory map."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MoteError
from repro.lang import compile_source
from repro.mote import EnergyModel, MemoryMap, TimestampTimer


class TestTimestampTimer:
    def test_ideal_timer_is_exact(self):
        t = TimestampTimer(cycles_per_tick=1)
        assert t.measure_cycles(100, 250) == 150.0

    def test_quantization_rounds_to_tick_multiples(self):
        t = TimestampTimer(cycles_per_tick=64)
        measured = t.measure_cycles(0, 100)
        assert measured % 64 == 0
        assert measured in (64.0, 128.0)

    def test_quantization_error_bounded_by_one_tick(self):
        t = TimestampTimer(cycles_per_tick=32)
        for start in range(0, 200, 7):
            measured = t.measure_cycles(start, start + 123)
            assert abs(measured - 123) < 32

    def test_mean_error_is_small_over_phases(self):
        t = TimestampTimer(cycles_per_tick=50)
        rng = np.random.default_rng(0)
        durations = [
            t.measure_cycles(s, s + 333) for s in rng.integers(0, 10_000, 2000)
        ]
        assert np.mean(durations) == pytest.approx(333, abs=5)

    def test_jitter_changes_measurements(self):
        t = TimestampTimer(cycles_per_tick=1, jitter_cycles=10.0)
        rng = np.random.default_rng(0)
        values = {t.measure_cycles(1000, 1500, rng) for _ in range(20)}
        assert len(values) > 1

    def test_tick_monotone_in_cycle(self):
        t = TimestampTimer(cycles_per_tick=10)
        ticks = [t.tick_at(c) for c in range(0, 100, 3)]
        assert ticks == sorted(ticks)

    def test_rejects_bad_parameters(self):
        with pytest.raises(MoteError):
            TimestampTimer(cycles_per_tick=0)
        with pytest.raises(MoteError):
            TimestampTimer(jitter_cycles=-1)
        with pytest.raises(MoteError):
            TimestampTimer(phase=1.5)

    def test_rejects_negative_interval(self):
        t = TimestampTimer()
        with pytest.raises(MoteError):
            t.measure_cycles(100, 50)

    def test_resolution_property(self):
        assert TimestampTimer(cycles_per_tick=225).resolution_cycles == 225


class TestEnergyModel:
    def test_cpu_energy_scales_linearly(self):
        e = EnergyModel()
        assert e.cpu_mj(2000) == pytest.approx(2 * e.cpu_mj(1000))

    def test_radio_dominates_per_event(self):
        e = EnergyModel()
        # One packet should cost far more than one ADC conversion.
        assert e.radio_mj(1) > 10 * e.adc_mj(1)

    def test_total_is_sum_of_parts(self):
        e = EnergyModel()
        total = e.total_mj(cycles=10_000, conversions=5, packets=2)
        assert total == pytest.approx(e.cpu_mj(10_000) + e.adc_mj(5) + e.radio_mj(2))

    def test_rejects_negative_counts(self):
        e = EnergyModel()
        with pytest.raises(MoteError):
            e.cpu_mj(-1)
        with pytest.raises(MoteError):
            e.adc_mj(-1)
        with pytest.raises(MoteError):
            e.radio_mj(-1)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(MoteError):
            EnergyModel(voltage=0.0)


class TestMemoryMap:
    def setup_method(self):
        self.mm = MemoryMap()
        self.prog = compile_source(
            """
            global g = 1;
            array buf[16];
            proc helper(a) { return a + 1; }
            proc main() { var x = helper(buf[0]); g = x; }
            """
        )

    def test_program_rom_positive_and_wide_ops_cost_more(self):
        rom = self.mm.program_rom(self.prog)
        assert rom > 0
        # A call instruction occupies a wide word.
        from repro.ir import call, nop
        from repro.ir.block import BasicBlock

        wide = BasicBlock("w")
        wide.append(call("f"))
        narrow = BasicBlock("n")
        narrow.append(nop())
        assert self.mm.instruction_rom(wide.instructions[0].opcode) > self.mm.instruction_rom(
            narrow.instructions[0].opcode
        )

    def test_ram_counts_globals_arrays_and_stack(self):
        ram = self.mm.program_ram(self.prog)
        # 1 global scalar (2B) + 16-entry array (32B) + 2 procedures' stack.
        expected_data = 2 + 32
        assert ram >= expected_data + 2 * self.mm.stack_bytes_per_procedure

    def test_workloads_fit_device(self):
        assert self.mm.program_rom(self.prog) <= self.mm.flash_bytes
        assert self.mm.program_ram(self.prog) <= self.mm.ram_bytes

    def test_block_rom_includes_terminator(self):
        from repro.ir.block import BasicBlock
        from repro.ir.instructions import Return

        blk = BasicBlock("b")
        blk.close(Return())
        assert self.mm.block_rom(blk) == self.mm.word_bytes
