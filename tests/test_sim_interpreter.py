"""Tests for the CFG interpreter: value semantics, effects, cycle accounting."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.lang import compile_source
from repro.mote import MICAZ_LIKE, ConstantSensor, SensorSuite
from repro.sim import Interpreter, run_program
from repro.workloads.registry import workload_by_name


def run_main(src: str, sensor_value: int = 0, activations: int = 1):
    prog = compile_source(src)
    sensors = SensorSuite({"adc": ConstantSensor(sensor_value)}, rng=0)
    interp = Interpreter(prog, MICAZ_LIKE, sensors)
    for _ in range(activations):
        interp.run_activation()
    return interp


class TestValueSemantics:
    def test_arithmetic(self):
        interp = run_main(
            "global r; proc main() { r = (7 + 3) * 2 - 5; }"
        )
        assert interp.globals["r"] == 15

    def test_division_truncates_toward_zero(self):
        interp = run_main(
            "global a; global b; proc main() { a = (0 - 7) / 2; b = 7 / 2; }"
        )
        assert interp.globals["a"] == -3  # C semantics, not Python floor
        assert interp.globals["b"] == 3

    def test_modulo_follows_c_semantics(self):
        interp = run_main("global r; proc main() { r = (0 - 7) % 3; }")
        assert interp.globals["r"] == -1

    def test_division_by_zero_aborts(self):
        with pytest.raises(SimulationError, match="division by zero"):
            run_main("global r; proc main() { var z = 0; r = 5 / z; }")

    def test_sixteen_bit_wraparound(self):
        interp = run_main("global r; proc main() { r = 30000 + 30000; }")
        assert interp.globals["r"] == 30000 + 30000 - 65536

    def test_comparison_results_are_bits(self):
        interp = run_main("global a; global b; proc main() { a = 3 < 5; b = 5 < 3; }")
        assert interp.globals["a"] == 1
        assert interp.globals["b"] == 0

    def test_unary_minus_and_not(self):
        interp = run_main("global a; global b; proc main() { a = -5; b = !7; }")
        assert interp.globals["a"] == -5
        assert interp.globals["b"] == 0

    def test_shift_count_masked(self):
        interp = run_main("global r; proc main() { r = 1 << 20; }")
        # 20 & 15 = 4 -> 16.
        assert interp.globals["r"] == 16

    def test_eager_logical_operators(self):
        interp = run_main(
            "global r; proc main() { r = (3 > 1) && (2 > 1); }"
        )
        assert interp.globals["r"] == 1


class TestMemorySemantics:
    def test_array_store_and_load(self):
        interp = run_main(
            "array buf[4]; global r; proc main() { buf[2] = 42; r = buf[2]; }"
        )
        assert interp.globals["r"] == 42
        assert interp.arrays["buf"] == [0, 0, 42, 0]

    def test_array_bounds_checked(self):
        with pytest.raises(SimulationError, match="out of bounds"):
            run_main("array buf[4]; proc main() { buf[4] = 1; }")

    def test_negative_index_rejected(self):
        with pytest.raises(SimulationError, match="out of bounds"):
            run_main("array buf[4]; proc main() { var i = 0 - 1; buf[i] = 1; }")

    def test_globals_persist_across_activations(self):
        interp = run_main("global c = 0; proc main() { c = c + 1; }", activations=5)
        assert interp.globals["c"] == 5

    def test_locals_do_not_leak_between_activations(self):
        # A 'var' must re-initialize every activation; if state leaked the
        # second activation would observe the first one's increment.
        interp = run_main(
            "global r; proc main() { var x = 0; x = x + 1; r = x; }",
            activations=3,
        )
        assert interp.globals["r"] == 1


class TestCallsAndEffects:
    def test_call_passes_arguments_and_returns(self):
        interp = run_main(
            """
            global r;
            proc add(a, b) { return a + b; }
            proc main() { r = add(20, 22); }
            """
        )
        assert interp.globals["r"] == 42

    def test_nested_calls(self):
        interp = run_main(
            """
            global r;
            proc inc(a) { return a + 1; }
            proc twice(a) { return inc(inc(a)); }
            proc main() { r = twice(5); }
            """
        )
        assert interp.globals["r"] == 7

    def test_callee_sees_own_frame(self):
        interp = run_main(
            """
            global r;
            proc f(x) { x = x + 100; return x; }
            proc main() { var x = 1; r = f(x) + x; }
            """
        )
        assert interp.globals["r"] == 101 + 1

    def test_send_reaches_radio(self):
        interp = run_main("proc main() { send(7); send(9); }")
        assert interp.radio.values() == [7, 9]
        assert interp.counters.sends == 2

    def test_led_masks_to_three_bits(self):
        interp = run_main("proc main() { led(15); }")
        assert interp.leds == 7

    def test_sense_reads_suite(self):
        interp = run_main("global r; proc main() { r = sense(adc); }", sensor_value=321)
        assert interp.globals["r"] == 321
        assert interp.counters.sense_reads == 1

    def test_invocation_records_nested_depths(self):
        interp = run_main(
            """
            proc leaf() { }
            proc main() { leaf(); }
            """
        )
        by_name = {r.procedure: r for r in interp.records}
        assert by_name["leaf"].depth == 1
        assert by_name["main"].depth == 0
        # Callee interval nests inside the caller's.
        assert by_name["main"].entry_cycle <= by_name["leaf"].entry_cycle
        assert by_name["leaf"].exit_cycle <= by_name["main"].exit_cycle

    def test_finished_program_is_freed_by_reference_counting(self):
        # With the cycle collector off, only reference counting can free the
        # compiled code: no generated function may reach itself.
        spec = workload_by_name("tinydb-agg")
        gc.disable()
        try:
            interp = Interpreter(spec.program(), MICAZ_LIKE, spec.sensors(rng=1))
            interp.run_activation()
            aggregate = weakref.ref(interp._compiled.functions["aggregate"])
            del interp
            assert aggregate() is None
        finally:
            gc.enable()


class TestExecutionBounds:
    def test_runaway_loop_hits_step_limit(self):
        prog = compile_source(
            "global x = 1; proc main() { while (x > 0) { x = 1; } }"
        )
        sensors = SensorSuite({"adc": ConstantSensor(0)}, rng=0)
        interp = Interpreter(prog, MICAZ_LIKE, sensors, max_steps_per_invocation=100)
        with pytest.raises(SimulationError, match="exceeded"):
            interp.run_activation()

    def test_wrong_arity_invoke_rejected(self):
        prog = compile_source("proc f(a) { } proc main() { f(1); }")
        sensors = SensorSuite({"adc": ConstantSensor(0)}, rng=0)
        interp = Interpreter(prog, MICAZ_LIKE, sensors)
        with pytest.raises(SimulationError, match="expects 1 args"):
            interp.invoke("f", [])


class TestCycleAccounting:
    def test_cycles_advance_monotonically(self):
        interp = run_main("proc main() { var x = 1 + 2; led(x); }", activations=3)
        assert interp.cycle > 0
        entries = [r.entry_cycle for r in interp.records]
        assert entries == sorted(entries)

    def test_duration_is_path_dependent(self, demo_program, demo_sensors):
        result = run_program(demo_program, MICAZ_LIKE, demo_sensors, activations=200)
        durations = result.durations_for("work")
        assert len(set(durations.tolist())) >= 2  # two arms, two costs

    def test_deterministic_program_has_constant_duration(self):
        interp = run_main("proc main() { var x = 5 * 5; led(x); }", activations=10)
        durations = {r.duration_cycles for r in interp.records}
        assert len(durations) == 1
