"""Tests for the batch runner and the execution-record structures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.lang import compile_source
from repro.mote import MICAZ_LIKE, ConstantSensor, SensorSuite, UniformSensor
from repro.sim import Interpreter, run_program
from repro.sim.trace import ExecutionCounters


@pytest.fixture
def counted_program():
    return compile_source(
        """
        proc main() {
            if (sense(a) > 767) {
                send(1);
            }
            led(0);
        }
        """
    )


class TestRunProgram:
    def test_zero_activations(self, counted_program):
        sensors = SensorSuite({"a": UniformSensor()}, rng=0)
        result = run_program(counted_program, MICAZ_LIKE, sensors, activations=0)
        assert result.activations == 0
        assert result.total_cycles == 0
        assert result.records == []

    def test_negative_activations_rejected(self, counted_program):
        sensors = SensorSuite({"a": UniformSensor()}, rng=0)
        with pytest.raises(ValueError):
            run_program(counted_program, MICAZ_LIKE, sensors, activations=-1)

    def test_energy_increases_with_work(self, counted_program):
        def energy(n):
            sensors = SensorSuite({"a": UniformSensor()}, rng=0)
            return run_program(counted_program, MICAZ_LIKE, sensors, activations=n).energy_mj

        assert energy(200) > energy(20) > 0

    def test_radio_packets_counted(self, counted_program):
        sensors = SensorSuite({"a": ConstantSensor(1000)}, rng=0)
        result = run_program(counted_program, MICAZ_LIKE, sensors, activations=10)
        assert result.radio_packets == 10

    def test_durations_for_missing_procedure_raises(self, counted_program):
        sensors = SensorSuite({"a": UniformSensor()}, rng=0)
        result = run_program(counted_program, MICAZ_LIKE, sensors, activations=5)
        with pytest.raises(SimulationError, match="never ran"):
            result.durations_for("ghost")

    def test_cycles_per_activation(self, counted_program):
        sensors = SensorSuite({"a": UniformSensor()}, rng=0)
        result = run_program(counted_program, MICAZ_LIKE, sensors, activations=100)
        assert result.cycles_per_activation == pytest.approx(
            result.total_cycles / 100
        )

    def test_record_paths_captures_block_sequence(self, counted_program):
        sensors = SensorSuite({"a": ConstantSensor(1000)}, rng=0)
        result = run_program(
            counted_program, MICAZ_LIKE, sensors, activations=1, record_paths=True
        )
        path = result.records[0].path
        assert path is not None
        assert path[0] == "entry"
        # Paths are off by default.
        sensors = SensorSuite({"a": ConstantSensor(1000)}, rng=0)
        result = run_program(counted_program, MICAZ_LIKE, sensors, activations=1)
        assert result.records[0].path is None


class TestExecutionCounters:
    def test_empty_counters_have_zero_rates(self):
        counters = ExecutionCounters()
        assert counters.mispredict_rate == 0.0
        assert counters.taken_rate == 0.0

    def test_unexecuted_branch_gets_prior(self, counted_program):
        # Sensor pinned low: the branch never takes its then arm, but it IS
        # executed, so truth is 0.0 (not the 0.5 prior).
        sensors = SensorSuite({"a": ConstantSensor(0)}, rng=0)
        result = run_program(counted_program, MICAZ_LIKE, sensors, activations=20)
        main = counted_program.procedure("main")
        truth = result.counters.true_branch_probabilities(main)
        assert truth[0] == 0.0
        # A procedure that never ran at all yields the 0.5 prior.
        fresh = ExecutionCounters()
        assert fresh.true_branch_probabilities(main)[0] == 0.5

    def test_counters_consistency_visits_vs_edges(self, demo_program, demo_sensors):
        result = run_program(demo_program, MICAZ_LIKE, demo_sensors, activations=100)
        counters = result.counters
        # Every branch block's visits equal its outgoing arm traversals.
        for proc in demo_program:
            for block in proc.cfg.branch_blocks():
                visits = counters.block_visits[(proc.name, block.label)]
                arms = sum(
                    counters.edge_counts[(proc.name, block.label, arm)] for arm in ("then", "else")
                )
                assert visits == arms

    def test_taken_rate_bounds(self, demo_program, demo_sensors):
        result = run_program(demo_program, MICAZ_LIKE, demo_sensors, activations=100)
        assert 0.0 <= result.counters.taken_rate <= 1.0
        assert 0.0 <= result.counters.mispredict_rate <= 1.0
