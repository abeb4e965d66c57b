"""Tests for platform presets and the experiment configuration plumbing."""

from __future__ import annotations

import pytest

from repro.experiments.common import ExperimentConfig, profiled_run, tomography_thetas
from repro.markov.moments import RewardMoments
from repro.mote import (
    AlwaysNotTakenPredictor,
    MICAZ_LIKE,
    TELOSB_LIKE,
    TimestampTimer,
)
from repro.workloads import workload_by_name


class TestPlatformPresets:
    def test_presets_are_distinct(self):
        assert MICAZ_LIKE.name != TELOSB_LIKE.name
        assert MICAZ_LIKE.energy.clock_hz != TELOSB_LIKE.energy.clock_hz

    def test_with_predictor_swaps_only_the_predictor(self):
        swapped = MICAZ_LIKE.with_predictor(AlwaysNotTakenPredictor())
        assert isinstance(swapped.cpu.predictor, AlwaysNotTakenPredictor)
        assert swapped.timer == MICAZ_LIKE.timer
        assert swapped.name == MICAZ_LIKE.name
        # The original is untouched (immutability).
        assert not isinstance(MICAZ_LIKE.cpu.predictor, AlwaysNotTakenPredictor)

    def test_with_timer_swaps_only_the_timer(self):
        swapped = MICAZ_LIKE.with_timer(TimestampTimer(cycles_per_tick=225))
        assert swapped.timer.cycles_per_tick == 225
        assert swapped.cpu == MICAZ_LIKE.cpu

    def test_default_timers_are_microsecond_class(self):
        assert MICAZ_LIKE.timer.cycles_per_tick <= 16
        assert TELOSB_LIKE.timer.cycles_per_tick <= 16

    def test_memory_budgets_match_device_class(self):
        assert MICAZ_LIKE.memory.flash_bytes == 128 * 1024
        assert TELOSB_LIKE.memory.ram_bytes == 10 * 1024


class TestExperimentConfig:
    def test_quick_mode_shrinks_activations(self):
        full = ExperimentConfig(activations=3000)
        quick = ExperimentConfig(activations=3000, quick=True)
        assert full.effective_activations == 3000
        assert quick.effective_activations == 300

    def test_quick_mode_has_a_floor(self):
        tiny = ExperimentConfig(activations=500, quick=True)
        assert tiny.effective_activations == 100

    def test_profiled_run_produces_consistent_bundle(self):
        config = ExperimentConfig(quick=True, seed=1)
        run = profiled_run(workload_by_name("blink"), config)
        assert run.result.activations == config.effective_activations
        assert run.dataset.count("main") == config.effective_activations
        assert set(run.truth) == {p.name for p in run.program}

    def test_profiled_run_seed_offset_changes_inputs(self):
        config = ExperimentConfig(quick=True, seed=1)
        a = profiled_run(workload_by_name("sense"), config)
        b = profiled_run(workload_by_name("sense"), config, seed_offset=50)
        assert a.result.total_cycles != b.result.total_cycles

    def test_tomography_thetas_covers_all_procedures(self):
        config = ExperimentConfig(quick=True, seed=1)
        run = profiled_run(workload_by_name("sense"), config)
        thetas = tomography_thetas(run, config, method="moments")
        for proc in run.program:
            assert thetas[proc.name].shape == (proc.branch_count(),)


class TestRewardMomentsType:
    def test_std_and_skewness(self):
        m = RewardMoments(mean=10.0, variance=4.0, third_central=16.0)
        assert m.std == pytest.approx(2.0)

    def test_as_tuple_order(self):
        m = RewardMoments(mean=1.0, variance=2.0, third_central=3.0)
        assert m.as_tuple() == (1.0, 2.0, 3.0)
