"""Tests for the three profiling approaches and overhead accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ProfilingError
from repro.mote import MICAZ_LIKE, TimestampTimer
from repro.profiling import (
    EdgeProfiler,
    SamplingProfiler,
    TimingDataset,
    TimingProfiler,
    edge_instrumentation_overhead_from_counts,
    sampling_overhead_from_counts,
    timing_overhead_from_counts,
)
from repro.sim import run_program


@pytest.fixture(scope="module")
def demo_run():
    from repro.lang import compile_source
    from repro.mote import IIDSensor, SensorSuite
    from tests.conftest import DEMO_SOURCE

    prog = compile_source(DEMO_SOURCE, "demo")
    sensors = SensorSuite(
        {"adc0": IIDSensor(560, 200), "adc1": IIDSensor(560, 200)}, rng=7
    )
    result = run_program(prog, MICAZ_LIKE, sensors, activations=2000)
    return prog, result


class TestTimingProfiler:
    def test_collects_per_procedure_samples(self, demo_run):
        prog, result = demo_run
        ds = TimingProfiler(MICAZ_LIKE, rng=1).collect(result.records)
        assert set(ds.procedures()) == {"work", "main"}
        assert ds.count("main") == 2000
        assert ds.count("work") == 2000

    def test_measurements_are_tick_quantized(self, demo_run):
        prog, result = demo_run
        cpt = MICAZ_LIKE.timer.cycles_per_tick
        ds = TimingProfiler(MICAZ_LIKE, rng=1).collect(result.records)
        assert np.all(np.mod(ds.durations("main"), cpt) == 0)

    def test_quantized_mean_tracks_exact_mean(self, demo_run):
        prog, result = demo_run
        ds = TimingProfiler(MICAZ_LIKE, rng=1).collect(result.records)
        exact = result.durations_for("main").mean()
        measured = ds.durations("main").mean()
        assert measured == pytest.approx(exact, abs=MICAZ_LIKE.timer.cycles_per_tick)

    def test_unknown_procedure_raises(self):
        ds = TimingDataset({})
        with pytest.raises(ProfilingError):
            ds.durations("nope")
        assert ds.count("nope") == 0

    def test_moments_match_numpy(self, demo_run):
        prog, result = demo_run
        ds = TimingProfiler(MICAZ_LIKE, rng=1).collect(result.records)
        mean, var, mu3 = ds.moments("work")
        xs = ds.durations("work")
        assert mean == pytest.approx(xs.mean())
        assert var == pytest.approx(xs.var())

    def test_subsample_caps_count(self, demo_run):
        prog, result = demo_run
        ds = TimingProfiler(MICAZ_LIKE, rng=1).collect(result.records)
        sub = ds.subsample(100, rng=0)
        assert sub.count("main") == 100
        assert sub.count("work") == 100

    def test_subsample_noop_when_small(self):
        ds = TimingDataset({"p": np.array([1.0, 2.0])})
        sub = ds.subsample(10, rng=0)
        assert sub.count("p") == 2

    def test_subsample_rejects_negative(self, demo_run):
        prog, result = demo_run
        ds = TimingProfiler(MICAZ_LIKE, rng=1).collect(result.records)
        with pytest.raises(ProfilingError):
            ds.subsample(-1)


class TestEdgeProfiler:
    def test_profile_matches_counters(self, demo_run):
        prog, result = demo_run
        profile = EdgeProfiler(prog).collect(result.counters)
        for proc in prog:
            expected = result.counters.true_branch_probabilities(proc)
            assert profile.theta(proc.name) == pytest.approx(expected)

    def test_dynamic_edges_counted(self, demo_run):
        prog, result = demo_run
        profile = EdgeProfiler(prog).collect(result.counters)
        assert profile.dynamic_edges() == sum(result.counters.edge_counts.values())
        assert profile.static_edges() > 0

    def test_unknown_procedure_raises(self, demo_run):
        prog, result = demo_run
        profile = EdgeProfiler(prog).collect(result.counters)
        with pytest.raises(ProfilingError):
            profile.theta("ghost")


class TestSamplingProfiler:
    def test_produces_theta_for_every_procedure(self, demo_run):
        prog, result = demo_run
        profiler = SamplingProfiler(prog, MICAZ_LIKE, interval_cycles=512, rng=3)
        profile = profiler.collect(result.counters, result.total_cycles)
        for proc in prog:
            assert profile.theta(proc.name).shape == (proc.branch_count(),)

    def test_dense_sampling_approximates_truth_on_diamond(self, demo_run):
        prog, result = demo_run
        profiler = SamplingProfiler(prog, MICAZ_LIKE, interval_cycles=16, rng=3)
        profile = profiler.collect(result.counters, result.total_cycles)
        truth = result.counters.true_branch_probabilities(prog.procedure("work"))
        # The work diamond has single-predecessor arms -> sampling unbiased.
        assert profile.theta("work")[0] == pytest.approx(truth[0], abs=0.1)

    def test_zero_samples_falls_back_to_prior(self, demo_run):
        prog, result = demo_run
        profiler = SamplingProfiler(prog, MICAZ_LIKE, interval_cycles=10**9, rng=3)
        profile = profiler.collect(result.counters, result.total_cycles)
        assert profile.samples_taken == 0
        assert np.all(profile.theta("work") == 0.5)

    def test_rejects_bad_interval(self, demo_run):
        prog, result = demo_run
        with pytest.raises(ProfilingError):
            SamplingProfiler(prog, MICAZ_LIKE, interval_cycles=0)


def edge_overhead(prog, result):
    dynamic_edges = sum(result.counters.edge_counts.values())
    return edge_instrumentation_overhead_from_counts(prog, dynamic_edges, MICAZ_LIKE)


def timing_overhead(prog, result):
    invocations = sum(result.counters.invocations.values())
    return timing_overhead_from_counts(prog, invocations, MICAZ_LIKE)


class TestOverhead:
    def test_tomography_cheaper_than_instrumentation_in_ram_on_suite(self):
        # RAM: instrumentation pays per static edge, tomography per
        # procedure.  Edges outnumber procedures by enough that the suite
        # aggregate must favour tomography clearly (oscilloscope, with its
        # unusually tiny 4-edges-per-procedure shape, is the one near-tie).
        from repro.workloads import all_workloads

        edge_total = timing_total = 0
        for spec in all_workloads():
            prog = spec.program()
            result = run_program(
                prog, MICAZ_LIKE, spec.sensors(rng=0), activations=50
            )
            edge_total += edge_overhead(prog, result).ram_bytes
            timing_total += timing_overhead(prog, result).ram_bytes
        assert timing_total < 0.7 * edge_total

    def test_tomography_runtime_scales_with_invocations_not_edges(self, demo_run):
        prog, result = demo_run
        timing = timing_overhead(prog, result)
        invocations = sum(result.counters.invocations.values())
        assert timing.runtime_cycles == pytest.approx(invocations * 25.0)

    def test_edge_runtime_scales_with_dynamic_edges(self, demo_run):
        prog, result = demo_run
        edge = edge_overhead(prog, result)
        dynamic = sum(result.counters.edge_counts.values())
        assert edge.runtime_cycles == pytest.approx(dynamic * 14.0)

    def test_sampling_overhead_scales_with_interval(self, demo_run):
        prog, result = demo_run
        fast = sampling_overhead_from_counts(prog, result.total_cycles, MICAZ_LIKE, 256)
        slow = sampling_overhead_from_counts(prog, result.total_cycles, MICAZ_LIKE, 4096)
        assert fast.runtime_cycles > slow.runtime_cycles

    def test_overhead_fraction_requires_positive_base(self, demo_run):
        prog, result = demo_run
        report = timing_overhead(prog, result)
        with pytest.raises(ProfilingError):
            report.runtime_overhead_fraction(0)
        assert report.runtime_overhead_fraction(result.total_cycles) > 0
