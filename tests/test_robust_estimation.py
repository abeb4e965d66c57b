"""The robust estimation path: no-op on clean data, resistant under faults.

Two properties carry the whole design (see ``repro.core.moments_fit``):

* **Strict no-op.** On fault-free data the model-based screen rejects
  nothing, consumes no RNG, and hands the very same array and generator
  state to the very same fit — ``robust=True`` is *bit-identical* to the
  classic estimator, not merely close.
* **Bounded influence.** Under contamination the screen rejects samples
  implausibly far from any model-predicted measurement, never more than
  the ``MAX_REJECT_FRACTION`` breakdown budget; when too little survives
  (or too much was rejected) the estimate is flagged ``degraded`` and
  carries the honest full-width confidence interval instead of NaN.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CodeTomography,
    EstimationOptions,
    fit_moments,
    robust_filter,
)
from repro.core.moments_fit import MAX_REJECT_FRACTION, ROBUST_MIN_SAMPLES
from repro.faults import FaultInjector, FaultModel, collect_timing
from repro.mote import MICAZ_LIKE, TimestampTimer
from repro.placement import Layout
from repro.profiling import TimingProfiler
from repro.sim import ProcedureTimingModel, run_program
from repro.workloads.registry import workload_by_name
from repro.workloads.synthetic import random_estimation_problem


def sense_dataset(activations=400, fault_model=None):
    """A sense run's timing dataset, optionally through a faulty uplink."""
    spec = workload_by_name("sense")
    sensors = spec.sensors(rng=7)
    result = run_program(spec.program(), MICAZ_LIKE, sensors, activations=activations)
    faults = None
    if fault_model is not None:
        faults = FaultInjector.derived(fault_model, 2015, "robust-test")
    dataset, _ = collect_timing(MICAZ_LIKE, result.records, faults=faults, rng=8)
    return spec.program(), result, dataset


def model_for(proc, timer=None):
    platform = MICAZ_LIKE if timer is None else MICAZ_LIKE.with_timer(timer)
    return ProcedureTimingModel(proc, platform, Layout.source_order(proc.cfg))


class TestRobustFilter:
    def test_small_samples_pass_through_untouched(self):
        proc, _ = random_estimation_problem(rng=0, n_branches=2)
        model = model_for(proc)
        xs = [1e12] * (ROBUST_MIN_SAMPLES - 1)  # absurd, but too few to screen
        kept, rejected = robust_filter(model, xs, MICAZ_LIKE.timer)
        assert rejected == 0
        assert list(kept) == xs

    def test_clean_model_samples_survive(self):
        # Durations the model itself could plausibly produce are never
        # rejected — the precondition for the strict no-op.
        proc, theta = random_estimation_problem(rng=3, n_branches=3)
        model = model_for(proc)
        rng = np.random.default_rng(5)
        from repro.core import enumerate_paths

        family = enumerate_paths(model, theta, min_prob=1e-6, max_paths=5000)
        durations = family.duration_means
        probs = family.probabilities(theta)
        xs = rng.choice(durations, size=200, p=probs / probs.sum())
        kept, rejected = robust_filter(model, xs, MICAZ_LIKE.timer)
        assert rejected == 0
        np.testing.assert_array_equal(kept, xs)

    def test_implausible_samples_are_rejected(self):
        proc, theta = random_estimation_problem(rng=3, n_branches=3)
        model = model_for(proc)
        clean = np.full(40, model.moments(np.full(3, 0.5)).mean)
        garbage = np.full(6, 1e9)  # a corrupted 16-bit tick count, in cycles
        kept, rejected = robust_filter(model, np.concatenate([clean, garbage]), MICAZ_LIKE.timer)
        assert rejected == 6
        assert kept.max() < 1e9

    def test_rejection_respects_the_breakdown_budget(self):
        # Even when most of the sample is garbage, at most
        # MAX_REJECT_FRACTION of it may be discarded: beyond the breakdown
        # point a robust estimator must not silently invent a clean sample.
        proc, _ = random_estimation_problem(rng=3, n_branches=3)
        model = model_for(proc)
        clean = np.full(10, model.moments(np.full(3, 0.5)).mean)
        garbage = np.full(30, 1e9)
        xs = np.concatenate([clean, garbage])
        kept, rejected = robust_filter(model, xs, MICAZ_LIKE.timer)
        assert rejected == int(MAX_REJECT_FRACTION * xs.size) == 14
        assert kept.size == xs.size - rejected
        # The worst offenders go first: every clean sample survives.
        assert (kept == clean[0]).sum() == clean.size


class TestStrictNoOpOnCleanData:
    @pytest.mark.parametrize("method", ["moments", "em", "hybrid"])
    def test_robust_estimate_is_bit_identical_when_nothing_is_rejected(self, method):
        program, _, dataset = sense_dataset()
        tomo = CodeTomography(program, MICAZ_LIKE)
        classic = tomo.estimate(
            dataset, EstimationOptions(method=method, seed=2015)
        )
        robust = tomo.estimate(
            dataset, EstimationOptions(method=method, seed=2015, robust=True)
        )
        for name, est in classic.estimates.items():
            rob = robust.estimates[name]
            np.testing.assert_array_equal(rob.theta, est.theta)
            assert rob.n_rejected == 0
            assert not rob.degraded
            assert rob.ci_lower is None and rob.ci_upper is None

    def test_fit_moments_robust_flag_is_exact_noop(self):
        proc, theta = random_estimation_problem(rng=11, n_branches=2)
        model = model_for(proc)
        from repro.core import enumerate_paths

        family = enumerate_paths(model, theta, min_prob=1e-6, max_paths=5000)
        durations = family.duration_means
        probs = family.probabilities(theta)
        xs = np.random.default_rng(4).choice(
            durations, size=120, p=probs / probs.sum()
        )
        classic = fit_moments(model, xs, timer=MICAZ_LIKE.timer, rng=77)
        robust = fit_moments(model, xs, timer=MICAZ_LIKE.timer, rng=77, robust=True)
        np.testing.assert_array_equal(robust.theta, classic.theta)
        assert robust.cost == classic.cost
        assert robust.n_rejected == 0


class TestRobustUnderFaults:
    FAULTED = FaultModel(radio_corrupt=0.15, timer_glitch=0.2)

    def test_robust_beats_classic_under_corruption(self):
        program, result, dataset = sense_dataset(fault_model=self.FAULTED)
        truth = {
            proc.name: result.counters.true_branch_probabilities(proc)
            for proc in program
        }
        tomo = CodeTomography(program, MICAZ_LIKE)
        classic = tomo.estimate(dataset, EstimationOptions(seed=2015))
        robust = tomo.estimate(dataset, EstimationOptions(seed=2015, robust=True))
        from repro.analysis.metrics import program_estimation_error

        classic_mae = program_estimation_error(classic.thetas, truth, "mae")
        robust_mae = program_estimation_error(robust.thetas, truth, "mae")
        assert robust_mae <= classic_mae
        assert sum(e.n_rejected for e in robust.estimates.values()) > 0

    def test_degradation_is_flagged_not_nan(self):
        # Saturating corruption: nearly everything the screen keeps is
        # garbage or nearly everything got rejected — either way the
        # estimate must say so, with the full-width CI and finite numbers.
        program, _, dataset = sense_dataset(
            activations=60, fault_model=FaultModel(radio_corrupt=0.9)
        )
        tomo = CodeTomography(program, MICAZ_LIKE)
        robust = tomo.estimate(dataset, EstimationOptions(seed=2015, robust=True))
        degraded = [e for e in robust.estimates.values() if e.degraded]
        assert degraded
        for est in degraded:
            assert np.all(np.isfinite(est.theta))
            np.testing.assert_array_equal(est.ci_lower, np.zeros(est.theta.size))
            np.testing.assert_array_equal(est.ci_upper, np.ones(est.theta.size))
            assert any("degraded" in w for w in est.warnings)

    def test_no_samples_estimate_is_degraded(self):
        from repro.profiling.timing_profiler import TimingDataset

        program, _, _ = sense_dataset(activations=10)
        tomo = CodeTomography(program, MICAZ_LIKE)
        result = tomo.estimate(TimingDataset({}), EstimationOptions(seed=1))
        for est in result.estimates.values():
            if est.theta.size:
                assert est.degraded
                assert est.method == "prior"
                np.testing.assert_array_equal(est.theta, np.full(est.theta.size, 0.5))


class TestDriftCalibration:
    def test_known_drift_is_corrected_out_of_the_fit(self):
        # A +80 ppm crystal stretches every measured duration; the fit
        # divides it back out, so the estimate matches the drift-free one.
        spec = workload_by_name("sense")
        program = spec.program()
        result = run_program(
            program, MICAZ_LIKE, spec.sensors(rng=7), activations=300
        )
        exact = MICAZ_LIKE.with_timer(TimestampTimer(cycles_per_tick=1))
        drifty = MICAZ_LIKE.with_timer(
            TimestampTimer(cycles_per_tick=1, drift_ppm=80.0)
        )
        clean = TimingProfiler(exact, rng=3).collect(result.records)
        stretched = TimingProfiler(drifty, rng=3).collect(result.records)
        base = CodeTomography(program, exact).estimate(
            clean, EstimationOptions(seed=9)
        )
        corrected = CodeTomography(program, drifty).estimate(
            stretched, EstimationOptions(seed=9)
        )
        for name, est in base.estimates.items():
            if est.theta.size:
                np.testing.assert_allclose(
                    corrected.estimates[name].theta, est.theta, atol=5e-3
                )

    def test_drift_scales_measured_durations(self):
        timer = TimestampTimer(cycles_per_tick=1, drift_ppm=1e5)  # absurd, visible
        gen = np.random.default_rng(0)
        assert timer.measure_cycles(0, 10_000, gen) == pytest.approx(11_000.0)
