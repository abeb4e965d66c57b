"""EM over distinct durations against the per-observation reference E-step.

:class:`repro.core.EMEstimator` runs its E-step once per distinct duration
and gathers the responsibilities back to observation rows;
:func:`tests.estimation_oracle.oracle_fit` runs the E-step over every row
with the tuple-based path family.  Every :class:`EMResult` field must come
out identical — cold fits, hybrid-style starts and warm starts that hand a
family from one fit to the next, as :class:`~repro.core.OnlineEstimator`
does.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.estimator as estimator_module
from repro.core import CodeTomography, EMEstimator, EstimationOptions
from repro.core.online import WARM_PSEUDO_COUNT
from repro.markov.sampling import sample_rewards
from repro.mote import MICAZ_LIKE, TimestampTimer
from repro.placement.layout import ProgramLayout
from repro.profiling import TimingProfiler
from repro.sim import ProgramTimingModel, run_program
from repro.workloads.registry import all_workloads, workload_by_name
from tests.estimation_oracle import (
    assert_same_family,
    oracle_fit,
    oracle_observed_moments,
    synthetic_model,
)

ACTIVATIONS = 200
WORKLOADS = [spec.name for spec in all_workloads()]


def assert_same_result(result, oracle):
    assert np.array_equal(result.theta, oracle.theta)
    assert np.array_equal(result.arm_counts, oracle.arm_counts)
    assert result.log_likelihood == oracle.log_likelihood
    assert result.iterations == oracle.iterations
    assert result.converged == oracle.converged
    assert result.dropped_observations == oracle.dropped_observations
    assert result.n_paths == oracle.n_paths
    assert result.n_samples == oracle.n_samples


def fit_both(em, ys, theta0=None, family=None, oracle_family=None):
    result, family = em.fit_with_family(ys, theta0=theta0, family=family)
    oracle, oracle_family = oracle_fit(em, ys, theta0=theta0, family=oracle_family)
    assert_same_result(result, oracle)
    assert_same_family(family, oracle_family)
    return result, family, oracle_family


def profiled_procedures(name: str):
    """``(model, durations)`` per measured parametered procedure, bottom-up.

    Callers' models fold in their callees' EM estimates, as
    :class:`~repro.core.CodeTomography` builds them.
    """
    spec = workload_by_name(name)
    program = spec.program()
    run = run_program(
        program, MICAZ_LIKE, spec.sensors(rng=2015), activations=ACTIVATIONS
    )
    dataset = TimingProfiler(MICAZ_LIKE, rng=2016).collect(run.records)
    timing = ProgramTimingModel(program, MICAZ_LIKE, ProgramLayout.source_order(program))
    callee_moments = {}
    for proc in program.topological_procedures():
        model = timing.procedure_model(proc.name, callee_moments)
        theta = np.full(model.n_parameters, 0.5)
        if model.n_parameters and dataset.count(proc.name):
            ys = dataset.durations(proc.name)
            yield model, ys
            theta = EMEstimator(model, timer=MICAZ_LIKE.timer).fit(ys).theta
        callee_moments[proc.name] = model.moments(theta)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_fits_match_oracle(workload):
    fitted = 0
    for model, ys in profiled_procedures(workload):
        em = EMEstimator(model, timer=MICAZ_LIKE.timer)
        k = model.n_parameters
        # Cold, and from a hybrid-style start away from 0.5.
        fit_both(em, ys)
        fit_both(em, ys, theta0=np.full(k, 0.8))
        # Warm chain: half the sample cold, then all of it twice, each refit
        # starting from the shrunken previous iterate with its family.
        head = ys[: ys.size // 2]
        result, family, oracle_family = fit_both(em, head)
        n_prev = head.size
        for _ in range(2):
            start = (n_prev * result.theta + WARM_PSEUDO_COUNT * 0.5) / (
                n_prev + WARM_PSEUDO_COUNT
            )
            result, family, oracle_family = fit_both(
                em, ys, theta0=start, family=family, oracle_family=oracle_family
            )
            n_prev = ys.size
        fitted += 1
    assert fitted >= 1


@pytest.fixture
def loop_model():
    return synthetic_model(seed=4, n_branches=3, loop_fraction=0.7)


def test_repeated_out_of_family_duration_drops_every_copy(loop_model):
    good = sample_rewards(loop_model.chain([0.6, 0.4, 0.5]), 300, rng=2)
    ys = np.insert(good, [10, 150, 299], 1e200)
    em = EMEstimator(loop_model, timer=MICAZ_LIKE.timer)
    result, _, _ = fit_both(em, ys)
    assert result.dropped_observations == 3
    assert result.n_samples == 303
    assert np.all(np.isfinite(result.theta))


def test_every_observation_dropped_matches_oracle(loop_model):
    em = EMEstimator(loop_model, timer=MICAZ_LIKE.timer)
    result, _, _ = fit_both(em, [1e200, -1e200, 1e200], theta0=[0.3, 0.6, 0.5])
    assert result.dropped_observations == 3
    assert not result.converged


@pytest.mark.parametrize("robust", [False, True])
@pytest.mark.parametrize("drift_ppm", [0.0, 40.0])
def test_plain_em_reports_observed_moments_without_a_moments_fit(
    monkeypatch, robust, drift_ppm
):
    platform = MICAZ_LIKE.with_timer(TimestampTimer(cycles_per_tick=8, drift_ppm=drift_ppm))
    spec = workload_by_name("sense")
    program = spec.program()
    run = run_program(program, platform, spec.sensors(rng=2015), activations=ACTIVATIONS)
    dataset = TimingProfiler(platform, rng=2016).collect(run.records)
    options = EstimationOptions(method="em", seed=2015, robust=robust)

    def no_fit(*args, **kwargs):
        raise AssertionError("method='em' ran a moments fit")

    monkeypatch.setattr(estimator_module, "fit_moments", no_fit)
    result = CodeTomography(program, platform).estimate(dataset, options)

    timing = ProgramTimingModel(program, platform)
    callee_moments = {}
    compared = 0
    for proc in program.topological_procedures():
        model = timing.procedure_model(proc.name, callee_moments)
        estimate = result.estimates[proc.name]
        if estimate.method == "em":
            ys = dataset.durations(proc.name)
            assert estimate.observed_moments == oracle_observed_moments(
                model, ys, platform.timer, robust=robust
            )
            compared += 1
        callee_moments[proc.name] = model.moments(estimate.theta)
    assert compared == 2
