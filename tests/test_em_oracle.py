"""EM over distinct durations and path classes against the per-row reference.

:class:`repro.core.EMEstimator` runs both steps once per distinct duration
and path class, weighted by multiplicity;
:func:`tests.estimation_oracle.oracle_fit` runs them over every observation
and every enumerated path of the tuple-based family.  The weighted sums
round differently, so θ̂, the arm counts and the log-likelihood must agree
to :data:`THETA_ATOL` / :data:`RTOL`, and every count (iterations,
convergence, dropped observations, samples, paths) exactly — in cold fits,
hybrid-style starts and warm refits from the shrunk previous iterate, as
:class:`~repro.core.OnlineEstimator` refits.  Every family the oracle fit
enumerates is first held to ``enumerate_paths``'s at the same reference
theta; where a ``max_paths`` cut falls inside a tie, the two hold
different paths by design, and the oracle fit scores
``enumerate_paths``'s family per path instead.
"""

from __future__ import annotations

import dataclasses
from functools import partial

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import repro.core.estimator as estimator_module
from repro.core import CodeTomography, EMEstimator, EstimationOptions, enumerate_paths
from repro.core.online import WARM_PSEUDO_COUNT
from repro.markov.sampling import sample_rewards
from repro.mote import MICAZ_LIKE, TimestampTimer
from repro.placement.layout import ProgramLayout
from repro.profiling import TimingProfiler
from repro.sim import ProgramTimingModel, run_program
from repro.workloads.registry import all_workloads, workload_by_name
from tests.estimation_oracle import (
    assert_same_family,
    family_durations,
    folding_loop_model,
    oracle_enumerate_paths,
    oracle_fit,
    oracle_observed_moments,
    synthetic_model,
    tied_tier,
    unfolded,
)
from tests.family_identity import differences, recorded_enumerations

ACTIVATIONS = 200
WORKLOADS = [spec.name for spec in all_workloads()]

#: θ̂ may differ from the oracle's by summation order alone: absolute bound.
THETA_ATOL = 1e-12
#: The same for the arm counts and the log-likelihood, relative.
RTOL = 1e-12


def assert_same_result(result, oracle):
    np.testing.assert_allclose(result.theta, oracle.theta, rtol=0, atol=THETA_ATOL)
    np.testing.assert_allclose(result.arm_counts, oracle.arm_counts, rtol=RTOL, atol=0)
    np.testing.assert_allclose(
        result.log_likelihood, oracle.log_likelihood, rtol=RTOL, atol=0
    )
    assert result.iterations == oracle.iterations
    assert result.converged == oracle.converged
    assert result.dropped_observations == oracle.dropped_observations
    assert result.n_paths == oracle.n_paths
    assert result.n_samples == oracle.n_samples


def oracle_family_at(model, theta):
    """The oracle's family at ``theta``, once ``enumerate_paths``'s matches it.

    At a ``max_paths`` cut inside a tie (:func:`tied_tier`) the two differ
    by design, so there the oracle fit gets ``enumerate_paths``'s family
    unfolded, and both fits score the same paths.
    """
    family = enumerate_paths(model, theta)
    oracle = oracle_enumerate_paths(model, theta)
    assert_same_family(family, oracle)
    return unfolded(family) if tied_tier(oracle) else oracle


def fit_both(em, ys, theta0=None):
    result = em.fit(ys, theta0=theta0)
    oracle = oracle_fit(em, ys, partial(oracle_family_at, em.model), theta0=theta0)
    assert_same_result(result, oracle)
    return result


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


def warm_chain(em, ys, refits):
    """Half the sample cold, then all of it ``refits`` times, each refit
    starting from the shrunk previous iterate, as the online estimator
    refits."""
    head = ys[: ys.size // 2]
    result = fit_both(em, head)
    n_prev = head.size
    for _ in range(refits):
        start = (n_prev * result.theta + WARM_PSEUDO_COUNT * 0.5) / (
            n_prev + WARM_PSEUDO_COUNT
        )
        result = fit_both(em, ys, theta0=start)
        n_prev = ys.size


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_fits_match_oracle(workload):
    fitted = 0
    for model, ys in profiled_procedures(workload):
        em = EMEstimator(model, timer=MICAZ_LIKE.timer)
        k = model.n_parameters
        # Cold, and from a hybrid-style start away from 0.5.
        fit_both(em, ys)
        fit_both(em, ys, theta0=np.full(k, 0.8))
        warm_chain(em, ys, refits=2)
        fitted += 1
    assert fitted >= 1


@given(
    seed=st.integers(0, 10_000),
    n_branches=st.integers(2, 3),
    calls=st.booleans(),
    data=st.data(),
)
# No shrink phase: every shrink step reruns EM against the per-observation
# oracle, and one failure spent minutes shrinking before it reported.
@settings(
    max_examples=3,
    deadline=None,
    derandomize=True,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
def test_folding_loop_fits_match_oracle(seed, n_branches, calls, data):
    """Generated loops over two or more branches, whose families fold: a
    cold fit, then a warm refit."""
    model = folding_loop_model(seed, n_branches, calls)
    truth = [data.draw(st.floats(0.05, 0.7)) for _ in range(model.n_parameters)]
    ys = family_durations(model, truth, 120, seed)
    warm_chain(EMEstimator(model, timer=MICAZ_LIKE.timer), ys, refits=1)


@pytest.fixture
def loop_model():
    return synthetic_model(seed=4, n_branches=3, loop_fraction=0.7)


def test_repeated_out_of_family_duration_drops_every_copy(loop_model):
    good = sample_rewards(loop_model.chain([0.6, 0.4, 0.5]), 300, rng=2)
    ys = np.insert(good, [10, 150, 299], 1e200)
    em = EMEstimator(loop_model, timer=MICAZ_LIKE.timer)
    result = fit_both(em, ys)
    assert result.dropped_observations == 3
    assert result.n_samples == 303
    assert np.all(np.isfinite(result.theta))


def test_every_observation_dropped_matches_oracle(loop_model):
    em = EMEstimator(loop_model, timer=MICAZ_LIKE.timer)
    result = fit_both(em, [1e200, -1e200, 1e200], theta0=[0.3, 0.6, 0.5])
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


def test_family_identity_records_and_checks_every_em_enumeration():
    """``python -m tests.family_identity``'s machinery on one small fit: it
    sees each family EM enumerates, passes them, and names the procedure and
    reference theta of a family that is off."""
    model = folding_loop_model(seed=1, n_branches=2, calls=False)
    ys = family_durations(model, [0.3, 0.6, 0.4], 120, seed=1)
    with recorded_enumerations() as calls:
        EMEstimator(model, timer=MICAZ_LIKE.timer).fit(ys)
    assert calls
    assert differences("probe", calls) == []
    _, theta, family = calls[0]
    off = dataclasses.replace(family, multiplicity=family.multiplicity + 1)
    (line,) = differences("probe", [(model, theta, off)])
    assert line.startswith(f"probe main at theta={theta.tolist()}: ")
