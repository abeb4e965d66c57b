"""The compiled procedure timing model against a per-call chain reference.

:class:`repro.sim.ProcedureTimingModel` resolves its transition structure
once into arrays and solves only the θ-dependent part per call;
:class:`tests.estimation_oracle.OracleTimingModel` walks Python rows into a
fresh matrix and builds, validates and solves a whole absorbing chain every
time.  Both must agree exactly: the same moments to the last bit, and the
same exception type and message for every θ either of them rejects.

The batched evaluation the moments fit runs on,
:meth:`ProcedureTimingModel.moments_and_jacobians`, is held to
:meth:`~ProcedureTimingModel.moments`, to central differences and to the
oracle's per-θ Jacobian; fits on either model are held to each other and
to the former trust-region solver kept in
:func:`tests.estimation_oracle.oracle_fit_moments`.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fit_moments
from repro.errors import MarkovError, SimulationError
from repro.ir import CFGBuilder, sense
from repro.markov.moments import RewardMoments, reward_moments
from repro.mote import MICAZ_LIKE
from repro.placement.layout import Layout, ProgramLayout
from repro.profiling import TimingProfiler
from repro.sim import ProcedureTimingModel, ProgramTimingModel, run_program
from repro.workloads.registry import all_workloads, workload_by_name
from repro.workloads.synthetic import random_estimation_problem
from tests.estimation_oracle import (
    OracleTimingModel,
    oracle_fit_moments,
    oracle_reward_moments,
)

#: Arm values where validation, clipping or the reachability mask decide.
CORNERS = (0.0, 1.0, 1e-4, 1.0 - 1e-4, -1e-13, 1.0 + 1e-13, -0.0)
#: Values the chain rejects or carries through as NaN.
INVALID = (float("nan"), -0.2, 1.2)
WORKLOADS = [spec.name for spec in all_workloads()]


def outcome(call, *args):
    """``("ok", bits)`` of a :class:`RewardMoments`, or ``(type, message)``."""
    try:
        moments = call(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), str(exc)
    return "ok", np.array(moments.as_tuple()).tobytes()


def chain_outcome(model, theta):
    """The chain's matrix and moments as bits, or ``(type, message)``."""
    try:
        chain = model.chain(theta)
    except Exception as exc:  # noqa: BLE001
        return type(exc), str(exc)
    if isinstance(model, ProcedureTimingModel):
        moments = reward_moments(chain)
    else:
        moments = oracle_reward_moments(chain)
    return (
        "ok",
        np.asarray(chain.Q).tobytes(),
        np.asarray(chain.exit_probabilities).tobytes(),
        np.array(moments.as_tuple()).tobytes(),
    )


def assert_same_model(model, oracle, thetas):
    assert model.transition_plan() == oracle.transition_plan()
    checked = 0
    for theta in thetas:
        assert outcome(model.moments, theta) == outcome(oracle.moments, theta), theta
        assert chain_outcome(model, theta) == chain_outcome(oracle, theta), theta
        checked += 1
    return checked


def corner_thetas(k, rng, draws=40):
    """Interior draws, corner mixes, invalid values and wrong shapes."""
    thetas = [rng.uniform(0.0, 1.0, k) for _ in range(draws)]
    values = CORNERS + INVALID
    if k <= 2:
        thetas += [np.array(t) for t in itertools.product(values, repeat=k)]
    else:
        thetas += [rng.choice(values, k) for _ in range(draws * 3)]
    for value in values:
        thetas.append(np.full(k, value))
        mixed = rng.uniform(0.2, 0.8, k)
        mixed[rng.integers(k)] = value
        thetas.append(mixed)
    thetas += [np.full(k + 1, 0.5), np.full((k, 1), 0.5), np.empty(0) if k else [0.5]]
    return thetas


def workload_pairs():
    """``(model, oracle)`` per parametered procedure of the six workloads.

    Callee time is folded in at the uninformed 0.5 vector, so callers carry
    nonzero reward variance and skew.
    """
    pairs = []
    for spec in all_workloads():
        program = spec.program()
        layout = ProgramLayout.source_order(program)
        timing = ProgramTimingModel(program, MICAZ_LIKE, layout)
        callee_moments = {}
        for proc in program.topological_procedures():
            model = timing.procedure_model(proc.name, callee_moments)
            oracle = OracleTimingModel(
                proc, MICAZ_LIKE, layout.layout(proc.name), callee_moments
            )
            callee_moments[proc.name] = model.moments(np.full(model.n_parameters, 0.5))
            if model.n_parameters:
                pairs.append(pytest.param(model, oracle, id=f"{spec.name}/{proc.name}"))
    return pairs


@pytest.mark.parametrize("model,oracle", workload_pairs())
def test_workload_models_match_oracle(model, oracle):
    rng = np.random.default_rng(len(model.states))
    assert assert_same_model(model, oracle, corner_thetas(model.n_parameters, rng)) > 0


def test_workload_models_fold_random_callee_time():
    chains = [p.values[0].chain(np.full(p.values[0].n_parameters, 0.5)) for p in workload_pairs()]
    assert any(np.any(chain.reward_variances > 0) for chain in chains)
    assert any(np.any(chain.reward_third_centrals != 0) for chain in chains)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_branches=st.integers(1, 5),
    loop_fraction=st.sampled_from((0.0, 0.4, 0.8)),
    data=st.data(),
)
def test_random_problems_match_oracle(seed, n_branches, loop_fraction, data):
    proc, _ = random_estimation_problem(
        rng=seed, n_branches=n_branches, loop_fraction=loop_fraction
    )
    layout = Layout.source_order(proc.cfg)
    model = ProcedureTimingModel(proc, MICAZ_LIKE, layout)
    oracle = OracleTimingModel(proc, MICAZ_LIKE, layout)
    unit = st.one_of(st.sampled_from(CORNERS + INVALID), st.floats(0.0, 1.0))
    thetas = data.draw(
        st.lists(
            st.lists(unit, min_size=n_branches, max_size=n_branches),
            min_size=1,
            max_size=6,
        )
    )
    assert_same_model(model, oracle, [np.array(t) for t in thetas])


def test_bad_callee_moments_raise_at_moments_like_the_chain():
    spec = workload_by_name("sense")
    program = spec.program()
    layout = ProgramLayout.source_order(program)
    timing = ProgramTimingModel(program, MICAZ_LIKE, layout)
    proc = program.procedure("main")
    bad = (
        RewardMoments(mean=40.0, variance=-1.0, third_central=0.0),
        RewardMoments(mean=-1e6, variance=4.0, third_central=1.0),
        RewardMoments(mean=float("nan"), variance=4.0, third_central=1.0),
    )
    rng = np.random.default_rng(7)
    raised = []
    for callee in bad:
        callee_moments = {"classify": callee}
        model = timing.procedure_model("main", callee_moments)
        oracle = OracleTimingModel(proc, MICAZ_LIKE, layout.layout("main"), callee_moments)
        assert_same_model(model, oracle, corner_thetas(model.n_parameters, rng, draws=5))
        raised.append(outcome(model.moments, [0.5, 0.5])[0])
    # A NaN mean passes the chain's checks and comes back as NaN moments.
    assert raised == [MarkovError, MarkovError, "ok"]


def trap_procedure():
    """A branch whose *then* arm enters a block that jumps to itself."""
    b = CFGBuilder("trap")
    b.emit(sense("v", "adc0"))
    then_blk, else_blk = b.branch("v")
    b.jump(then_blk.label)
    b.switch_to(else_blk)
    b.ret()
    return b.build()


def test_trapped_states_are_named_for_every_arm_pattern():
    proc = trap_procedure()
    layout = Layout.source_order(proc.cfg)
    model = ProcedureTimingModel(proc, MICAZ_LIKE, layout)
    oracle = OracleTimingModel(proc, MICAZ_LIKE, layout)
    # Twice through: the all-arms-positive mask is only computed, never
    # kept, when that pattern traps.
    thetas = corner_thetas(1, np.random.default_rng(3), draws=5)
    assert assert_same_model(model, oracle, thetas + thetas)
    assert outcome(model.moments, [0.5])[1].startswith("states cannot reach absorption")
    assert outcome(model.moments, [0.0])[0] == "ok"


def test_duplicate_state_names_raise_before_the_theta_checks():
    # The then-block's label collides with the branch's then-arm pseudo-state.
    b = CFGBuilder("dup", entry_label="entry")
    b.emit(sense("v", "adc0"))
    _, else_blk = b.branch("v", then_label="entry@then")
    b.ret()
    b.switch_to(else_blk)
    b.ret()
    proc = b.build()
    layout = Layout.source_order(proc.cfg)
    model = ProcedureTimingModel(proc, MICAZ_LIKE, layout)
    oracle = OracleTimingModel(proc, MICAZ_LIKE, layout)
    thetas = corner_thetas(1, np.random.default_rng(5), draws=5)
    assert assert_same_model(model, oracle, thetas)
    assert outcome(model.moments, [-0.2]) == outcome(oracle.moments, [0.5])


def profiled_pairs(name, activations=200):
    """``(model, oracle, durations)`` per measured parametered procedure.

    Callers fold in their callees' moments-fit estimates, as
    :class:`~repro.core.CodeTomography` does with ``method="moments"``.
    """
    spec = workload_by_name(name)
    program = spec.program()
    run = run_program(program, MICAZ_LIKE, spec.sensors(rng=2015), activations=activations)
    dataset = TimingProfiler(MICAZ_LIKE, rng=2016).collect(run.records)
    layout = ProgramLayout.source_order(program)
    timing = ProgramTimingModel(program, MICAZ_LIKE, layout)
    callee_moments = {}
    for proc in program.topological_procedures():
        model = timing.procedure_model(proc.name, callee_moments)
        oracle = OracleTimingModel(proc, MICAZ_LIKE, layout.layout(proc.name), callee_moments)
        theta = np.full(model.n_parameters, 0.5)
        if model.n_parameters and dataset.count(proc.name):
            ys = dataset.durations(proc.name)
            yield model, oracle, ys
            theta = fit_moments(model, ys, timer=MICAZ_LIKE.timer, rng=2015).theta
        callee_moments[proc.name] = model.moments(theta)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_moment_fits_match_oracle_backed_fits(workload):
    # The oracle model evaluates one θ at a time, so the solver's arithmetic
    # differs in the last bits; the fits agree to the solver's tolerance.
    fitted = 0
    for model, oracle, ys in profiled_pairs(workload):
        result = fit_moments(model, ys, timer=MICAZ_LIKE.timer, rng=2015)
        expected = fit_moments(oracle, ys, timer=MICAZ_LIKE.timer, rng=2015)
        assert result.cost == pytest.approx(expected.cost, rel=1e-9)
        np.testing.assert_allclose(result.theta, expected.theta, rtol=0, atol=1e-6)
        assert result.observed_moments == expected.observed_moments
        np.testing.assert_allclose(result.predicted_moments, expected.predicted_moments, rtol=1e-6)
        assert result.n_samples == expected.n_samples
        assert result.restarts_used == expected.restarts_used
        assert result.n_rejected == expected.n_rejected
        fitted += 1
    assert fitted >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_moment_fits_cost_no_more_than_the_trust_region_oracle(workload):
    fitted = 0
    for model, _, ys in profiled_pairs(workload):
        result = fit_moments(model, ys, timer=MICAZ_LIKE.timer, rng=2015)
        reference = oracle_fit_moments(model, ys, timer=MICAZ_LIKE.timer, rng=2015)
        assert result.cost <= reference.cost * (1.0 + 1e-9)
        assert result.restarts_used == reference.restarts_used
        fitted += 1
    assert fitted >= 1


# -- the batched evaluation and its Jacobian -----------------------------------


def central_differences(model, theta, h=1e-5):
    """``(jacobian, tolerance)`` of the moments at ``theta`` by central differences.

    The tolerance allows 1e-6 of each row's largest entry plus the rounding
    of the raw moments, which the central moments cancel, over the step.
    """
    k = model.n_parameters
    jac = np.zeros((3, k))
    for p in range(k):
        up, down = theta.copy(), theta.copy()
        up[p] += h
        down[p] -= h
        jac[:, p] = (
            np.array(model.moments(up).as_tuple()) - np.array(model.moments(down).as_tuple())
        ) / (2.0 * h)
    m = model.moments(theta)
    raw2 = m.variance + m.mean**2
    raw_scale = np.array([m.mean, raw2, raw2**1.5])
    tolerance = 1e-6 * np.abs(jac).max(axis=1, keepdims=True) + 1e-13 * raw_scale[:, None] / h
    return jac, tolerance


def assert_batched_evaluation(model, oracle, thetas):
    moments, jacobians = model.moments_and_jacobians(thetas)
    assert moments.shape == (len(thetas), 3)
    assert jacobians.shape == (len(thetas), 3, model.n_parameters)
    _, oracle_jacobians = oracle.moments_and_jacobians(thetas)
    for theta, row, jac, oracle_jac in zip(thetas, moments, jacobians, oracle_jacobians):
        expected = np.array(model.moments(theta).as_tuple())
        np.testing.assert_allclose(row, expected, rtol=1e-12, atol=0)
        differences, tolerance = central_differences(model, theta)
        assert np.all(np.abs(jac - differences) <= tolerance), (theta, jac, differences)
        scale = np.abs(oracle_jac).max(axis=1, keepdims=True) + 1e-300
        np.testing.assert_allclose(jac / scale, oracle_jac / scale, rtol=0, atol=1e-9)


@pytest.mark.parametrize("model,oracle", workload_pairs())
def test_workload_batched_moments_and_jacobians(model, oracle):
    rng = np.random.default_rng(len(model.states))
    thetas = np.vstack(
        [np.full(model.n_parameters, 0.5), rng.uniform(0.1, 0.9, (4, model.n_parameters))]
    )
    assert_batched_evaluation(model, oracle, thetas)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_branches=st.integers(1, 5),
    loop_fraction=st.sampled_from((0.0, 0.4, 0.8)),
    data=st.data(),
)
def test_random_problems_batched_moments_and_jacobians(seed, n_branches, loop_fraction, data):
    proc, _ = random_estimation_problem(
        rng=seed, n_branches=n_branches, loop_fraction=loop_fraction
    )
    layout = Layout.source_order(proc.cfg)
    model = ProcedureTimingModel(proc, MICAZ_LIKE, layout)
    oracle = OracleTimingModel(proc, MICAZ_LIKE, layout)
    unit = st.floats(0.05, 0.95)
    thetas = data.draw(
        st.lists(
            st.lists(unit, min_size=n_branches, max_size=n_branches),
            min_size=1,
            max_size=4,
        )
    )
    assert_batched_evaluation(model, oracle, np.array(thetas))


def test_batched_evaluation_rejects_what_it_cannot_take():
    proc, _ = random_estimation_problem(rng=3, n_branches=2)
    model = ProcedureTimingModel(proc, MICAZ_LIKE, Layout.source_order(proc.cfg))
    with pytest.raises(SimulationError, match="shape"):
        model.moments_and_jacobians(np.full(2, 0.5))
    with pytest.raises(SimulationError, match="strictly inside"):
        model.moments_and_jacobians(np.array([[0.5, 1.0]]))
    trap = trap_procedure()
    trapped = ProcedureTimingModel(trap, MICAZ_LIKE, Layout.source_order(trap.cfg))
    with pytest.raises(MarkovError, match="cannot reach absorption"):
        trapped.moments_and_jacobians(np.array([[0.5]]))
