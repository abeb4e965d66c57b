"""What a refit reuses, and that reuse changes no result.

``ProgramTimingModel.procedure_model`` keeps each procedure's last model
and returns it while the callee moments it folded in are unchanged; a
model resolves its transition plan once and hands out copies; and
``PathFamily.log_probabilities`` skips its NaN guards when every θ entry
lies strictly inside (0, 1).  Each shortcut is held here to the work it
replaces: a freshly built model, bit for bit, and the guarded formula.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import CodeTomography, EstimationOptions
from repro.core.path_enum import enumerate_paths
from repro.errors import SimulationError
from repro.mote import MICAZ_LIKE
from repro.profiling import TimingProfiler
from repro.sim import run_program
from repro.sim.timing import ProcedureTimingModel, ProgramTimingModel
from repro.workloads.registry import all_workloads
from tests.estimation_oracle import folding_loop_timing

WORKLOADS = all_workloads()
FOLDING_LOOPS = [(seed, n, calls) for seed in (1, 2) for n in (2, 3) for calls in (False, True)]


def bits(*arrays) -> tuple[bytes, ...]:
    return tuple(np.asarray(a, dtype=float).tobytes() for a in arrays)


def moments_outcome(model, theta):
    """The moments as bits, or the error's type and message."""
    try:
        return bits(model.moments(theta).as_tuple())
    except Exception as exc:  # noqa: BLE001
        return type(exc), str(exc)


def assert_same_model(model, fresh, rng):
    """``model`` answers as ``fresh`` does, bit for bit and error for error."""
    assert model.transition_plan() == fresh.transition_plan()
    k = model.n_parameters
    thetas = rng.uniform(0.0, 1.0, (8, k))
    for theta in list(thetas) + [np.zeros(k), np.ones(k)]:
        assert moments_outcome(model, theta) == moments_outcome(fresh, theta)
    if k:
        assert bits(*model.moments_and_jacobians(thetas)) == bits(
            *fresh.moments_and_jacobians(thetas)
        )


def fresh_model(timing, name, callee_moments):
    proc = timing.program.procedure(name)
    return ProcedureTimingModel(proc, timing.platform, timing.layout.layout(name), callee_moments)


def one_ulp_up(moments, field):
    value = getattr(moments, field)
    return dataclasses.replace(moments, **{field: float(np.nextafter(value, np.inf))})


def check_reuse(timing, name, callee_moments, rng):
    """The reuse contract of one procedure's model under ``callee_moments``."""
    model = timing.procedure_model(name, callee_moments)
    equal = {callee: dataclasses.replace(m) for callee, m in callee_moments.items()}
    assert timing.procedure_model(name, equal) is model
    # Twice: what the first comparison cached in the model changes nothing.
    for _ in range(2):
        assert_same_model(model, fresh_model(timing, name, callee_moments), rng)
    folded = sorted(model._folded)
    for callee in folded:
        for field in ("mean", "variance", "third_central"):
            moved = {**callee_moments, callee: one_ulp_up(callee_moments[callee], field)}
            rebuilt = timing.procedure_model(name, moved)
            assert rebuilt is not model
            assert_same_model(rebuilt, fresh_model(timing, name, moved), rng)
        for _ in range(2):
            missing = {c: m for c, m in callee_moments.items() if c != callee}
            with pytest.raises(SimulationError, match="callee"):
                timing.procedure_model(name, missing)
    return model, folded


@pytest.mark.parametrize("spec", WORKLOADS, ids=lambda spec: spec.name)
def test_workload_models_are_reused_while_callee_moments_hold(spec):
    program = spec.program()
    timing = ProgramTimingModel(program, MICAZ_LIKE)
    rng = np.random.default_rng(7)
    callee_moments = {}
    parametered = 0
    for proc in program.topological_procedures():
        model, _ = check_reuse(timing, proc.name, callee_moments, rng)
        parametered += model.n_parameters > 0
        theta = rng.uniform(0.1, 0.9, model.n_parameters)
        callee_moments[proc.name] = timing.procedure_model(proc.name, callee_moments).moments(theta)
    assert parametered


@pytest.mark.parametrize("seed,n_branches,calls", FOLDING_LOOPS)
def test_folding_loop_models_are_reused_while_callee_moments_hold(seed, n_branches, calls):
    timing, callee_moments = folding_loop_timing(seed, n_branches, calls)
    _, folded = check_reuse(timing, "main", callee_moments, np.random.default_rng(seed))
    assert folded == (["work"] if calls else [])


def test_a_leaf_model_is_built_once():
    timing, _ = folding_loop_timing(seed=1, n_branches=2, calls=True)
    work = timing.procedure_model("work", {})
    assert timing.procedure_model("work", {"main": object()}) is work


def families_equal(a, b) -> bool:
    arrays = ("then_counts", "else_counts", "duration_means", "duration_variances", "multiplicity")
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in arrays) and (
        a.covered_probability,
        a.reference_theta,
        a.truncated,
    ) == (b.covered_probability, b.reference_theta, b.truncated)


def test_a_mutated_plan_changes_no_later_enumeration():
    timing, callee_moments = folding_loop_timing(seed=2, n_branches=3, calls=True)
    model = timing.procedure_model("main", callee_moments)
    theta = [0.3, 0.6, 0.4, 0.7]
    before = enumerate_paths(model, theta)
    expected = fresh_model(timing, "main", callee_moments).transition_plan()
    plan = model.transition_plan()
    plan[0].clear()
    plan[1].append(("exit", 1.0))
    del plan[2:]
    assert model.transition_plan() == expected
    assert families_equal(enumerate_paths(model, theta), before)


def guarded_log_probabilities(family, theta) -> np.ndarray:
    """``PathFamily.log_probabilities``'s formula for θ on a bound."""
    vec = np.asarray(theta, dtype=float)
    a, b = family.then_counts, family.else_counts
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = a * np.log(vec) + b * np.log1p(-vec)
    log_p = np.where((a == 0) & np.isnan(log_p), 0.0, log_p)
    log_p = np.where((b == 0) & np.isnan(log_p), 0.0, log_p)
    return log_p.sum(axis=1) + np.log(family.multiplicity)


@pytest.mark.parametrize("spec", WORKLOADS, ids=lambda spec: spec.name)
def test_interior_log_probabilities_equal_the_guarded_formula(spec):
    """On every family a workload enumerates at 0.5 and at its hybrid
    estimate, for interior θ from EM's clip bounds inward."""
    program = spec.program()
    run = run_program(program, MICAZ_LIKE, spec.sensors(rng=2015), activations=600)
    dataset = TimingProfiler(MICAZ_LIKE, rng=2016).collect(run.records)
    options = EstimationOptions(method="hybrid", seed=2015)
    estimates = CodeTomography(program, MICAZ_LIKE).estimate(dataset, options).estimates
    timing = ProgramTimingModel(program, MICAZ_LIKE)
    rng = np.random.default_rng(11)
    callee_moments = {}
    checked = 0
    for proc in program.topological_procedures():
        model = timing.procedure_model(proc.name, callee_moments)
        k = model.n_parameters
        estimate = estimates[proc.name].theta
        callee_moments[proc.name] = model.moments(estimate)
        if not k:
            continue
        for reference in (np.full(k, 0.5), estimate):
            family = enumerate_paths(model, reference)
            thetas = [reference, estimate, np.full(k, 1e-4), np.full(k, 1.0 - 1e-4)]
            thetas += list(rng.uniform(1e-4, 1.0 - 1e-4, (6, k)))
            for theta in thetas:
                assert np.array_equal(
                    family.log_probabilities(theta), guarded_log_probabilities(family, theta)
                ), (proc.name, theta)
                checked += 1
    assert checked
