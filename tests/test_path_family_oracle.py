"""Array-native path families against the tuple-based reference enumerator.

:func:`repro.core.enumerate_paths` packs arm counts into ints, merges
paths with equal statistics into classes while they wait on its frontier
and stores the family as read-only arrays; :mod:`tests.estimation_oracle`
keeps the straightforward tuple enumerator, one node per path prefix, and
per-path ``log_probability``.  Grouped by arm counts, both must agree
(:func:`~tests.estimation_oracle.assert_same_family`): the same groups in
the same order with the same path counts, duration moments to rounding,
the same truncation and, to rounding, coverage; each class row's
log-probability is its paths' oracle log-probability plus its log
multiplicity, to the last bit.  Where a ``max_paths`` cut falls inside a
tie, the merged search fills the tied tier class by class; the generated
cases draw references that force such cuts (:func:`tied_references`).
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import enumerate_paths
from repro.errors import EstimationError
from repro.lang import compile_source
from repro.mote import MICAZ_LIKE
from repro.placement.layout import Layout, ProgramLayout
from repro.sim import ProcedureTimingModel, ProgramTimingModel
from repro.workloads.registry import all_workloads
from tests.estimation_oracle import (
    arm_key,
    assert_same_family,
    family_groups,
    folding_loop_model,
    oracle_enumerate_paths,
    oracle_groups,
    row_keys,
    synthetic_model,
    tied_tier,
)

#: Thetas where the 0 * log 0 = 0 rule decides the answer.
EDGE_THETAS = (0.0, 1.0)


def assert_same_log_probabilities(family, oracle, theta):
    """Each row's log mass is its paths' oracle log-probability plus its log
    multiplicity, to the last bit."""
    vec = np.asarray(theta, dtype=float)
    per_path = {arm_key(p.then_counts, p.else_counts): p for p in oracle.paths}
    expected = np.array([per_path[key].log_probability(vec) for key in row_keys(family)])
    assert np.array_equal(
        family.log_probabilities(vec), expected + np.log(family.multiplicity)
    )


def procedure_models(spec):
    """``(name, model)`` of each parametered procedure of ``spec``'s program.

    Callee time is folded in at the uninformed 0.5 vector, so callers carry
    nonzero path variances.
    """
    program = spec.program()
    timing = ProgramTimingModel(program, MICAZ_LIKE, ProgramLayout.source_order(program))
    callee_moments = {}
    for proc in program.topological_procedures():
        model = timing.procedure_model(proc.name, callee_moments)
        half = np.full(model.n_parameters, 0.5)
        callee_moments[proc.name] = model.moments(half)
        if model.n_parameters:
            yield proc.name, model


def workload_models():
    """Every parametered procedure model of the six workloads."""
    return [
        pytest.param(model, id=f"{spec.name}/{name}")
        for spec in all_workloads()
        for name, model in procedure_models(spec)
    ]


unit_thetas = st.one_of(st.sampled_from(EDGE_THETAS), st.floats(0.0, 1.0))
# A loop's reference theta near 1 keeps its continue arm above min_prob for
# hundreds of iterations; several such loops make the frontier explode
# before any path completes, so reference thetas stop at 0.8 here (and
# reach 1 in the diamond-only edge test below).
reference_thetas = st.one_of(st.just(0.0), st.floats(0.0, 0.8))


def tied_references(k, loops):
    """Reference vectors under which distinct classes tie exactly: one value
    in every entry, or entries at the clip edges (0 and 1 clip to 0.02 and
    0.98; 1 only without loops, as for :data:`reference_thetas`)."""
    edges = [0.0] if loops else list(EDGE_THETAS)
    return st.one_of(
        reference_thetas.map(lambda t: [t] * k),
        st.lists(st.sampled_from(edges), min_size=k, max_size=k),
    )


def enumerate_both(model, reference, **limits):
    """``(family, oracle)``, or ``(None, None)`` when both find no path."""
    try:
        oracle = oracle_enumerate_paths(model, reference, **limits)
    except EstimationError:
        with pytest.raises(EstimationError, match="no complete path"):
            enumerate_paths(model, reference, **limits)
        return None, None
    return enumerate_paths(model, reference, **limits), oracle


class TestAgainstOracle:
    @given(
        seed=st.integers(0, 10_000),
        n_branches=st.integers(1, 8),
        loop_fraction=st.floats(0.0, 1.0),
        min_prob=st.sampled_from([1e-2, 1e-4, 1e-6]),
        max_paths=st.sampled_from([1, 7, 200, 2000]),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_random_problems(
        self, seed, n_branches, loop_fraction, min_prob, max_paths, data
    ):
        model = synthetic_model(seed, n_branches, loop_fraction)
        k = model.n_parameters
        reference = data.draw(
            st.one_of(
                st.lists(reference_thetas, min_size=k, max_size=k),
                tied_references(k, loops=loop_fraction > 0),
            )
        )
        family, oracle = enumerate_both(
            model, reference, min_prob=min_prob, max_paths=max_paths
        )
        if family is None:
            return
        assert_same_family(family, oracle)
        theta = [data.draw(unit_thetas) for _ in range(k)]
        assert_same_log_probabilities(family, oracle, theta)
        assert_same_log_probabilities(family, oracle, family.reference_theta)

    @pytest.mark.parametrize("model", workload_models())
    def test_workload_procedures(self, model):
        k = model.n_parameters
        for reference in (None, np.full(k, 0.9), np.linspace(0.0, 1.0, k)):
            family = enumerate_paths(model, reference)
            oracle = oracle_enumerate_paths(model, reference)
            assert_same_family(family, oracle)
            for theta in (np.full(k, 0.3), np.zeros(k), np.ones(k), np.linspace(1.0, 0.0, k)):
                assert_same_log_probabilities(family, oracle, theta)

    def test_cut_inside_a_tie_fills_the_tier_class_by_class(self):
        # At the 0.9 vector the 2,000-path cut of tinydb-agg's aggregate
        # falls in a tier of two tied classes: the oracle interleaves their
        # paths (126 + 19), the merged search fills the first (145 + 0).
        spec = next(s for s in all_workloads() if s.name == "tinydb-agg")
        model = dict(procedure_models(spec))["aggregate"]
        reference = np.full(model.n_parameters, 0.9)
        family = enumerate_paths(model, reference)
        oracle = oracle_enumerate_paths(model, reference)
        tier = tied_tier(oracle)
        ours, theirs = family_groups(family), oracle_groups(oracle)
        order = [key for key in theirs if key in tier]
        assert [theirs[key][0] for key in order] == [126, 19]
        assert [ours[key][0] if key in ours else 0 for key in order] == [145, 0]
        assert_same_family(family, oracle)

    def test_max_paths_truncation(self):
        model = synthetic_model(seed=11, n_branches=6, loop_fraction=0.6)
        family = enumerate_paths(model, min_prob=1e-12, max_paths=50)
        oracle = oracle_enumerate_paths(model, min_prob=1e-12, max_paths=50)
        assert family.truncated and len(family) == 50
        assert_same_family(family, oracle)

    def test_min_prob_cutoff(self):
        model = synthetic_model(seed=11, n_branches=6, loop_fraction=0.6)
        family = enumerate_paths(model, min_prob=1e-3, max_paths=100_000)
        oracle = oracle_enumerate_paths(model, min_prob=1e-3, max_paths=100_000)
        assert family.truncated and len(family) < 100_000
        assert family.covered_probability < 1.0
        assert_same_family(family, oracle)

    def test_edge_thetas_keep_zero_log_zero_rule(self):
        model = synthetic_model(seed=5, n_branches=4, loop_fraction=0.5)
        k = model.n_parameters
        family = enumerate_paths(model, np.zeros(k))
        oracle = oracle_enumerate_paths(model, np.zeros(k))
        assert_same_family(family, oracle)
        # At theta = 0 the all-else path is certain: log P = 0, not NaN.
        assert family.log_probabilities(np.zeros(k)).max() == 0.0
        for theta in (np.zeros(k), np.ones(k), np.r_[np.zeros(k - k // 2), np.ones(k // 2)]):
            assert not np.any(np.isnan(family.log_probabilities(theta)))
            assert_same_log_probabilities(family, oracle, theta)

    def test_reference_theta_one_is_clipped(self):
        model = synthetic_model(seed=5, n_branches=5, loop_fraction=0.0)
        k = model.n_parameters
        family = enumerate_paths(model, np.ones(k))
        oracle = oracle_enumerate_paths(model, np.ones(k))
        assert family.reference_theta == (0.98,) * k
        assert_same_family(family, oracle)
        assert family.log_probabilities(np.ones(k)).max() == 0.0
        assert_same_log_probabilities(family, oracle, np.ones(k))

    def test_many_parameters_sum_in_the_same_order(self):
        # k >= 8 takes numpy's unrolled pairwise summation path per row.
        model = synthetic_model(seed=3, n_branches=12, loop_fraction=0.0)
        assert model.n_parameters >= 8
        family = enumerate_paths(model, max_paths=500)
        oracle = oracle_enumerate_paths(model, max_paths=500)
        assert_same_family(family, oracle)
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert_same_log_probabilities(
                family, oracle, rng.uniform(0.0, 1.0, model.n_parameters)
            )


class TestFoldingLoops:
    """Loops over two or more branches, where paths fold into classes."""

    @given(
        seed=st.integers(0, 10_000),
        n_branches=st.integers(2, 3),
        calls=st.booleans(),
        max_paths=st.integers(1, 60),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_generated_loops_fold_like_the_oracle(
        self, seed, n_branches, calls, max_paths, data
    ):
        model = folding_loop_model(seed, n_branches, calls)
        k = model.n_parameters
        drawn = [data.draw(reference_thetas) for _ in range(k)]
        tied = data.draw(tied_references(k, loops=True))
        theta = np.array([data.draw(unit_thetas) for _ in range(k)])
        # The uninformed vector ties all classes that take as many arms, and
        # a tied reference at a small max_paths cuts inside such a tie.
        for reference, limit in ((None, 2000), (drawn, 2000), (tied, max_paths)):
            family, oracle = enumerate_both(model, reference, max_paths=limit)
            if family is None:
                continue
            assert_same_family(family, oracle)
            assert_same_log_probabilities(family, oracle, theta)
            # Outside a tied tier the class masses sum to the paths' mass.
            tier = tied_tier(oracle)
            ours = sum(
                p
                for key, p in zip(row_keys(family), family.probabilities(theta))
                if key not in tier
            )
            per_path = sum(
                np.exp(p.log_probability(theta))
                for p in oracle.paths
                if arm_key(p.then_counts, p.else_counts) not in tier
            )
            assert abs(ours - per_path) <= 1e-12
            if reference is None:
                # Two loop iterations in either order already fold.
                assert len(family) < family.multiplicity.sum()


@pytest.fixture
def family():
    prog = compile_source("proc main() { while (sense(a) > 800) { led(1); } }")
    main = prog.procedure("main")
    model = ProcedureTimingModel(main, MICAZ_LIKE, Layout.source_order(main.cfg))
    return enumerate_paths(model, [0.5], min_prob=1e-4)


ARRAYS = (
    "then_counts",
    "else_counts",
    "duration_means",
    "duration_variances",
    "multiplicity",
)


class TestReadOnly:
    @pytest.mark.parametrize("name", ARRAYS)
    def test_arrays_reject_writes(self, family, name):
        arr = getattr(family, name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_read_only_survives_pickle(self, family, protocol):
        clone = pickle.loads(pickle.dumps(family, protocol=protocol))
        for name in ARRAYS:
            assert np.array_equal(getattr(clone, name), getattr(family, name))
            assert not getattr(clone, name).flags.writeable
        assert clone.covered_probability == family.covered_probability
        assert clone.reference_theta == family.reference_theta

    def test_copies_stay_read_only(self, family):
        for clone in (copy.copy(family), copy.deepcopy(family)):
            assert all(not getattr(clone, name).flags.writeable for name in ARRAYS)

    def test_equality_is_identity(self, family):
        clone = copy.deepcopy(family)
        assert family == family
        assert family != clone
        assert len({family, clone}) == 2
