"""Property-based tests (hypothesis) on core invariants.

Each property is a structural guarantee the rest of the system leans on:
chains conserve probability, layouts preserve block sets, the forward model
is consistent with brute-force path enumeration, and generated programs
always compile and validate.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.lang import compile_source
from repro.lang.lexer import tokenize
from repro.markov.builders import BranchParameterization
from repro.markov.moments import reward_moments
from repro.mote import MICAZ_LIKE
from repro.placement import Layout, optimize_layout
from repro.placement.optimizer import edge_frequencies
from repro.sim import ProcedureTimingModel
from repro.core import enumerate_paths
from repro.workloads.synthetic import random_estimation_problem, random_workload

thetas = st.floats(0.02, 0.98)
seeds = st.integers(0, 10_000)


@st.composite
def synthetic_problems(draw):
    seed = draw(seeds)
    n_branches = draw(st.integers(1, 4))
    loop_fraction = draw(st.floats(0.0, 1.0))
    proc, truth = random_estimation_problem(
        rng=seed, n_branches=n_branches, loop_fraction=loop_fraction
    )
    return proc, truth


class TestChainInvariants:
    @given(synthetic_problems(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_expected_visits_nonnegative_and_entry_visited_once_minimum(
        self, problem, data
    ):
        proc, _ = problem
        par = BranchParameterization(proc.cfg)
        theta = np.array([data.draw(thetas) for _ in range(par.n_parameters)])
        chain = par.chain(theta, {label: 1.0 for label in par.states})
        visits = chain.expected_visits_from_start()
        assert np.all(visits >= -1e-9)
        assert visits[chain.start_index] >= 1.0 - 1e-9

    @given(synthetic_problems(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_moments_are_valid(self, problem, data):
        proc, _ = problem
        model = ProcedureTimingModel(proc, MICAZ_LIKE, Layout.source_order(proc.cfg))
        theta = np.array([data.draw(thetas) for _ in range(model.n_parameters)])
        m = model.moments(theta)
        assert m.mean > 0
        assert m.variance >= 0
        assert np.isfinite(m.third_central)

    @given(synthetic_problems(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_moments_match_path_enumeration(self, problem, data):
        # Independent consistency check: the closed-form chain moments must
        # equal the probability-weighted path statistics when (almost) all
        # mass is enumerated.
        proc, _ = problem
        model = ProcedureTimingModel(proc, MICAZ_LIKE, Layout.source_order(proc.cfg))
        theta = np.array([data.draw(st.floats(0.1, 0.7)) for _ in range(model.n_parameters)])
        family = enumerate_paths(model, theta, min_prob=1e-9, max_paths=20_000)
        probs = family.probabilities(theta)
        assume(probs.sum() > 0.9999)
        durations = family.duration_means
        mean = float(np.sum(probs * durations))
        analytic = model.moments(theta)
        assert mean == pytest.approx(analytic.mean, rel=1e-3)


class TestPlacementInvariants:
    @given(synthetic_problems(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_optimized_layout_is_a_permutation_with_entry_first(self, problem, data):
        proc, _ = problem
        par = BranchParameterization(proc.cfg)
        theta = np.array([data.draw(thetas) for _ in range(par.n_parameters)])
        layout = optimize_layout(proc.cfg, theta)
        assert sorted(layout.order) == sorted(proc.cfg.labels)
        assert layout.order[0] == proc.cfg.entry

    @given(synthetic_problems(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_edge_frequencies_conserve_flow(self, problem, data):
        # Flow into any non-entry block equals flow out of it (returns sink).
        proc, _ = problem
        par = BranchParameterization(proc.cfg)
        theta = np.array([data.draw(thetas) for _ in range(par.n_parameters)])
        freqs = edge_frequencies(proc.cfg, theta)
        for label in par.states:
            block = proc.cfg.block(label)
            inflow = sum(f for (s, d), f in freqs.items() if d == label)
            outflow = sum(f for (s, d), f in freqs.items() if s == label)
            if label == proc.cfg.entry:
                inflow += 1.0
            if block.is_return:
                continue  # outflow goes to the absorbing exit, not an edge
            assert inflow == pytest.approx(outflow, rel=1e-6, abs=1e-9)


class TestGeneratorInvariants:
    @given(seeds, st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_random_workloads_always_compile(self, seed, n_branches):
        sw = random_workload(rng=seed, n_branches=n_branches)
        prog = sw.program()  # compile_source validates internally
        assert prog.totals()["branches"] == n_branches

    @given(seeds, st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_random_problems_have_matching_theta(self, seed, n_branches):
        proc, theta = random_estimation_problem(rng=seed, n_branches=n_branches)
        assert theta.shape == (proc.branch_count(),)


class TestLexerRobustness:
    @given(st.text(max_size=200))
    @settings(max_examples=150)
    def test_lexer_never_crashes_unexpectedly(self, text):
        # Any input either tokenizes or raises the typed LexError.
        from repro.errors import LexError

        try:
            tokens = tokenize(text)
        except LexError:
            return
        assert tokens[-1].kind.value == "eof"

    @given(st.text(alphabet=st.sampled_from("abcxyz01 +-*/%<>=!&|^(){}[];,\n"), max_size=120))
    @settings(max_examples=150)
    def test_parser_never_crashes_unexpectedly(self, text):
        from repro.errors import LangError

        try:
            compile_source(text)
        except LangError:
            return
        # If it compiled, the text was a genuinely valid module.


class TestChainStochasticity:
    @given(synthetic_problems(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_rows_plus_exit_sum_to_one(self, problem, data):
        # Every transient row of the chain, together with its exit mass, is
        # a probability distribution — probability is conserved no matter
        # which theta the builders are handed.
        proc, _ = problem
        par = BranchParameterization(proc.cfg)
        theta = np.array([data.draw(thetas) for _ in range(par.n_parameters)])
        chain = par.chain(theta, {label: 1.0 for label in par.states})
        assert np.all(chain.Q >= -1e-12)
        assert np.all(chain.exit_probabilities >= -1e-12)
        totals = chain.Q.sum(axis=1) + chain.exit_probabilities
        assert np.allclose(totals, 1.0, atol=1e-9)

    @given(synthetic_problems(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_expected_reward_is_visits_weighted_rewards(self, problem, data):
        # The closed-form mean must equal the visit-count identity
        # E[reward] = sum_s E[visits_s] * reward_s.
        from repro.markov.visits import expected_visits

        proc, _ = problem
        par = BranchParameterization(proc.cfg)
        theta = np.array([data.draw(thetas) for _ in range(par.n_parameters)])
        rewards = {
            label: 1.0 + 10.0 * ((i * 7) % 5) for i, label in enumerate(par.states)
        }
        chain = par.chain(theta, rewards)
        visits = expected_visits(chain)
        identity = sum(visits[label] * rewards[label] for label in par.states)
        assert reward_moments(chain).mean == pytest.approx(identity, rel=1e-9)

    @given(synthetic_problems(), st.data())
    @settings(max_examples=15, deadline=None)
    def test_analytic_moments_match_monte_carlo(self, problem, data):
        # reward_moments against brute-force sampling of the same chain:
        # the sample mean must land within a generous CLT band of the
        # analytic mean, and the sample variance in the same ballpark.
        from repro.markov.sampling import sample_rewards

        proc, _ = problem
        par = BranchParameterization(proc.cfg)
        theta = np.array([data.draw(st.floats(0.1, 0.9)) for _ in range(par.n_parameters)])
        rewards = {label: 3.0 + 2.0 * i for i, label in enumerate(par.states)}
        chain = par.chain(theta, rewards)
        analytic = reward_moments(chain)
        n = 4000
        samples = sample_rewards(chain, n, rng=data.draw(seeds))
        band = 6.0 * np.sqrt(max(analytic.variance, 1e-12) / n) + 1e-9
        assert abs(samples.mean() - analytic.mean) <= band
        if analytic.variance > 1e-9:
            assert np.var(samples) == pytest.approx(analytic.variance, rel=0.5)
        else:
            assert np.var(samples) <= 1e-9


class TestEstimatorRoundTrip:
    @given(st.integers(0, 500), st.integers(1, 2), st.data())
    @settings(max_examples=10, deadline=None)
    def test_moment_fit_reproduces_the_observed_mean(self, seed, n_branches, data):
        # Round trip: draw durations from the model's own path family at a
        # hidden theta, fit, and demand the fitted model's mean land near
        # the sample mean.  (Theta itself may be unidentifiable — the
        # moment surface is what the estimator is accountable for.)
        from repro.core import enumerate_paths, fit_moments
        from repro.sim import ProcedureTimingModel

        proc, _ = random_estimation_problem(rng=seed, n_branches=n_branches)
        model = ProcedureTimingModel(proc, MICAZ_LIKE, Layout.source_order(proc.cfg))
        hidden = np.array([data.draw(st.floats(0.15, 0.85)) for _ in range(model.n_parameters)])
        family = enumerate_paths(model, hidden, min_prob=1e-6, max_paths=5000)
        probs = family.probabilities(hidden)
        assume(probs.sum() > 0.999)
        durations = family.duration_means
        gen = np.random.default_rng(seed + 1)
        xs = gen.choice(durations, size=300, p=probs / probs.sum())
        fit = fit_moments(model, xs, timer=MICAZ_LIKE.timer, rng=seed + 2)
        assert np.all(fit.theta >= 0.0) and np.all(fit.theta <= 1.0)
        sigma = np.sqrt(max(np.var(xs), 1.0))
        fitted_mean = model.moments(fit.theta).mean
        assert abs(fitted_mean - xs.mean()) <= 6.0 * sigma / np.sqrt(xs.size) + 0.05 * sigma

    @given(st.integers(0, 500), st.integers(1, 3), st.data())
    @settings(max_examples=10, deadline=None)
    def test_robust_fit_is_identical_on_model_generated_data(self, seed, n_branches, data):
        # Property form of the strict no-op: on data the model itself could
        # produce, robust=True never changes a single bit of the fit.
        from repro.core import enumerate_paths, fit_moments
        from repro.sim import ProcedureTimingModel

        proc, _ = random_estimation_problem(rng=seed, n_branches=n_branches)
        model = ProcedureTimingModel(proc, MICAZ_LIKE, Layout.source_order(proc.cfg))
        hidden = np.array([data.draw(st.floats(0.15, 0.85)) for _ in range(model.n_parameters)])
        family = enumerate_paths(model, hidden, min_prob=1e-6, max_paths=5000)
        probs = family.probabilities(hidden)
        assume(probs.sum() > 0.999)
        durations = family.duration_means
        gen = np.random.default_rng(seed + 3)
        xs = gen.choice(durations, size=150, p=probs / probs.sum())
        classic = fit_moments(model, xs, timer=MICAZ_LIKE.timer, rng=seed)
        robust = fit_moments(model, xs, timer=MICAZ_LIKE.timer, rng=seed, robust=True)
        assert robust.n_rejected == 0
        assert np.array_equal(robust.theta, classic.theta)
        assert robust.cost == classic.cost


class TestFaultLayerProperties:
    rates = st.floats(0.0, 1.0)

    @given(rates, rates, rates, st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_injector_decisions_are_path_deterministic(self, loss, dropout, reboot, seed):
        from repro.faults import FaultInjector, FaultModel

        assume(loss <= 1.0)
        model = FaultModel(radio_loss=loss, sensor_dropout=dropout, reboot=reboot)
        a = FaultInjector.derived(model, seed, "prop")
        b = FaultInjector.derived(model, seed, "prop")
        assert [a.radio_outcome() for _ in range(32)] == [
            b.radio_outcome() for _ in range(32)
        ]
        assert [a.sensor_faulted() for _ in range(32)] == [
            b.sensor_faulted() for _ in range(32)
        ]
        assert [a.reboot_during_activation() for _ in range(32)] == [
            b.reboot_during_activation() for _ in range(32)
        ]

    @given(st.floats(0.0, 64.0))
    @settings(max_examples=80, deadline=None)
    def test_scaled_models_are_always_valid(self, severity):
        # scaled() must never hand back a model its own validator rejects,
        # however hard the severity pushes the joint radio budget.
        from repro.faults import FaultModel

        base = FaultModel(
            radio_loss=0.5,
            radio_corrupt=0.3,
            sensor_dropout=0.2,
            timer_glitch=0.3,
            reboot=0.1,
        )
        scaled = base.scaled(severity)  # __post_init__ re-validates
        assert scaled.radio_loss + scaled.radio_corrupt <= 1.0 + 1e-12
        for rate in (scaled.sensor_dropout, scaled.timer_glitch, scaled.reboot):
            assert 0.0 <= rate <= 1.0

    @given(
        st.integers(0, 200),
        st.lists(st.floats(0.0, 1e9), min_size=1, max_size=60),
    )
    @settings(max_examples=40, deadline=None)
    def test_robust_filter_never_exceeds_its_breakdown_budget(self, seed, raw):
        # Whatever garbage arrives, the screen keeps at least
        # ceil((1 - MAX_REJECT_FRACTION) * n) samples and accounts exactly.
        import math

        from repro.core import robust_filter
        from repro.core.moments_fit import MAX_REJECT_FRACTION
        from repro.sim import ProcedureTimingModel

        proc, _ = random_estimation_problem(rng=seed, n_branches=2)
        model = ProcedureTimingModel(proc, MICAZ_LIKE, Layout.source_order(proc.cfg))
        kept, rejected = robust_filter(model, raw, MICAZ_LIKE.timer)
        assert kept.size + rejected == len(raw)
        assert rejected <= math.floor(MAX_REJECT_FRACTION * len(raw))


class TestSamplerNeverVisitsZeroProbabilityStates:
    @given(st.integers(0, 2_000), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_zero_probability_arm_stays_unvisited(self, seed, arm_is_then):
        from repro.markov import AbsorbingChain
        from repro.markov.sampling import sample_rewards

        marker = 1e9  # reward only the forbidden arm carries
        p = 0.0 if arm_is_then else 1.0
        matrix = np.array(
            [
                [0.0, p, 1.0 - p, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        rewards = [0.0, marker, 1.0] if arm_is_then else [0.0, 1.0, marker]
        chain = AbsorbingChain(
            ["entry", "then", "else"], matrix, rewards, "entry"
        )
        totals = sample_rewards(chain, 64, rng=seed)
        assert np.all(totals < marker)
