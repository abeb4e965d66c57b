"""Tests for chain formation, the optimizer, and analytic layout metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PlacementError
from repro.experiments.common import ExperimentConfig, profiled_run, tomography_thetas
from repro.lang import compile_source
from repro.mote import (
    MICAZ_LIKE,
    AlwaysNotTakenPredictor,
    BTFNPredictor,
    SensorSuite,
    UniformSensor,
)
from repro.placement import (
    Layout,
    build_chains,
    evaluate_program_layout,
    optimize_layout,
    optimize_program_layout,
    optimize_refined_program_layout,
    source_order_layout,
)
from repro.placement.chains import WEIGHT_GRID, order_from_chains
from repro.placement.optimizer import edge_frequencies
from repro.sim import run_program
from repro.workloads.registry import all_workloads

SKEWED_SRC = """
proc main() {
    if (sense(a) > 100) {
        led(1);
    } else {
        led(2);
    }
    led(0);
}
"""


@pytest.fixture
def skewed_cfg():
    return compile_source(SKEWED_SRC).procedure("main").cfg


class TestEdgeFrequencies:
    def test_diamond_frequencies_follow_theta(self, skewed_cfg):
        freqs = edge_frequencies(skewed_cfg, [0.9])
        branch = skewed_cfg.branch_blocks()[0]
        term = branch.terminator
        assert freqs[(branch.label, term.then_target)] == pytest.approx(0.9)
        assert freqs[(branch.label, term.else_target)] == pytest.approx(0.1)

    def test_loop_frequencies_are_geometric(self):
        cfg = compile_source(
            "proc main() { while (sense(a) > 900) { led(1); } }"
        ).procedure("main").cfg
        p = 0.75
        freqs = edge_frequencies(cfg, [p])
        header = cfg.branch_blocks()[0]
        term = header.terminator
        # Loop body entered E = p/(1-p) ... header executed 1/(1-p) times.
        assert freqs[(header.label, term.then_target)] == pytest.approx(p / (1 - p))


class TestBuildChains:
    def test_hot_edge_becomes_fallthrough(self, skewed_cfg):
        layout = optimize_layout(skewed_cfg, [0.95])
        branch = skewed_cfg.branch_blocks()[0]
        term = branch.terminator
        # The likely (then) arm must directly follow the branch in flash.
        assert layout.is_fallthrough(branch.label, term.then_target)

    def test_cold_arm_when_theta_low(self, skewed_cfg):
        layout = optimize_layout(skewed_cfg, [0.05])
        branch = skewed_cfg.branch_blocks()[0]
        term = branch.terminator
        assert layout.is_fallthrough(branch.label, term.else_target)

    def test_chains_partition_blocks(self, skewed_cfg):
        chains = build_chains(skewed_cfg, edge_frequencies(skewed_cfg, [0.5]))
        flattened = order_from_chains(chains)
        assert sorted(flattened) == sorted(skewed_cfg.labels)

    def test_entry_chain_first(self, skewed_cfg):
        chains = build_chains(skewed_cfg, edge_frequencies(skewed_cfg, [0.7]))
        assert chains[0][0] == skewed_cfg.entry

    def test_unknown_edge_labels_rejected(self, skewed_cfg):
        with pytest.raises(PlacementError, match="unknown block"):
            build_chains(skewed_cfg, {("ghost", "entry"): 1.0})

    def test_deterministic_for_equal_weights(self, skewed_cfg):
        freqs = edge_frequencies(skewed_cfg, [0.5])
        a = build_chains(skewed_cfg, dict(freqs))
        b = build_chains(skewed_cfg, dict(freqs))
        assert a == b

    def test_weights_within_the_grid_tie_on_source_order(self, skewed_cfg):
        branch = skewed_cfg.branch_blocks()[0]
        term = branch.terminator
        then_edge = (branch.label, term.then_target)
        else_edge = (branch.label, term.else_target)
        # The else arm's edge is heavier, but only below the grid: the
        # then arm comes first in source order and takes the fall-through.
        weights = {then_edge: 0.5, else_edge: 0.5 + WEIGHT_GRID / 10}
        chains = build_chains(skewed_cfg, weights)
        assert Layout(skewed_cfg, order_from_chains(chains)).is_fallthrough(*then_edge)
        weights[else_edge] = 0.5 + 2 * WEIGHT_GRID
        chains = build_chains(skewed_cfg, weights)
        assert Layout(skewed_cfg, order_from_chains(chains)).is_fallthrough(*else_edge)


@pytest.fixture(scope="module")
def f4_profiles():
    """F4's profiled runs: ``(workload, program, platform, thetas)`` per predictor.

    ``thetas`` holds F4's tomography estimate and the ground truth, at the
    golden configuration.
    """
    cases = []
    for predictor in (BTFNPredictor(), AlwaysNotTakenPredictor()):
        config = ExperimentConfig(platform=MICAZ_LIKE.with_predictor(predictor))
        for spec in all_workloads():
            run = profiled_run(spec, config)
            thetas = {"tomography": tomography_thetas(run, config), "truth": run.truth}
            cases.append((spec.name, run.program, config.platform, thetas))
    return cases


@pytest.mark.parametrize("source", ["tomography", "truth"])
def test_placement_ignores_last_bit_noise_in_theta(f4_profiles, source):
    # A solver or summation-order change moves an estimate in its last bits;
    # without rounding, tinydb-agg's, surge's and event-detect's layouts
    # flipped under such noise.
    rng = np.random.default_rng(2015)
    for name, program, platform, thetas in f4_profiles:
        theta = thetas[source]
        chains = optimize_program_layout(program, theta)
        refined = optimize_refined_program_layout(program, theta, platform)
        for _ in range(8):
            nudged = {
                proc: np.clip(vec + rng.choice((-1e-12, 1e-12), size=len(vec)), 0.0, 1.0)
                for proc, vec in theta.items()
            }
            assert optimize_program_layout(program, nudged) == chains, name
            assert optimize_refined_program_layout(program, nudged, platform) == refined, name


class TestOptimizeProgram:
    def test_missing_theta_for_branchy_procedure_raises(self, demo_program):
        with pytest.raises(PlacementError, match="length"):
            optimize_program_layout(demo_program, {})

    def test_branch_free_procedures_need_no_theta(self):
        prog = compile_source("proc main() { led(1); }")
        layout = optimize_program_layout(prog, {})
        assert layout.layout("main").order[0] == "entry"

    def test_optimized_beats_source_on_skewed_program(self):
        # Strongly skewed branch placed wrong in source order.
        src = """
        proc main() {
            if (sense(a) > 900) {
                send(1);
            } else {
                led(0);
            }
        }
        """
        prog = compile_source(src, "skew")
        platform = MICAZ_LIKE.with_predictor(AlwaysNotTakenPredictor())
        truth = {"main": np.array([0.12])}  # P(sense > 900) with uniform
        optimized = optimize_program_layout(prog, truth)

        def mispredicts(layout):
            sensors = SensorSuite({"a": UniformSensor()}, rng=5)
            res = run_program(prog, platform, sensors, activations=4000, layout=layout)
            return res.counters.mispredict_rate

        assert mispredicts(optimized) < mispredicts(None)


class TestAnalyticMetrics:
    def test_matches_dynamic_measurement(self):
        # Memoryless single-branch program: analytic expectations must match
        # the simulator's measured rates.
        src = """
        proc main() {
            if (sense(a) > 767) {
                send(1);
            } else {
                led(0);
            }
        }
        """
        prog = compile_source(src, "mm")
        platform = MICAZ_LIKE
        theta = {"main": np.array([0.25])}
        layout = source_order_layout(prog)
        metrics = evaluate_program_layout(prog, layout, theta, platform)
        sensors = SensorSuite({"a": UniformSensor()}, rng=8)
        result = run_program(prog, platform, sensors, activations=30_000)
        assert metrics.mispredict_rate == pytest.approx(
            result.counters.mispredict_rate, abs=0.01
        )
        assert metrics.expected_cycles == pytest.approx(
            result.cycles_per_activation, rel=0.01
        )

    def test_program_metrics_include_callees(self, demo_program):
        thetas = {"work": np.array([0.5]), "main": np.array([0.3])}
        metrics = evaluate_program_layout(
            demo_program, source_order_layout(demo_program), thetas, MICAZ_LIKE
        )
        # work contributes one branch per activation on top of main's.
        assert metrics.branches > 1.0

    def test_mispredict_rate_zero_when_no_branches(self):
        prog = compile_source("proc main() { led(1); }")
        metrics = evaluate_program_layout(
            prog, source_order_layout(prog), {}, MICAZ_LIKE
        )
        assert metrics.branches == 0.0
        assert metrics.mispredict_rate == 0.0

    def test_oracle_layout_minimizes_analytic_mispredicts(self, skewed_cfg):
        prog = compile_source(SKEWED_SRC, "sk")
        platform = MICAZ_LIKE.with_predictor(AlwaysNotTakenPredictor())
        theta = {"main": np.array([0.9])}
        optimized = optimize_program_layout(prog, theta)
        src_metrics = evaluate_program_layout(
            prog, source_order_layout(prog), theta, platform
        )
        opt_metrics = evaluate_program_layout(prog, optimized, theta, platform)
        assert opt_metrics.mispredicts <= src_metrics.mispredicts
