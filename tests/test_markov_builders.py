"""Tests for the CFG -> parameterized chain bridge."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MarkovError
from repro.lang import compile_source
from repro.markov import BranchParameterization, reward_moments


@pytest.fixture
def diamond_cfg(diamond_procedure):
    return diamond_procedure.cfg


def zero_rewards(par: BranchParameterization) -> dict[str, float]:
    return {label: 0.0 for label in par.states}


class TestBranchParameterization:
    def test_parameter_count_matches_branches(self, diamond_cfg):
        par = BranchParameterization(diamond_cfg)
        assert par.n_parameters == 1

    def test_unreachable_branches_excluded(self):
        prog = compile_source(
            """
            proc main() {
                if (sense(a) > 1) { led(1); }
            }
            """
        )
        cfg = prog.procedure("main").cfg
        par = BranchParameterization(cfg)
        assert set(par.states) == cfg.reachable_labels()

    def test_chain_probabilities_follow_theta(self, diamond_cfg):
        par = BranchParameterization(diamond_cfg)
        rewards = zero_rewards(par)
        chain = par.chain([0.25], rewards)
        branch = par.branch_labels[0]
        term = diamond_cfg.block(branch).terminator
        assert chain.probability(branch, term.then_target) == pytest.approx(0.25)
        assert chain.probability(branch, term.else_target) == pytest.approx(0.75)

    def test_theta_length_validated(self, diamond_cfg):
        par = BranchParameterization(diamond_cfg)
        with pytest.raises(MarkovError, match="length"):
            par.chain([0.5, 0.5], zero_rewards(par))

    def test_theta_bounds_validated(self, diamond_cfg):
        par = BranchParameterization(diamond_cfg)
        with pytest.raises(MarkovError, match=r"\[0, 1\]"):
            par.chain([1.5], zero_rewards(par))

    def test_missing_rewards_reported(self, diamond_cfg):
        par = BranchParameterization(diamond_cfg)
        with pytest.raises(MarkovError, match="missing"):
            par.chain([0.5], {})

    def test_edge_probability_round_trip(self, diamond_cfg):
        par = BranchParameterization(diamond_cfg)
        theta = np.array([0.37])
        probs = par.edge_probabilities(theta)
        label = par.branch_labels[0]
        assert probs[(label, "then")] == pytest.approx(0.37)
        assert probs[(label, "else")] == pytest.approx(0.63)


class TestChainMoments:
    def test_loop_expected_time_is_geometric(self):
        prog = compile_source("proc main() { while (sense(a) > 900) { led(1); } }")
        cfg = prog.procedure("main").cfg
        par = BranchParameterization(cfg)
        # Header visited 1/(1-p) times in expectation for continue-prob p.
        p = 0.4
        rewards = {label: 0.0 for label in par.states}
        header = par.branch_labels[0]
        rewards[header] = 1.0  # count header visits via reward
        chain = par.chain([p], rewards)
        m = reward_moments(chain)
        assert m.mean == pytest.approx(1.0 / (1.0 - p))
