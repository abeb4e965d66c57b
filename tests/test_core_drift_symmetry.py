"""Tests for drift tracking and exchangeability detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import detect_drift, estimate_epochs, exchangeable_pairs
from repro.errors import EstimationError
from repro.ir import CFGBuilder, const, nop
from repro.markov.sampling import sample_rewards
from repro.mote import MICAZ_LIKE
from repro.placement.layout import Layout
from repro.sim import ProcedureTimingModel
from tests.conftest import build_diamond_procedure


def diamond_model(then_pad=5, else_pad=60):
    proc, _ = build_diamond_procedure(then_cost_pad=then_pad, else_cost_pad=else_pad)
    return ProcedureTimingModel(proc, MICAZ_LIKE, Layout.source_order(proc.cfg))


def build_twin_diamonds(pads_a: tuple[int, int], pads_b: tuple[int, int]):
    """Two sequential diamonds with configurable arm paddings."""
    b = CFGBuilder("twins")
    b.emit(const("c", 1))

    for pads in (pads_a, pads_b):
        cond_label = b.current.label
        then_blk, else_blk = b.branch("c")
        join = b.fresh_label("join")
        b.emit(*(nop() for _ in range(pads[0])))
        b.jump(join)
        b.switch_to(else_blk)
        b.emit(*(nop() for _ in range(pads[1])))
        b.jump(join)
        b.block(join)
    b.ret()
    proc = b.build()
    return ProcedureTimingModel(proc, MICAZ_LIKE, Layout.source_order(proc.cfg))


class TestExchangeablePairs:
    def test_identical_diamonds_are_exchangeable(self):
        model = build_twin_diamonds((5, 40), (5, 40))
        assert exchangeable_pairs(model) == [(0, 1)]

    def test_distinct_diamonds_are_not(self):
        model = build_twin_diamonds((5, 40), (5, 80))
        assert exchangeable_pairs(model) == []

    def test_single_branch_has_no_pairs(self):
        assert exchangeable_pairs(diamond_model()) == []


class TestEstimateEpochs:
    def test_stationary_track_is_flat(self):
        model = diamond_model()
        truth = np.array([0.3])
        xs = sample_rewards(model.chain(truth), 3000, rng=1)
        track = estimate_epochs(model, xs, epoch_size=600, rng=2)
        assert track.n_epochs == 5
        assert np.all(np.abs(track.thetas - 0.3) < 0.08)
        assert track.total_variation()[0] < 0.3

    def test_regime_change_is_visible(self):
        model = diamond_model()
        first = sample_rewards(model.chain([0.1]), 1500, rng=3)
        second = sample_rewards(model.chain([0.9]), 1500, rng=4)
        xs = np.concatenate([first, second])
        track = estimate_epochs(model, xs, epoch_size=500, rng=5)
        series = track.thetas[:, 0]
        assert series[0] < 0.25
        assert series[-1] > 0.75

    def test_detect_drift_flags_the_jump(self):
        model = diamond_model()
        first = sample_rewards(model.chain([0.1]), 1000, rng=6)
        second = sample_rewards(model.chain([0.9]), 1000, rng=7)
        track = estimate_epochs(
            model, np.concatenate([first, second]), epoch_size=500, rng=8
        )
        events = detect_drift(track, threshold=0.3)
        assert events, "the regime change must be flagged"
        ks = {k for k, _, _ in events}
        assert ks == {0}
        assert all(delta > 0 for _, _, delta in events)

    def test_stationary_track_has_no_drift_events(self):
        model = diamond_model()
        xs = sample_rewards(model.chain([0.5]), 2400, rng=9)
        track = estimate_epochs(model, xs, epoch_size=600, rng=10)
        assert detect_drift(track, threshold=0.2) == []

    def test_partial_trailing_epoch_policy(self):
        model = diamond_model()
        xs = sample_rewards(model.chain([0.5]), 1100, rng=11)
        # 1000-size epochs: trailing 100 samples < half an epoch -> dropped,
        # and the drop is accounted for explicitly rather than silently.
        track = estimate_epochs(model, xs, epoch_size=1000, rng=12)
        assert track.n_epochs == 1
        assert track.n_dropped == 100
        assert sum(track.n_samples) + track.n_dropped == len(xs)
        # 700-size epochs: trailing 400 >= half -> kept, nothing dropped.
        track = estimate_epochs(model, xs, epoch_size=700, rng=13)
        assert track.n_epochs == 2
        assert track.n_dropped == 0
        assert track.n_samples == (700, 400)
        assert sum(track.n_samples) + track.n_dropped == len(xs)

    def test_bad_arguments_rejected(self):
        model = diamond_model()
        with pytest.raises(EstimationError):
            estimate_epochs(model, [], epoch_size=10)
        with pytest.raises(EstimationError):
            estimate_epochs(model, [1.0, 2.0], epoch_size=1)
        xs = sample_rewards(model.chain([0.5]), 100, rng=1)
        track = estimate_epochs(model, xs, epoch_size=50, rng=1)
        with pytest.raises(EstimationError):
            detect_drift(track, threshold=0.0)
