"""Tests for the closed-loop continuous-PGO controller and layout registry.

The controller tests drive real segment streams through the F10 probe
workload (the engineered staleness-hazard program): its regimes are tuned so
drift detection, re-placement, hot swap, commit, and rollback all trigger at
known segment boundaries.
"""

from __future__ import annotations

import pytest

from repro.errors import PgoError
from repro.experiments.fig_f10_closed_loop import PROBE_SOURCE, _REGIMES
from repro.lang import compile_source
from repro.mote.platform import MICAZ_LIKE
from repro.mote.sensors import IIDSensor, SensorSuite
from repro.pgo import (
    ACTIONS,
    EVENT_KINDS,
    LayoutRegistry,
    PGOController,
    SwapEvent,
)
from repro.placement import ProgramLayout, optimize_refined_program_layout
from repro.util.rng import derive_rng

ACTS = 60  # activations per segment (matches quick-mode F10, where the
# probe schedule's alarm/swap/rollback timing was validated)


@pytest.fixture(scope="module")
def probe():
    return compile_source(PROBE_SOURCE, name="probe", entry="main")


def probe_sensors(regime: str, seed: int, segment: int) -> SensorSuite:
    channels = _REGIMES["probe"][regime]
    return SensorSuite(
        {ch: IIDSensor(mean, std) for ch, (mean, std) in channels.items()},
        rng=derive_rng(seed, "pgo-test", "sensors", regime, segment),
    )


def run_schedule(controller: PGOController, schedule: list[str], seed: int = 7,
                 start: int = 0):
    """Feed one regime-labelled segment per entry; returns the reports."""
    reports = []
    for offset, regime in enumerate(schedule):
        i = start + offset
        reports.append(
            controller.run_segment(
                probe_sensors(regime, seed, i),
                ACTS,
                profiler_rng=derive_rng(seed, "pgo-test", "profiler", i),
            )
        )
    return reports


#: Spike exactly as long as alarm latency (1) + relearn window (3): the swap
#: deploys one segment after the regime snapped back -> audited rollback.
TRAP = ["A"] * 10 + ["B"] * 3 + ["A"] * 3
#: Sustained shift: the swap trials while B still holds -> commit.
SUSTAINED = ["A"] * 10 + ["B"] * 6


class TestLayoutRegistry:
    def test_add_is_idempotent_and_content_addressed(self, probe):
        reg = LayoutRegistry()
        a = ProgramLayout.source_order(probe)
        b = ProgramLayout.source_order(probe)  # distinct object, same structure
        key = reg.add(a)
        assert reg.add(b) == key
        assert len(reg) == 1
        assert reg.get(key) is a  # first object wins
        assert key in reg

    def test_get_unknown_key_raises(self):
        with pytest.raises(PgoError, match="no layout registered"):
            LayoutRegistry().get("0" * 64)

    def test_event_vocabulary_is_validated(self, probe):
        reg = LayoutRegistry()
        key = reg.add(ProgramLayout.source_order(probe))
        with pytest.raises(PgoError, match="unknown event kind"):
            SwapEvent(segment=0, kind="upgrade", key=key)
        with pytest.raises(PgoError, match="cannot have a previous"):
            SwapEvent(segment=-1, kind="initial", key=key, previous=key)
        with pytest.raises(PgoError, match="needs the previous"):
            SwapEvent(segment=0, kind="swap", key=key)
        assert set(EVENT_KINDS) == {"initial", "swap", "rollback"}

    def test_record_requires_registered_endpoints(self, probe):
        reg = LayoutRegistry()
        key = reg.add(ProgramLayout.source_order(probe))
        with pytest.raises(PgoError, match="unregistered"):
            reg.record(SwapEvent(segment=0, kind="swap", key="f" * 64, previous=key))
        with pytest.raises(PgoError, match="unregistered"):
            reg.record(SwapEvent(segment=0, kind="swap", key=key, previous="f" * 64))

    def test_live_key_and_segment_attribution(self, probe):
        reg = LayoutRegistry()
        base = reg.add(ProgramLayout.source_order(probe))
        other = reg.add(
            optimize_refined_program_layout(
                probe, {"main": [0.9, 0.95, 0.5]}, MICAZ_LIKE
            )
        )
        assert other != base
        reg.record(SwapEvent(segment=-1, kind="initial", key=base))
        reg.record(SwapEvent(segment=4, kind="swap", key=other, previous=base))
        reg.record(SwapEvent(segment=7, kind="rollback", key=base, previous=other))
        assert reg.live_key() == base
        assert reg.segments_for(base) == [(0, 5), (8, None)]
        assert reg.segments_for(other) == [(5, 8)]


class TestControllerStateMachine:
    def test_steady_state_never_swaps(self, probe):
        ctl = PGOController(probe, MICAZ_LIKE)
        reports = run_schedule(ctl, ["A"] * 8)
        assert [r.action for r in reports] == ["hold"] * 8
        assert ctl.swaps == 0 and ctl.rollbacks == 0
        assert len(ctl.registry) == 1

    def test_trap_schedule_rolls_back_to_pre_swap_layout(self, probe):
        initial = optimize_refined_program_layout(
            probe, {"main": [0.889, 0.115, 0.001]}, MICAZ_LIKE
        )
        ctl = PGOController(probe, MICAZ_LIKE, initial_layout=initial)
        initial_key = ctl.current_key
        reports = run_schedule(ctl, TRAP)
        actions = [r.action for r in reports]
        assert "alarm" in actions and "swap" in actions
        assert ctl.rollbacks == 1 and "commit" not in actions
        rollback = next(r for r in reports if r.action == "rollback")
        swap = next(r for r in reports if r.action == "swap")
        assert rollback.segment == swap.segment + 1  # audited on the trial segment
        # Rollback restored the exact pre-swap layout, by content address...
        assert ctl.current_key == initial_key
        assert ctl._interp.layout == initial
        # ...and the registry's event log attributes the trial segment to the
        # (now dead) candidate layout.
        candidate_key = next(
            e.key for e in ctl.registry.events if e.kind == "swap"
        )
        assert ctl.registry.segments_for(candidate_key) == [
            (swap.segment + 1, rollback.segment + 1)
        ]
        # Counters kept flowing across swap and rollback: every segment ran.
        assert ctl.totals().activations == len(TRAP) * ACTS

    def test_sustained_shift_commits(self, probe):
        initial = optimize_refined_program_layout(
            probe, {"main": [0.889, 0.115, 0.001]}, MICAZ_LIKE
        )
        ctl = PGOController(probe, MICAZ_LIKE, initial_layout=initial)
        reports = run_schedule(ctl, SUSTAINED)
        assert [r.action for r in reports].count("commit") == 1 and ctl.rollbacks == 0
        commit = next(r for r in reports if r.action == "commit")
        swap = next(r for r in reports if r.action == "swap")
        assert commit.segment == swap.segment + 1
        # The committed layout stayed live to the end.
        assert ctl.current_key == ctl.registry.live_key() != ctl.registry.keys[0]
        # The new layout measurably beats the old one under the new regime.
        pre = next(r for r in reports if r.segment == swap.segment)
        assert commit.metrics.mispredict_rate < pre.metrics.mispredict_rate / 2

    def test_actions_vocabulary_is_closed(self, probe):
        ctl = PGOController(probe, MICAZ_LIKE)
        reports = run_schedule(ctl, TRAP)
        assert {r.action for r in reports} <= set(ACTIONS)

    def test_rejects_bad_inputs(self, probe):
        ctl = PGOController(probe, MICAZ_LIKE)
        with pytest.raises(PgoError, match="activations"):
            ctl.run_segment(probe_sensors("A", 7, 0), 0)
