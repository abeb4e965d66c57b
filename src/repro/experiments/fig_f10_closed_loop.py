"""F10 — Closed-loop continuous PGO on drifting traces.

The deployment question behind the whole continuous-profiling story: when
the input regime drifts, how much of the lost placement benefit does a
**closed loop** (drift alarm → re-estimate → re-place → hot-swap → audit →
maybe roll back) win back, compared to a *static* layout frozen at deploy
time and a clairvoyant *oracle* that re-places every segment with the true
probabilities and zero latency?

Each workload runs the same long drifting trace under all three policies —
identical per-segment sensor streams, so branch outcomes (which are
layout-invariant) match activation for activation and the policies differ
only in control-transfer cost.  The drift schedules are chosen to exercise
both failure and success modes of closed-loop re-placement:

* ``probe`` sees a **transient spike shorter than the loop's own
  detect-and-relearn latency**: by the time the alarm has fired and the
  relearn window has filled, the spike regime is already gone, so the
  candidate layout was fit on stale evidence — it flips a hot branch the
  world has flipped back, the trial segment regresses hard, and the
  controller must *roll back*.  Later a **sustained shift** of the same
  magnitude arrives, which the loop should re-place for and commit.
* ``sense`` sees one sustained regime change: the clean commit path.

Everything is deterministic for a seed (per-segment sensor and profiler
streams derive from it), and units are independent, so the rendered result
is byte-identical at any ``--jobs``.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Callable, Optional

import numpy as np

from repro.experiments.common import (
    ExperimentConfig,
    ExperimentResult,
    UnitResult,
    combine_units,
    map_units,
)
from repro.ir.program import Program
from repro.lang import compile_source
from repro.markov.builders import BranchParameterization
from repro.mote.platform import Platform
from repro.mote.sensors import IIDSensor, SensorSuite
from repro.pgo import PGOController, SegmentMetrics, measure_segment
from repro.placement.layout import ProgramLayout
from repro.placement.refine import optimize_refined_program_layout
from repro.sim.interpreter import Interpreter
from repro.util.rng import derive_rng
from repro.util.tables import Table
from repro.workloads.registry import workload_by_name

__all__ = ["run", "workload_unit", "WORKLOADS", "POLICIES", "PROBE_SOURCE"]

WORKLOADS = ("probe", "sense")
POLICIES = ("static", "closed-loop", "oracle")

#: Activations per segment (a segment is the regime/swap granularity).
_FULL_ACTS = 250
_QUICK_ACTS = 60

#: The engineered staleness-hazard workload: one reading gates an
#: 8-iteration filter loop (the hot branch, amplified 8x per activation)
#: and a rare report.  The spike regime inverts the hot branch, so a
#: re-placement fit on spike shards flips its layout direction — correct
#: while the spike lasts, catastrophic the segment after it ends.
PROBE_SOURCE = """
# Probe: one reading gates an 8-iteration filter loop and a rare report.
global acc = 0;

proc main() {
    var v = sense(ch);
    var i = 0;
    while (i < 8) {
        if (v > 700) {
            acc = acc + v;
            acc = acc - (acc / 8);
            acc = acc + (v / 4);
        }
        i = i + 1;
    }
    if (v > 980) {
        send(acc);
        acc = 0;
    }
}
"""

#: Per-workload input regimes: channel -> (mean, std) ADC counts.
_REGIMES: dict[str, dict[str, dict[str, tuple[float, float]]]] = {
    # P(v > 700): A ~0.12, B ~0.98 — regime B inverts the hot branch.
    "probe": {
        "A": {"ch": (520.0, 150.0)},
        "B": {"ch": (1000.0, 150.0)},
    },
    # P(light > 768): A ~0.12, B ~0.73.
    "sense": {
        "A": {"light": (520.0, 210.0)},
        "B": {"light": (900.0, 210.0)},
    },
}

#: Drift schedules: (segment count, regime) phases, in order.  The probe
#: spike (3 segments of B) is exactly as long as the loop's reaction
#: latency — one segment to alarm plus ``RELEARN_SHARDS`` to refit — so the
#: swap lands one segment *after* the regime has snapped back to A: the
#: stale-evidence trap.  The final sustained B phase is the same shift held
#: long enough that re-placing for it is correct.
_PHASES: dict[str, tuple[tuple[int, str], ...]] = {
    "probe": ((10, "A"), (3, "B"), (7, "A"), (10, "B")),
    "sense": ((12, "A"), (18, "B")),
}


def _program(name: str) -> Program:
    if name == "probe":
        return compile_source(PROBE_SOURCE, name="probe", entry="main")
    return workload_by_name(name).program()


def _segment_regimes(name: str) -> list[dict[str, tuple[float, float]]]:
    """The per-segment channel parameters, phases expanded."""
    regimes = _REGIMES[name]
    out: list[dict[str, tuple[float, float]]] = []
    for count, regime in _PHASES[name]:
        out.extend([regimes[regime]] * count)
    return out


def _sensors(
    channels: dict[str, tuple[float, float]], seed: int, name: str, segment: int
) -> SensorSuite:
    """A fresh suite per (workload, segment): identical streams across arms."""
    return SensorSuite(
        {ch: IIDSensor(mean, std) for ch, (mean, std) in channels.items()},
        rng=derive_rng(seed, "f10", name, "sensors", segment),
    )


def _segment_truth(
    program: Program, after: Counter, before: Counter
) -> dict[str, np.ndarray]:
    """Ground-truth branch probabilities from one segment's edge deltas."""
    thetas: dict[str, np.ndarray] = {}
    for proc in program:
        par = BranchParameterization(proc.cfg)
        theta = np.empty(par.n_parameters)
        for k, label in enumerate(par.branch_labels):
            then_key = (proc.name, label, "then")
            else_key = (proc.name, label, "else")
            t = after[then_key] - before[then_key]
            e = after[else_key] - before[else_key]
            theta[k] = t / (t + e) if t + e else 0.5
        thetas[proc.name] = theta
    return thetas


def _run_arm(
    program: Program,
    platform: Platform,
    name: str,
    seed: int,
    activations: int,
    regimes: list[dict[str, tuple[float, float]]],
    layout_for_segment: Callable[[int], ProgramLayout],
) -> tuple[list[SegmentMetrics], list[dict[str, np.ndarray]], int]:
    """Run one open-loop policy over the trace; returns metrics/truth/swaps.

    The layout schedule is a function of the segment index; a structural
    change between consecutive segments is applied as a hot swap (counted),
    exactly the mechanism the closed loop uses — so static, oracle, and
    closed-loop pay identical swap mechanics.
    """
    interp: Optional[Interpreter] = None
    metrics: list[SegmentMetrics] = []
    truths: list[dict[str, np.ndarray]] = []
    swaps = 0
    for i, channels in enumerate(regimes):
        sensors = _sensors(channels, seed, name, i)
        layout = layout_for_segment(i)
        if interp is None:
            interp = Interpreter(program, platform, sensors, layout=layout)
        else:
            interp.set_sensors(sensors)
            if layout != interp.layout:
                interp.hot_swap_layout(layout)
                swaps += 1
        edges_before = Counter(interp.counters.edge_counts)
        metrics.append(measure_segment(interp, i, activations))
        interp.records.clear()
        truths.append(_segment_truth(program, interp.counters.edge_counts, edges_before))
    return metrics, truths, swaps


def _totals(metrics: list[SegmentMetrics]) -> tuple[int, int, float, float]:
    """(mispredicts, branches, energy_mj, compute_mj) summed over the trace."""
    return (
        sum(m.mispredicts for m in metrics),
        sum(m.branches for m in metrics),
        sum(m.energy_mj for m in metrics),
        sum(m.compute_mj for m in metrics),
    )


def workload_unit(name: str, config: ExperimentConfig) -> UnitResult:
    """Run one workload's drifting trace under all three policies."""
    activations = _QUICK_ACTS if config.quick else _FULL_ACTS
    program = _program(name)
    platform = config.platform
    regimes = _segment_regimes(name)
    seed = config.seed

    # Deploy-time calibration: profile the first regime under source order,
    # freeze the resulting layout.  All three policies start from it.
    _, calib_truth, _ = _run_arm(
        program,
        platform,
        name,
        seed,
        activations,
        regimes[:1],
        lambda i: ProgramLayout.source_order(program),
    )
    static_layout = optimize_refined_program_layout(program, calib_truth[0], platform)

    static_metrics, truths, _ = _run_arm(
        program, platform, name, seed, activations, regimes, lambda i: static_layout
    )

    # The oracle re-places every segment from that segment's *true*
    # probabilities with zero latency — the upper bound on any reactive loop.
    oracle_layouts = [
        optimize_refined_program_layout(program, t, platform) for t in truths
    ]
    oracle_metrics, _, oracle_swaps = _run_arm(
        program, platform, name, seed, activations, regimes, lambda i: oracle_layouts[i]
    )

    controller = PGOController(program, platform, initial_layout=static_layout)
    for i, channels in enumerate(regimes):
        controller.run_segment(
            _sensors(channels, seed, name, i),
            activations,
            profiler_rng=derive_rng(seed, "f10", name, "profiler", i),
        )
    closed_metrics = [r.metrics for r in controller.reports]

    unit = UnitResult()
    static_mp, _, static_energy, static_compute = _totals(static_metrics)
    oracle_mp, _, _, _ = _totals(oracle_metrics)
    per_policy = {
        "static": (static_metrics, 0, 0),
        "closed-loop": (closed_metrics, controller.swaps, controller.rollbacks),
        "oracle": (oracle_metrics, oracle_swaps, 0),
    }
    for policy in POLICIES:
        p_metrics, swaps, rollbacks = per_policy[policy]
        mispredicts, branches, energy, compute = _totals(p_metrics)
        saved = (static_mp - mispredicts) / static_mp if static_mp else 0.0
        achievable = static_mp - oracle_mp
        captured = (static_mp - mispredicts) / achievable if achievable > 0 else 0.0
        unit.add_row(
            name,
            policy,
            mispredicts,
            mispredicts / branches if branches else 0.0,
            energy,
            compute,
            swaps,
            rollbacks,
            saved,
            captured,
        )
        unit.add_series(
            workload=name,
            policy=policy,
            mispredicts=mispredicts,
            mispredict_rate=mispredicts / branches if branches else 0.0,
            energy_mj=energy,
            compute_mj=compute,
            swaps=swaps,
            rollbacks=rollbacks,
            saved=saved,
            captured=captured,
        )
    # The closed loop's decision timeline (non-hold actions only), for the
    # second table: this is where a reader checks the rollback actually
    # happened where the schedule laid its trap.
    for report in controller.reports:
        if report.action in ("alarm", "swap", "commit", "rollback"):
            unit.add_series(
                timeline_workload=name,
                timeline_segment=report.segment,
                timeline_action=report.action,
                timeline_rate=report.metrics.mispredict_rate,
            )
    unit.add_series(
        energy_static=static_energy,
        energy_closed=_totals(closed_metrics)[2],
        compute_static=static_compute,
        compute_closed=_totals(closed_metrics)[3],
    )
    return unit


def run(config: ExperimentConfig) -> ExperimentResult:
    """Static vs closed-loop vs oracle re-placement over drifting traces."""
    table = Table(
        "F10: cumulative cost over a drifting trace, per re-placement policy",
        [
            "workload",
            "policy",
            "mispredicts",
            "mp_rate",
            "energy_mj",
            "compute_mj",
            "swaps",
            "rollbacks",
            "saved",
            "captured",
        ],
        digits=4,
    )
    timeline = Table(
        "F10: closed-loop decision timeline (non-hold actions)",
        ["workload", "segment", "action", "seg_mp_rate"],
        digits=4,
    )
    series: dict[str, list] = {}
    units = map_units(partial(workload_unit, config=config), WORKLOADS)
    timings = combine_units(units, table, series)
    for i in range(len(series.get("timeline_workload", []))):
        timeline.add_row(
            series["timeline_workload"][i],
            series["timeline_segment"][i],
            series["timeline_action"][i],
            series["timeline_rate"][i],
        )
    return ExperimentResult(
        experiment_id="f10",
        title="closed-loop continuous PGO under drift",
        tables=[table, timeline],
        series=series,
        timings=timings,
        notes=[
            "All policies replay identical per-segment sensor streams; branch "
            "outcomes are layout-invariant, so the policies differ only in "
            "control-transfer cost (mispredicts, cycles, energy).",
            "saved = mispredicts avoided vs the static layout; captured = "
            "fraction of the oracle's achievable saving the policy realized. "
            "compute_mj excludes radio energy (transmissions are decided by "
            "the data path, identical across policies).",
            "The probe schedule's short spike is a staleness trap: it ends "
            "inside the loop's own detect-and-relearn latency, so the swap "
            "deploys a layout fit on a dead regime one segment too late — "
            "the trial-segment audit must catch it and roll back.",
        ],
    )
