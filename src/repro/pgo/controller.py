"""The closed-loop continuous-PGO controller.

This module closes the loop the rest of the library leaves open: streaming
estimation (:class:`~repro.core.online.OnlineEstimator`) watches a live
mote's timing shards, drift detection (:mod:`repro.obs.health`) notices when
the branch probabilities behind the current code placement have gone stale,
and the placement optimizer (:mod:`repro.placement`) produces a fresh layout
— which the controller hot-swaps into the running interpreter at a safe
activation boundary, then *audits*: if the first post-swap segment measures
worse than the last pre-swap segment beyond statistical noise, the swap is
rolled back and the old layout restored from the content-addressed
:class:`~repro.pgo.registry.LayoutRegistry`.

Execution is sliced into **segments** (a fixed number of activations, the
unit at which sensors may change regime).  Per segment the controller:

1. runs the activations on one persistent :class:`~repro.sim.Interpreter`
   (globals and RAM survive across segments and swaps);
2. collects the segment's timing shard through the platform timer and feeds
   it to the online estimator (whose health monitor sees the pre-refit
   innovations);
3. advances a small state machine::

       steady --drift alarm--> relearn --candidate differs--> trial
         ^                        |                             |
         |                        +--candidate identical--------+--commit
         +------rollback (trial regressed vs pre-swap segment)--+

   In ``relearn`` the estimator has been **reset** — probabilities learned
   under the old regime (and the old layout's timing model) are evidence
   about the past, so the candidate layout is fit only on post-alarm
   shards.  In ``trial`` the swap is live but unproven; the next segment's
   measured mispredict rate and energy decide commit vs rollback.

Everything is deterministic given the sensor streams and profiler seeds:
EM uses no RNG, the health monitor's clock feeds no decision, and segment
metrics come from exact counter deltas — so controller runs are
bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.core.online import OnlineEstimator, OnlineOptions
from repro.errors import PgoError
from repro.ir.program import Program
from repro.mote.platform import Platform
from repro.mote.sensors import SensorSuite
from repro.obs.health import AlertEvent, EstimatorHealthMonitor
from repro.pgo.registry import LayoutRegistry, SwapEvent
from repro.placement.layout import ProgramLayout
from repro.placement.refine import optimize_refined_program_layout
from repro.profiling.timing_profiler import TimingProfiler
from repro.sim.interpreter import Interpreter
from repro.util.rng import RngSource

__all__ = [
    "SegmentMetrics",
    "measure_segment",
    "SegmentReport",
    "PGOController",
    "ACTIONS",
]

#: Per-segment controller actions (the vocabulary is closed).
ACTIONS = ("hold", "alarm", "relearn", "swap", "commit", "rollback")

#: State-machine phases.
_STEADY, _RELEARN, _TRIAL = "steady", "relearn", "trial"

#: The loop's estimator tracks every segment and never stops on its own.
ONLINE_OPTIONS = OnlineOptions(epsilon=None)

#: Drift warm-up in shards: a controller segment carries hundreds of
#: samples, so the innovation baseline settles faster than the serve
#: default.
WARMUP_SHARDS = 4

#: Post-alarm segments the fresh estimator absorbs before a candidate
#: layout is proposed.
RELEARN_SHARDS = 3

#: The rollback gate fires when the trial segment's mispredict rate exceeds
#: the pre-swap reference by more than ``ROLLBACK_Z`` pooled standard
#: errors, **or** its compute (CPU + ADC) energy per activation exceeds the
#: reference by more than ``ENERGY_RTOL`` relatively.
ROLLBACK_Z = 1.96
ENERGY_RTOL = 0.05

#: Segments that ignore new drift alarms right after a rollback or an
#: unchanged re-placement, so the loop cannot flap.
COOLDOWN_SEGMENTS = 2


@dataclass(frozen=True)
class SegmentMetrics:
    """Exact measured cost of one segment (counter deltas, not estimates).

    ``energy_mj`` is the total budget draw (CPU + ADC + radio);
    ``compute_mj`` excludes the radio.  Transmissions are decided by the
    program's data path, which placement cannot touch — radio energy is
    layout-invariant noise from the rollback gate's point of view, so the
    gate audits ``compute_mj`` while reports still carry the total.
    """

    segment: int
    activations: int
    branches: int
    taken: int
    mispredicts: int
    cycles: int
    sense_reads: int
    transmissions: int
    energy_mj: float
    compute_mj: float

    @property
    def mispredict_rate(self) -> float:
        """Mispredicted fraction of the segment's conditional branches."""
        return self.mispredicts / self.branches if self.branches else 0.0

    @property
    def compute_per_activation(self) -> float:
        """Layout-attributable (CPU + ADC) energy per activation."""
        return self.compute_mj / self.activations if self.activations else 0.0


def measure_segment(interp: Interpreter, segment: int, activations: int) -> SegmentMetrics:
    """Run ``activations`` activations on ``interp`` and meter them.

    The metrics are the differences of the interpreter's counts across the
    run, priced on its platform; the hardware counters are reported when
    the run ends.  The controller and F10's open-loop arms both meter their
    segments here, so every policy is measured the same way.
    """
    c = interp.counters
    branches, taken, mispredicts = c.branches_executed, c.taken_total, c.mispredict_total
    cycle, senses, txs = interp.cycle, c.sense_reads, interp.radio.transmissions
    for _ in range(activations):
        interp.run_activation()
    interp.report_counters()
    d_cycles = interp.cycle - cycle
    d_senses = c.sense_reads - senses
    d_txs = interp.radio.transmissions - txs
    energy = interp.platform.energy
    return SegmentMetrics(
        segment=segment,
        activations=activations,
        branches=c.branches_executed - branches,
        taken=c.taken_total - taken,
        mispredicts=c.mispredict_total - mispredicts,
        cycles=d_cycles,
        sense_reads=d_senses,
        transmissions=d_txs,
        energy_mj=energy.total_mj(cycles=d_cycles, conversions=d_senses, packets=d_txs),
        compute_mj=energy.total_mj(cycles=d_cycles, conversions=d_senses, packets=0),
    )


@dataclass(frozen=True)
class SegmentReport:
    """What the controller did after one segment, and what it measured."""

    segment: int
    layout_key: str  # layout that was live *during* the segment
    phase: str  # phase the segment ran under
    action: str  # one of ACTIONS, decided at the segment boundary
    metrics: SegmentMetrics
    detail: str = ""


class PGOController:
    """Drives one program's closed-loop placement over a segment stream."""

    def __init__(
        self,
        program: Program,
        platform: Platform,
        initial_layout: Optional[ProgramLayout] = None,
    ) -> None:
        self.program = program
        self.platform = platform
        layout = initial_layout or ProgramLayout.source_order(program)
        self.registry = LayoutRegistry()
        self.current_key = self.registry.add(layout)
        self.registry.record(
            SwapEvent(segment=-1, kind="initial", key=self.current_key)
        )
        self.pre_swap_key: Optional[str] = None
        self.phase = _STEADY
        self.cooldown = 0
        self.shards_since_reset = 0
        self.segment_index = 0
        self.reference: Optional[SegmentMetrics] = None
        self.reports: list[SegmentReport] = []
        self.alarms: list[AlertEvent] = []
        self._pending_alarms: list[AlertEvent] = []
        self._interp: Optional[Interpreter] = None
        self.estimator: OnlineEstimator = self._fresh_estimator()

    # -- wiring ---------------------------------------------------------------

    def _current_layout(self) -> ProgramLayout:
        return self.registry.get(self.current_key)

    def _on_alert(self, event: AlertEvent) -> None:
        if event.kind == "drift":
            self._pending_alarms.append(event)
            self.alarms.append(event)

    def _fresh_estimator(self) -> OnlineEstimator:
        """A new estimator + monitor bound to the *current* layout.

        Reset points are alarms, swaps, and rollbacks: timing samples are
        drawn through the live layout's control-transfer costs, so samples
        collected under a different layout (or a dead regime) are evidence
        about a different model and must not leak into the next fit.
        """
        estimator = OnlineEstimator(
            self.program,
            self.platform,
            options=ONLINE_OPTIONS,
            layout=self._current_layout(),
        )
        estimator.attach_health(
            EstimatorHealthMonitor(WARMUP_SHARDS, source="pgo", sink=self._on_alert)
        )
        self.shards_since_reset = 0
        obs.inc("pgo.estimator_resets")
        return estimator

    def _ensure_interpreter(self, sensors: SensorSuite) -> Interpreter:
        if self._interp is None:
            self._interp = Interpreter(
                self.program,
                self.platform,
                sensors,
                layout=self._current_layout(),
            )
        else:
            self._interp.set_sensors(sensors)
        return self._interp

    # -- the loop -------------------------------------------------------------

    def run_segment(
        self,
        sensors: SensorSuite,
        activations: int,
        profiler_rng: RngSource = None,
    ) -> SegmentReport:
        """Run one segment and advance the state machine at its boundary.

        ``sensors`` is this segment's input regime (a fresh suite per
        segment keeps arms comparable across policies); ``profiler_rng``
        seeds the timer-jitter stream for the segment's shard.
        """
        if activations < 1:
            raise PgoError(f"activations must be >= 1, got {activations}")
        interp = self._ensure_interpreter(sensors)
        segment = self.segment_index
        phase = self.phase
        live_key = self.current_key
        with obs.span(
            "pgo.segment", segment=segment, phase=phase, layout=live_key[:12]
        ) as span:
            interp.records.clear()
            with obs.span("sim.segment", segment=segment, activations=activations):
                metrics = measure_segment(interp, segment, activations)
            shard = TimingProfiler(self.platform, rng=profiler_rng).collect(
                interp.records
            )
            interp.records.clear()
            self._pending_alarms = []
            self.estimator.absorb(shard)
            self.shards_since_reset += 1
            action, detail = self._decide(metrics)
            span.set(action=action, mispredict_rate=round(metrics.mispredict_rate, 6))
        obs.inc("pgo.segments")
        report = SegmentReport(
            segment=segment,
            layout_key=live_key,
            phase=phase,
            action=action,
            metrics=metrics,
            detail=detail,
        )
        self.reports.append(report)
        self.segment_index += 1
        return report

    # -- the state machine ----------------------------------------------------

    def _decide(self, metrics: SegmentMetrics) -> tuple[str, str]:
        if self.phase == _TRIAL:
            return self._judge_trial(metrics)
        if self.phase == _RELEARN:
            if self.shards_since_reset >= RELEARN_SHARDS:
                return self._propose(metrics)
            return "relearn", (
                f"relearning ({self.shards_since_reset}/{RELEARN_SHARDS} shards)"
            )
        # Steady state: watch for drift, honour the cooldown.
        if self.cooldown > 0:
            self.cooldown -= 1
            if self._pending_alarms:
                return "hold", "drift alarm suppressed during cooldown"
            return "hold", f"cooldown ({self.cooldown} left)"
        if self._pending_alarms:
            procs = sorted({a.procedure for a in self._pending_alarms if a.procedure})
            self.estimator = self._fresh_estimator()
            self.phase = _RELEARN
            obs.inc("pgo.drift_alarms")
            return "alarm", f"drift in {', '.join(procs)}; estimator reset"
        return "hold", ""

    def _propose(self, metrics: SegmentMetrics) -> tuple[str, str]:
        """End of relearn: re-optimize placement from the fresh estimate.

        Uses the BTFN-aware refined optimizer — chain formation alone can
        propose layouts whose hot taken-targets sit backward in flash, which
        the static predictor then mispredicts on the hot path; the refiner
        scores candidates under the platform's actual prediction scheme.
        """
        candidate = optimize_refined_program_layout(
            self.program, self.estimator.thetas, self.platform
        )
        key = self.registry.add(candidate)
        if key == self.current_key:
            # The drift did not move any placement decision; stand down.
            self.phase = _STEADY
            self.cooldown = COOLDOWN_SEGMENTS
            return "hold", "re-placement unchanged; no swap"
        previous = self.current_key
        self._swap_to(key, metrics.segment, kind="swap", detail="post-drift candidate")
        self.pre_swap_key = previous
        self.reference = metrics
        self.phase = _TRIAL
        obs.inc("pgo.swaps")
        obs.instant("pgo.swap", segment=metrics.segment, key=key[:12])
        return "swap", f"hot-swapped to {key[:12]} (trialing)"

    def _judge_trial(self, metrics: SegmentMetrics) -> tuple[str, str]:
        """First post-swap segment measured: commit, or roll back."""
        assert self.reference is not None and self.pre_swap_key is not None
        regressed, why = self._regression(metrics, self.reference)
        if regressed:
            restored = self.pre_swap_key
            self._swap_to(
                restored, metrics.segment, kind="rollback", detail=why
            )
            self.pre_swap_key = None
            self.reference = None
            self.phase = _STEADY
            self.cooldown = COOLDOWN_SEGMENTS
            obs.inc("pgo.rollbacks")
            obs.instant("pgo.rollback", segment=metrics.segment, key=restored[:12])
            return "rollback", why
        self.pre_swap_key = None
        self.reference = None
        self.phase = _STEADY
        obs.inc("pgo.commits")
        return "commit", why

    def _regression(
        self, trial: SegmentMetrics, reference: SegmentMetrics
    ) -> tuple[bool, str]:
        """Did the trial segment measure worse than the pre-swap segment?

        The mispredict gate is a one-sided two-proportion Wald test at
        :data:`ROLLBACK_Z`; the energy gate a relative threshold on *compute*
        energy (CPU + ADC) — radio transmissions are decided by the data
        path, not the layout, so total energy would let packet-count noise
        between segments fake or mask a regression.  Both gates compare
        *measured* segments — the controller audits reality, not the model
        that proposed the swap.
        """
        r_t, r_r = trial.mispredict_rate, reference.mispredict_rate
        if trial.branches and reference.branches:
            se = math.sqrt(
                r_t * (1.0 - r_t) / trial.branches
                + r_r * (1.0 - r_r) / reference.branches
            )
            if r_t - r_r > ROLLBACK_Z * se:
                return True, (
                    f"mispredict rate {r_t:.4f} vs pre-swap {r_r:.4f} "
                    f"(> {ROLLBACK_Z:g} SE = {ROLLBACK_Z * se:.4f})"
                )
        e_t = trial.compute_per_activation
        e_r = reference.compute_per_activation
        if e_r > 0 and e_t > e_r * (1.0 + ENERGY_RTOL):
            return True, (
                f"compute energy {e_t:.6f} mJ/act vs pre-swap {e_r:.6f} "
                f"(> +{ENERGY_RTOL:.0%})"
            )
        return False, (
            f"mispredict rate {r_t:.4f} vs pre-swap {r_r:.4f}; swap kept"
        )

    def _swap_to(self, key: str, segment: int, kind: str, detail: str) -> None:
        """Install a registered layout at this segment boundary."""
        previous = self.current_key
        layout = self.registry.get(key)
        if self._interp is not None:
            self._interp.hot_swap_layout(layout)
        self.current_key = key
        self.registry.record(
            SwapEvent(
                segment=segment, kind=kind, key=key, previous=previous, detail=detail
            )
        )
        # The timing model behind the estimator is layout-bound: re-learn
        # against the layout that is actually running now.
        self.estimator = self._fresh_estimator()

    # -- rollups --------------------------------------------------------------

    @property
    def swaps(self) -> int:
        return sum(1 for e in self.registry.events if e.kind == "swap")

    @property
    def rollbacks(self) -> int:
        return sum(1 for e in self.registry.events if e.kind == "rollback")

    def totals(self) -> SegmentMetrics:
        """Cumulative measured cost over every segment run so far."""
        return SegmentMetrics(
            segment=-1,
            activations=sum(r.metrics.activations for r in self.reports),
            branches=sum(r.metrics.branches for r in self.reports),
            taken=sum(r.metrics.taken for r in self.reports),
            mispredicts=sum(r.metrics.mispredicts for r in self.reports),
            cycles=sum(r.metrics.cycles for r in self.reports),
            sense_reads=sum(r.metrics.sense_reads for r in self.reports),
            transmissions=sum(r.metrics.transmissions for r in self.reports),
            energy_mj=sum(r.metrics.energy_mj for r in self.reports),
            compute_mj=sum(r.metrics.compute_mj for r in self.reports),
        )
