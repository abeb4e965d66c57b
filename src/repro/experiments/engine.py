"""Parallel execution engine for the experiment suite.

The suite's unit of work is embarrassingly parallel twice over — the ten
experiment ids are mutually independent, and within one experiment the
batchable units (see :mod:`repro.experiments.common`) are too — yet the
original CLI ran everything on one core.  This module fans both levels out
over a :class:`~concurrent.futures.ProcessPoolExecutor` while preserving the
repository's reproducibility contract:

**Determinism.** Every experiment derives all randomness from its
:class:`ExperimentConfig` (seeds fan out via the SeedSequence scheme in
:mod:`repro.util.rng`), units are mapped and reassembled in input order, and
wall-clock diagnostics live outside the rendered tables — so for a fixed
seed the rendered output is *byte-identical* at any ``jobs`` count,
including ``jobs=1`` serial runs.

**Fault isolation.** A failing experiment no longer aborts the run: the
engine records the failure and keeps going, reporting everything at the
end (:class:`ExperimentOutcome.error`).

Scheduling policy: with several pending experiments the pool fans out
*across* experiment ids (coarse grain, zero intra-experiment overhead);
with a single pending experiment and ``jobs > 1`` it instead fans out that
experiment's units via :func:`repro.experiments.common.unit_executor`.
"""

from __future__ import annotations

import time
import traceback as traceback_mod
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro import obs
from repro.errors import UnitExecutionError
from repro.experiments.common import ExperimentConfig, ExperimentResult, unit_executor
from repro.obs import MetricsRegistry, SpanRecord, Tracer
from repro.obs import counters as hwc

__all__ = ["ExperimentOutcome", "ProgressEvent", "run_experiments"]


# --------------------------------------------------------------------------
# Outcomes and progress
# --------------------------------------------------------------------------


#: Cap on the traceback text an outcome carries (the useful frames are at
#: the tail, so truncation keeps the *end* of the traceback).
TRACEBACK_LIMIT_CHARS = 2000


def _truncated_traceback(text: str) -> str:
    if len(text) <= TRACEBACK_LIMIT_CHARS:
        return text
    return "... [traceback truncated] ...\n" + text[-TRACEBACK_LIMIT_CHARS:]


@dataclass
class ExperimentOutcome:
    """What the engine hands back for one requested experiment id.

    On failure, ``error`` is a one-line summary (including the failing unit
    index when the crash happened inside a batchable unit — also exposed as
    ``failed_unit``) and ``traceback`` carries the tail of the formatted
    traceback from the process where the crash occurred.  When the run was
    observed (``run_experiments(..., observe=True)``), ``spans`` and
    ``metrics`` hold the telemetry captured in whichever process executed
    the experiment; with ``counters=True``, ``hw_counters`` holds the
    hardware-counter snapshot the same way.
    """

    experiment_id: str
    result: Optional[ExperimentResult] = None
    error: Optional[str] = None
    seconds: float = 0.0
    failed_unit: Optional[int] = None
    traceback: Optional[str] = None
    spans: list[SpanRecord] = field(default_factory=list)
    metrics: Optional[dict] = None
    hw_counters: Optional[dict] = None

    @property
    def ok(self) -> bool:
        """True when the experiment produced a result."""
        return self.result is not None and self.error is None


@dataclass(frozen=True)
class ProgressEvent:
    """One scheduling event, delivered to the CLI's ``--progress`` printer."""

    kind: str  # "start" | "done" | "failed"
    experiment_id: str
    completed: int
    total: int
    seconds: float = 0.0
    error: Optional[str] = None


ProgressFn = Callable[[ProgressEvent], None]


# --------------------------------------------------------------------------
# Execution
# --------------------------------------------------------------------------


def _execute(
    experiment_id: str,
    config: ExperimentConfig,
    observe: bool = False,
    counters: bool = False,
) -> ExperimentOutcome:
    """Run one experiment, capturing failure instead of propagating it.

    Module-level so it pickles into pool workers.  Catches ``Exception``
    broadly (not just :class:`~repro.errors.ExperimentError`): any crash in
    one experiment must be reported at exit, not abort the other nine.

    With ``observe``, the experiment runs under a fresh tracer and metrics
    registry regardless of which process this is: the captured spans and
    snapshot travel back on the outcome and the *parent* merges them in
    experiment-request order (never completion order), so an observed
    parallel run produces the same artifact structure as a serial one.
    ``counters`` does the same for hardware-counter telemetry — a fresh
    isolated registry per experiment, snapshot on ``outcome.hw_counters``.
    """
    from repro.experiments import ALL_EXPERIMENTS  # deferred: import cycle

    started = time.perf_counter()
    tracer = Tracer() if observe else None
    registry = MetricsRegistry() if observe else None
    hw = hwc.HardwareCounters() if counters else None

    def telemetry(outcome: ExperimentOutcome) -> ExperimentOutcome:
        if tracer is not None:
            outcome.spans = tracer.spans
        if registry is not None:
            outcome.metrics = registry.snapshot()
        if hw is not None:
            outcome.hw_counters = hw.snapshot()
        return outcome

    try:
        with ExitStack() as stack:
            if observe:
                stack.enter_context(obs.tracing(tracer))
                stack.enter_context(obs.metrics_active(registry))
                stack.enter_context(tracer.span("experiment", id=experiment_id))
            if counters:
                # Isolated: the parent merges the returned snapshot in
                # request order; auto-folding here would double count.
                stack.enter_context(hwc.counters_active(hw, isolated=True))
            result = ALL_EXPERIMENTS[experiment_id](config)
    except Exception as exc:  # noqa: BLE001 - fault isolation is the point
        failed_unit = exc.unit_index if isinstance(exc, UnitExecutionError) else None
        traceback = (
            exc.traceback_str
            if isinstance(exc, UnitExecutionError) and exc.traceback_str
            else traceback_mod.format_exc()
        )
        return telemetry(
            ExperimentOutcome(
                experiment_id=experiment_id,
                error=f"{type(exc).__name__}: {exc}",
                seconds=time.perf_counter() - started,
                failed_unit=failed_unit,
                traceback=_truncated_traceback(traceback),
            )
        )
    return telemetry(
        ExperimentOutcome(
            experiment_id=experiment_id,
            result=result,
            seconds=time.perf_counter() - started,
        )
    )


def _notify(progress: Optional[ProgressFn], event: ProgressEvent) -> None:
    if progress is not None:
        progress(event)


def _bridge_progress(progress: Optional[ProgressFn]) -> Optional[ProgressFn]:
    """The ProgressEvent→span bridge.

    Every scheduling event also lands on the active tracer as an instant
    span (``progress.start``, ``progress.done``, ...), so the exported
    timeline shows when the engine scheduled what without the CLI printer
    and the trace ever disagreeing.  With no tracer installed this returns
    ``progress`` unchanged.
    """
    if obs.current_tracer() is None:
        return progress

    def bridged(event: ProgressEvent) -> None:
        obs.instant(
            f"progress.{event.kind}",
            experiment=event.experiment_id,
            completed=event.completed,
            total=event.total,
        )
        _notify(progress, event)

    return bridged


def run_experiments(
    ids: Sequence[str],
    config: ExperimentConfig,
    jobs: int = 1,
    progress: Optional[ProgressFn] = None,
    observe: bool = False,
    counters: bool = False,
) -> list[ExperimentOutcome]:
    """Run ``ids`` under ``config``; returns one outcome per id, in order.

    ``jobs`` caps worker processes (1 = fully in-process).  ``progress``
    receives a :class:`ProgressEvent` as each id starts and finishes
    (events fire in completion order; the *returned list* is always in
    request order).

    ``observe`` turns on telemetry capture: each experiment (and each of
    its batchable units) runs under a tracer/metrics registry in whatever
    process executes it, the buffers ride back on the outcomes, and — after
    everything finishes — they are merged into the *caller's* active tracer
    and registry strictly in request order of ``ids`` (and unit-index order
    within an experiment), never in completion order.  Telemetry never
    touches RNG streams or rendered tables: observed output is
    byte-identical to unobserved output at any ``jobs`` count.

    ``counters`` does the same for mote hardware-counter telemetry: each
    experiment executes under a fresh isolated
    :class:`~repro.obs.HardwareCounters` registry wherever it runs, the
    snapshot rides back on ``outcome.hw_counters``, and everything folds
    into the caller's active registry in request order.  Counter values are
    seed-determined, so the merged totals are bit-identical at any ``jobs``
    count.

    Failures never raise: a crashed experiment yields an outcome with
    ``error`` set (including the failing unit index and a truncated
    traceback when available) and the remaining ids still run.
    """
    from repro.experiments import ALL_EXPERIMENTS  # deferred: import cycle

    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    unknown = [i for i in ids if i not in ALL_EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiment id(s): {', '.join(unknown)}")

    total = len(ids)
    outcomes: dict[str, ExperimentOutcome] = {}
    completed = 0
    progress = _bridge_progress(progress)

    def finish(outcome: ExperimentOutcome) -> None:
        nonlocal completed
        completed += 1
        outcomes[outcome.experiment_id] = outcome
        obs.set_gauge(f"engine.wall_seconds.{outcome.experiment_id}", outcome.seconds)
        obs.observe("engine.experiment_seconds", outcome.seconds)
        if not outcome.ok:
            obs.inc("engine.experiments_failed")
        _notify(
            progress,
            ProgressEvent(
                "failed" if not outcome.ok else "done",
                outcome.experiment_id,
                completed,
                total,
                seconds=outcome.seconds,
                error=outcome.error,
            ),
        )

    if len(ids) == 1 and jobs > 1:
        # One experiment, many cores: fan its batchable units out instead.
        exp_id = ids[0]
        _notify(progress, ProgressEvent("start", exp_id, completed, total))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            with unit_executor(pool):
                finish(_execute(exp_id, config, observe, counters))
    elif jobs == 1 or len(ids) <= 1:
        for exp_id in ids:
            _notify(progress, ProgressEvent("start", exp_id, completed, total))
            finish(_execute(exp_id, config, observe, counters))
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(ids))) as pool:
            futures = {}
            for exp_id in ids:
                _notify(progress, ProgressEvent("start", exp_id, completed, total))
                futures[
                    pool.submit(_execute, exp_id, config, observe, counters)
                ] = exp_id
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in done:
                    finish(future.result())

    ordered = [outcomes[exp_id] for exp_id in ids]
    if observe:
        # Deterministic merge: captured telemetry folds into the caller's
        # tracer/registry in *request* order — the artifact's span order is a
        # function of (experiment id, unit index), never of which worker
        # finished first.
        tracer = obs.current_tracer()
        registry = obs.current_registry()
        for outcome in ordered:
            if tracer is not None and outcome.spans:
                tracer.adopt(outcome.spans, experiment=outcome.experiment_id)
            if registry is not None and outcome.metrics:
                registry.merge_snapshot(outcome.metrics)
    if counters:
        # Same request-order rule for hardware counters: integer sums are
        # commutative, but a fixed order keeps the contract uniform and the
        # artifact layout reproducible.
        hw_parent = hwc.active()
        if hw_parent is not None:
            for outcome in ordered:
                if outcome.hw_counters:
                    hw_parent.merge_snapshot(outcome.hw_counters)
    return ordered
