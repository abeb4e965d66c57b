"""Shared plumbing for the experiment modules.

Centralizes the one pipeline every experiment repeats — run a workload on a
platform, collect the degraded timing dataset, compute the empirical ground
truth, estimate — so experiment modules stay declarative.

Batchable units
---------------

Every experiment decomposes into independent **units** (one workload, one
(predictor, workload) pair, one scenario, ...).  A unit is a module-level
function that takes its identifying arguments plus the
:class:`ExperimentConfig` and returns a :class:`UnitResult`; the experiment's
``run()`` maps the unit function over the unit list with :func:`map_units`
and reassembles tables/series with :func:`combine_units`.  Two properties
make this the substrate of the parallel engine:

* units derive *all* randomness from ``config`` and their own identity, so
  a unit's output is independent of when and where it executes;
* :func:`map_units` and :func:`combine_units` are order-preserving, so the
  assembled :class:`ExperimentResult` is bit-identical whether units ran
  serially or fanned out over a process pool.

The engine enables unit-level fan-out via :func:`unit_executor`; outside
that context :func:`map_units` is a plain serial ``map``.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import Executor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional, Sequence, TypeVar

import numpy as np

from repro.core import CodeTomography, EstimationOptions
from repro.errors import UnitExecutionError
from repro.obs import MetricsRegistry, Tracer, current_registry, current_tracer
from repro.obs import metrics_active, tracing
from repro.obs import counters as hwc
from repro.ir.program import Program
from repro.mote.platform import MICAZ_LIKE, Platform
from repro.placement.layout import ProgramLayout
from repro.profiling import TimingDataset, TimingProfiler
from repro.sim import RunResult, run_program
from repro.util.tables import Table
from repro.workloads.registry import WorkloadSpec

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "ProfiledRun",
    "UnitResult",
    "profiled_run",
    "tomography_thetas",
    "map_units",
    "combine_units",
    "unit_executor",
    "stage",
]

_T = TypeVar("_T")
_U = TypeVar("_U")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared across experiments.

    ``quick`` shrinks sample counts ~10x so tests can exercise every
    experiment end to end; benchmark and CLI runs use the full sizes.
    """

    platform: Platform = MICAZ_LIKE
    activations: int = 3000
    seed: int = 2015  # the venue year; any fixed value works
    quick: bool = False
    scenario: str = "default"

    @property
    def effective_activations(self) -> int:
        """Activation count after the quick-mode reduction."""
        return max(self.activations // 10, 100) if self.quick else self.activations


@dataclass
class ExperimentResult:
    """What an experiment hands back: identity, tables, raw series.

    ``timings`` holds wall-clock stage diagnostics (e.g. estimator fit
    seconds).  They are deliberately *excluded* from :meth:`render`: the
    rendered report contains only seed-determined values, which is what
    lets the engine promise byte-identical output at any worker count.  The
    CLI reports timings separately (``--progress`` / ``--json``).
    """

    experiment_id: str
    title: str
    tables: list[Table] = field(default_factory=list)
    series: dict[str, list] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        """All tables plus notes, terminal-ready (deterministic for a seed)."""
        parts = [f"== {self.experiment_id.upper()}: {self.title} =="]
        parts.extend(t.render() for t in self.tables)
        parts.extend(f"note: {n}" for n in self.notes)
        return "\n\n".join(parts)


@dataclass
class UnitResult:
    """One unit's contribution to an experiment: rows + series fragments."""

    rows: list[tuple] = field(default_factory=list)
    series: dict[str, list] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    def add_row(self, *values) -> None:
        """Append one table row (formatted later by the assembling Table)."""
        self.rows.append(tuple(values))

    def add_series(self, **points) -> None:
        """Append one value per named series."""
        for key, value in points.items():
            self.series.setdefault(key, []).append(value)


# The engine installs an executor here (main process only) to fan units out;
# see unit_executor().  Module-global rather than an argument so the ten
# experiment modules stay oblivious to how they are being scheduled.
_UNIT_EXECUTOR: Optional[Executor] = None


@contextmanager
def unit_executor(executor: Executor) -> Iterator[None]:
    """Route :func:`map_units` through ``executor`` inside this context.

    Unit functions (and their bound arguments) must be picklable when the
    executor crosses process boundaries — which module-level functions
    partially applied with :class:`ExperimentConfig` are.
    """
    global _UNIT_EXECUTOR
    previous = _UNIT_EXECUTOR
    _UNIT_EXECUTOR = executor
    try:
        yield
    finally:
        _UNIT_EXECUTOR = previous


class _UnitCall:
    """Picklable per-unit wrapper: telemetry capture + failure tagging.

    Runs in whatever process the executor chose.  A raising unit becomes a
    :class:`~repro.errors.UnitExecutionError` carrying the unit index and
    formatted traceback (pool futures strip both otherwise).  With
    ``capture`` set, the unit executes under a fresh tracer/registry —
    likewise ``capture_hw`` and a fresh (isolated) hardware-counter
    registry — whose buffers ride back with the result; the caller merges
    them in unit-index order, which is what makes multi-process telemetry
    deterministic.
    """

    __slots__ = ("fn", "capture", "capture_hw")

    def __init__(self, fn: Callable[[_T], _U], capture: bool, capture_hw: bool = False) -> None:
        self.fn = fn
        self.capture = capture
        self.capture_hw = capture_hw

    def __call__(
        self, indexed: tuple[int, _T]
    ) -> tuple[_U, Optional[list], Optional[dict], Optional[dict]]:
        index, item = indexed
        try:
            if not self.capture and not self.capture_hw:
                return self.fn(item), None, None, None
            tracer = registry = hw = None
            with ExitStack() as stack:
                if self.capture:
                    tracer, registry = Tracer(), MetricsRegistry()
                    stack.enter_context(tracing(tracer))
                    stack.enter_context(metrics_active(registry))
                    stack.enter_context(tracer.span("unit", index=index))
                if self.capture_hw:
                    # Isolated: the snapshot travels back and the caller
                    # merges it explicitly, so folding into an ambient
                    # registry here would double count.
                    hw = hwc.HardwareCounters()
                    stack.enter_context(hwc.counters_active(hw, isolated=True))
                result = self.fn(item)
            return (
                result,
                tracer.spans if tracer is not None else None,
                registry.snapshot() if registry is not None else None,
                hw.snapshot() if hw is not None else None,
            )
        except UnitExecutionError:
            raise
        except Exception as exc:
            raise UnitExecutionError(
                index, f"{type(exc).__name__}: {exc}", traceback.format_exc()
            ) from exc


def map_units(fn: Callable[[_T], _U], units: Sequence[_T]) -> list[_U]:
    """Order-preserving map over independent experiment units.

    Serial by default; inside a :func:`unit_executor` context the units fan
    out over the installed pool.  Results always come back in input order,
    so assembly downstream is schedule-independent.

    Two cross-cutting concerns are layered onto every unit here so the
    experiment modules stay oblivious to both: a crashing unit surfaces as
    :class:`~repro.errors.UnitExecutionError` with its index and traceback,
    and — when telemetry is active in the calling process — each unit's
    spans and metrics are captured where the unit ran and merged back *in
    unit-index order*, tagged ``unit=i`` (never by completion time, so the
    merged trace is identical at any worker count).
    """
    items = list(units)
    executor = _UNIT_EXECUTOR
    tracer = current_tracer()
    registry = current_registry()
    hw_parent = hwc.active()
    call = _UnitCall(
        fn,
        capture=tracer is not None or registry is not None,
        capture_hw=hw_parent is not None,
    )
    indexed = list(enumerate(items))
    if executor is None or len(items) <= 1:
        outputs = [call(pair) for pair in indexed]
    else:
        outputs = list(executor.map(call, indexed))
    results: list[_U] = []
    for index, (result, spans, metrics, hw_snap) in enumerate(outputs):
        if spans and tracer is not None:
            tracer.adopt(spans, unit=index)
        if metrics and registry is not None:
            registry.merge_snapshot(metrics)
        if hw_snap and hw_parent is not None:
            hw_parent.merge_snapshot(hw_snap)
        results.append(result)
    return results


def combine_units(
    units: Sequence[UnitResult], table: Table, series: dict[str, list]
) -> dict[str, float]:
    """Assemble unit outputs, in order, into a table + series; sum timings."""
    timings: dict[str, float] = {}
    for unit in units:
        for row in unit.rows:
            table.add_row(*row)
        for key, values in unit.series.items():
            series.setdefault(key, []).extend(values)
        for key, seconds in unit.timings.items():
            timings[key] = timings.get(key, 0.0) + seconds
    return timings


@contextmanager
def stage(timings: dict[str, float], name: str) -> Iterator[None]:
    """Accumulate a stage's wall-clock seconds into ``timings[name]``."""
    started = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - started


@dataclass
class ProfiledRun:
    """One workload executed once, with everything later stages need."""

    spec: WorkloadSpec
    program: Program
    result: RunResult
    dataset: TimingDataset
    truth: dict[str, np.ndarray]


def profiled_run(
    spec: WorkloadSpec,
    config: ExperimentConfig,
    layout: Optional[ProgramLayout] = None,
    seed_offset: int = 0,
) -> ProfiledRun:
    """Run one workload and collect its timing dataset + ground truth."""
    program = spec.program()
    sensors = spec.sensors(scenario=config.scenario, rng=config.seed + seed_offset)
    result = run_program(
        program,
        config.platform,
        sensors,
        activations=config.effective_activations,
        layout=layout,
    )
    profiler = TimingProfiler(config.platform, rng=config.seed + seed_offset + 1)
    dataset = profiler.collect(result.records)
    truth = {
        proc.name: result.counters.true_branch_probabilities(proc) for proc in program
    }
    return ProfiledRun(
        spec=spec, program=program, result=result, dataset=dataset, truth=truth
    )


def tomography_thetas(
    run: ProfiledRun,
    config: ExperimentConfig,
    method: str = "hybrid",
    options: Optional[EstimationOptions] = None,
) -> dict[str, np.ndarray]:
    """Estimate every procedure's branch probabilities from the run."""
    opts = options or EstimationOptions(method=method, seed=config.seed)
    if options is not None and options.method != method:
        opts = replace(options, method=method)
    tomo = CodeTomography(run.program, config.platform)
    return tomo.estimate(run.dataset, opts).thetas
