"""Batch execution driver: run many activations, aggregate the results.

Two entry points:

* :func:`run_program` — the original single-interpreter driver: one
  :class:`~repro.sim.interpreter.Interpreter` executes every activation so
  program globals persist across the whole run, as on a real mote.
* :func:`run_program_batched` — the scalable driver the parallel experiment
  engine builds on: activations are split into self-contained batches, each
  with its own interpreter and its own RNG stream spawned *up front* in
  index order (see :mod:`repro.util.rng`), then merged in index order.
  Because a batch depends only on its index, the merged result is a pure
  function of ``(program, platform, factory, activations, batch_size, rng)``.
  The program is compiled once per call and every batch runs that code.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro import obs
from repro.obs import counters as hwc
from repro.faults.model import FaultInjector, FaultModel
from repro.mote.platform import Platform
from repro.mote.sensors import SensorSuite
from repro.ir.program import Program
from repro.placement.layout import ProgramLayout
from repro.sim.interpreter import Interpreter, _compile
from repro.sim.trace import ExecutionCounters, InvocationRecord, RunResult
from repro.util.rng import RngSource, spawn_seed_sequences

__all__ = [
    "run_program",
    "run_program_batched",
    "split_activations",
    "merge_run_results",
]

SensorFactory = Callable[[np.random.Generator], SensorSuite]


def run_program(
    program: Program,
    platform: Platform,
    sensors: SensorSuite,
    activations: int,
    layout: Optional[ProgramLayout] = None,
    record_paths: bool = False,
    faults: Optional[FaultInjector] = None,
) -> RunResult:
    """Execute ``activations`` top-level activations and aggregate.

    The same :class:`~repro.sim.interpreter.Interpreter` instance is reused
    so program globals persist across activations, as they would on a real
    mote between timer firings.  The caller controls input nondeterminism
    entirely through the ``sensors`` suite (seed it for reproducibility).

    With ``faults``, hardware-level faults (radio loss/corruption, sensor
    dropouts) apply during execution, and each activation may additionally
    be hit by a node reboot: the activation's work still happened (cycles
    and ground-truth counters keep it), but every invocation record opened
    during it is truncated mid-flight — exit timestamps that never existed
    can't upload — and RAM resets before the next activation.  ``None``
    (the default) is bit-identical to the fault-free driver.
    """
    if activations < 0:
        raise ValueError(f"activations must be non-negative, got {activations}")
    interp = Interpreter(
        program,
        platform,
        sensors,
        layout=layout,
        record_paths=record_paths,
        faults=faults,
    )
    return _run(interp, activations)


def _run(interp: Interpreter, activations: int) -> RunResult:
    """Drive ``activations`` activations on ``interp`` and price the run."""
    program, platform, faults = interp.program, interp.platform, interp.faults
    # Telemetry (strict no-op when off): the span brackets the whole run;
    # fault counters report only this run's firings (the injector's tallies
    # may span several calls), diffed after the loop so the hot path stays
    # untouched.
    faults_before = dict(faults.counts) if faults is not None else None
    with obs.span(
        "sim.run", program=program.name, activations=activations
    ) as sim_span:
        try:
            for _ in range(activations):
                mark = len(interp.records)
                interp.run_activation()
                if faults is not None and faults.reboot_during_activation():
                    del interp.records[mark:]
                    interp.reboot()
        finally:
            interp.report_counters()
        sim_span.set(cycles=interp.cycle, records=len(interp.records))
    obs.inc("sim.runs")
    obs.inc("sim.activations", activations)
    obs.inc("sim.cycles", interp.cycle)
    if faults is not None:
        for kind, count in faults.counts.items():
            fired = count - faults_before.get(kind, 0)
            if fired:
                obs.inc(f"faults.injected.{kind}", fired)
    energy = platform.energy.total_mj(
        cycles=interp.cycle,
        conversions=interp.counters.sense_reads,
        # Lost packets still radiate: energy charges attempts, not deliveries.
        packets=interp.radio.transmissions,
    )
    hw = hwc.active()
    if hw is not None and interp.radio.transmissions:
        # The radio counted attempts as they happened; the energy price is a
        # platform property, applied once per run (linear in attempts, so
        # per-run pricing sums to the same total as pricing the merge).
        hw.radio_energy(platform.energy.radio_mj(interp.radio.transmissions) * 1000.0)
    return RunResult(
        program_name=program.name,
        activations=activations,
        total_cycles=interp.cycle,
        counters=interp.counters,
        records=interp.records,
        energy_mj=energy,
        radio_packets=interp.radio.packet_count,
    )


def split_activations(total: int, batch_size: int) -> list[int]:
    """Partition ``total`` activations into batch sizes.

    Every batch is ``batch_size`` except a possibly smaller trailing
    remainder, so the partition is a pure function of ``(total,
    batch_size)`` — a prerequisite for schedule-independent results.
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    sizes = [batch_size] * (total // batch_size)
    if total % batch_size:
        sizes.append(total % batch_size)
    return sizes


def merge_run_results(results: Sequence[RunResult]) -> RunResult:
    """Combine per-batch results into one aggregate, in the given order.

    Invocation records are re-timestamped onto one continuous cycle axis
    (batch ``i`` starts where batch ``i-1`` ended) so downstream consumers
    see a single run; durations are unaffected by the shift.  Energy is a
    linear function of activity counts, so summing per-batch energies
    equals pricing the merged counts.
    """
    if not results:
        raise ValueError("cannot merge zero run results")
    names = {r.program_name for r in results}
    if len(names) > 1:
        raise ValueError(f"refusing to merge results from different programs: {names}")
    counters = ExecutionCounters()
    records: list[InvocationRecord] = []
    offset = 0
    activations = 0
    energy = 0.0
    packets = 0
    for result in results:
        counters.merge(result.counters)
        for rec in result.records:
            records.append(
                InvocationRecord(
                    procedure=rec.procedure,
                    entry_cycle=rec.entry_cycle + offset,
                    exit_cycle=rec.exit_cycle + offset,
                    depth=rec.depth,
                    path=rec.path,
                )
            )
        offset += result.total_cycles
        activations += result.activations
        energy += result.energy_mj
        packets += result.radio_packets
    return RunResult(
        program_name=results[0].program_name,
        activations=activations,
        total_cycles=offset,
        counters=counters,
        records=records,
        energy_mj=energy,
        radio_packets=packets,
    )


def run_program_batched(
    program: Program,
    platform: Platform,
    sensor_factory: SensorFactory,
    activations: int,
    batch_size: int,
    rng: RngSource = None,
    layout: Optional[ProgramLayout] = None,
    record_paths: bool = False,
    fault_model: Optional[FaultModel] = None,
) -> RunResult:
    """Run activations in independent batches and merge the results.

    ``sensor_factory`` builds a fresh :class:`SensorSuite` from the batch's
    generator (e.g. ``lambda g: build_sensors(channels, scenario, rng=g)``).
    The program is compiled for ``layout`` once per call, and every batch
    runs that compiled code on a fresh interpreter.

    Determinism: batch RNG streams are spawned from ``rng`` in index order
    *before* anything runs, and merging happens in index order, so the
    merged :class:`RunResult` depends only on the batch indices.  A
    ``fault_model`` (a frozen description — each batch builds its own
    injector from its own spawned stream) keeps that property: fault
    decisions depend on the batch index only.

    Note the semantics differ from :func:`run_program`: globals reset at
    batch boundaries and each batch draws from its own sensor stream, so a
    batched run is *not* sample-for-sample comparable to a single-
    interpreter run — only to other batched runs with the same
    ``(activations, batch_size, rng)``.
    """
    sizes = split_activations(activations, batch_size)
    layout = layout or ProgramLayout.source_order(program)
    compiled = _compile(program, layout, platform)
    # Zero activations produce zero batches, and merge_run_results
    # (correctly) refuses an empty list — so the empty aggregate comes from
    # one degenerate zero-activation batch, built like a real one so sensor
    # factories that validate or pre-draw still work.
    sizes = sizes or [0]
    results = []
    for seq, size in zip(spawn_seed_sequences(rng, len(sizes)), sizes):
        # The sensor generator consumes the batch's sequence directly; the
        # fault injector derives from a spawned child of it — a disjoint key
        # space — so enabling faults never shifts the sensor value stream.
        sensors = sensor_factory(np.random.default_rng(seq))
        faults = None
        if fault_model is not None and fault_model.enabled:
            faults = FaultInjector(fault_model, seq.spawn(1)[0])
        with obs.span("sim.batch", program=program.name, activations=size):
            obs.inc("sim.batches")
            interp = Interpreter(
                program,
                platform,
                sensors,
                layout=layout,
                record_paths=record_paths,
                faults=faults,
            )
            interp._compiled = compiled
            results.append(_run(interp, size))
    with obs.span("sim.merge_batches", program=program.name, batches=len(results)):
        return merge_run_results(results)
