"""Execution drivers: run many activations on one mote, aggregate the results.

Two entry points:

* :func:`run_program` — one :class:`~repro.sim.interpreter.Interpreter`
  executes every activation, so program globals persist across the whole
  run, as on a real mote.
* :func:`run_program_batched` — the driver the experiments evaluate
  placements with: activations are split into batches, and every batch
  after the first reboots the same interpreter and installs its own sensor
  suite and fault injector, built from an RNG stream spawned *up front* in
  index order (see :mod:`repro.util.rng`).  A batch therefore sees fresh
  globals and its own input and fault streams, while counts accumulate in
  one :class:`~repro.sim.trace.ExecutionCounters` and records land on one
  cycle axis as they run.  Because a batch depends only on its index, the
  result is a pure function of ``(program, platform, factory, activations,
  batch_size, rng)``.

Both drivers report the hardware counters once and price the run's energy
once, on its totals.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

import numpy as np

from repro import obs
from repro.obs import counters as hwc
from repro.mote.platform import Platform
from repro.mote.sensors import SensorSuite
from repro.ir.program import Program
from repro.placement.layout import ProgramLayout
from repro.sim.interpreter import Interpreter
from repro.sim.trace import RunResult
from repro.util.rng import RngSource, spawn_seed_sequences

if TYPE_CHECKING:
    from repro.faults.model import FaultInjector, FaultModel

__all__ = [
    "run_program",
    "run_program_batched",
    "split_activations",
]

SensorFactory = Callable[[np.random.Generator], SensorSuite]
# One batch: its activation count, sensor suite and fault injector.
_Batch = tuple[int, SensorSuite, Optional["FaultInjector"]]


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
    return _run(interp, activations, [(activations, sensors, faults)])


def _run(interp: Interpreter, activations: int, batches: Iterable[_Batch]) -> RunResult:
    """Drive ``batches`` on ``interp`` and price the run.

    ``interp`` starts with the first batch's sensors and faults; every later
    batch reboots it and installs its own.
    """
    program, platform = interp.program, interp.platform
    # Telemetry (strict no-op when off): the span brackets the whole run;
    # fault counters report only this run's firings (an injector's tallies
    # may span several calls), diffed per batch so the hot path stays
    # untouched.
    fired: Counter = Counter()
    with obs.span(
        "sim.run", program=program.name, activations=activations
    ) as sim_span:
        try:
            for index, (size, sensors, faults) in enumerate(batches):
                if index:
                    interp.reboot()
                    interp.faults = interp.radio.faults = faults
                    interp.set_sensors(sensors)
                before = Counter(faults.counts) if faults is not None else None
                for _ in range(size):
                    mark = len(interp.records)
                    interp.run_activation()
                    if faults is not None and faults.reboot_during_activation():
                        del interp.records[mark:]
                        interp.reboot()
                if faults is not None:
                    fired.update(faults.counts - before)
        finally:
            interp.report_counters()
        sim_span.set(cycles=interp.cycle, records=len(interp.records))
    obs.inc("sim.runs")
    obs.inc("sim.activations", activations)
    obs.inc("sim.cycles", interp.cycle)
    for kind, count in fired.items():
        obs.inc(f"faults.injected.{kind}", count)
    energy = platform.energy.total_mj(
        cycles=interp.cycle,
        conversions=interp.counters.sense_reads,
        # Lost packets still radiate: energy charges attempts, not deliveries.
        packets=interp.radio.transmissions,
    )
    hw = hwc.active()
    if hw is not None and interp.radio.transmissions:
        # The radio counted attempts as they happened; the energy price is a
        # platform property, applied once per run.
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
    """Run activations in batches on one rebooted mote.

    ``sensor_factory`` builds a fresh :class:`SensorSuite` from the batch's
    generator (e.g. ``lambda g: build_sensors(channels, scenario, rng=g)``).
    One interpreter runs every batch: each batch after the first reboots it
    (globals and arrays return to their initial images) and installs its
    own sensor suite and, with an enabled ``fault_model``, its own
    :class:`FaultInjector` on the interpreter, its radio and its sensors.

    Determinism: batch RNG streams are spawned from ``rng`` in index order
    *before* anything runs, so a batch's inputs and fault decisions depend
    on its index only.  ``fault_model`` is a frozen description; each
    batch's injector derives from a spawned child of the batch's stream — a
    disjoint key space — so enabling faults never shifts the sensor values.

    Note the semantics differ from :func:`run_program`: globals reset at
    batch boundaries and each batch draws from its own sensor stream, so a
    batched run is *not* sample-for-sample comparable to a single-
    interpreter run — only to other batched runs with the same
    ``(activations, batch_size, rng)``.
    """
    # Zero activations still run one empty batch, so sensor factories that
    # validate or pre-draw see the same calls at every size.
    sizes = split_activations(activations, batch_size) or [0]
    enabled = fault_model is not None and fault_model.enabled
    if enabled:  # a fault-free run never loads repro.faults
        from repro.faults.model import FaultInjector
    obs.inc("sim.batches", len(sizes))

    def batches() -> Iterator[_Batch]:
        for seq, size in zip(spawn_seed_sequences(rng, len(sizes)), sizes):
            sensors = sensor_factory(np.random.default_rng(seq))
            faults = FaultInjector(fault_model, seq.spawn(1)[0]) if enabled else None
            yield size, sensors, faults

    pending = batches()
    first = next(pending)
    interp = Interpreter(
        program,
        platform,
        first[1],
        layout=layout,
        record_paths=record_paths,
        faults=first[2],
    )
    return _run(interp, activations, chain([first], pending))
