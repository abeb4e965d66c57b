"""Profiling-overhead accounting (evaluation table T2).

Each scheme's cost on a given program and run, in the four currencies a mote
cares about:

* **ROM** — extra flash bytes for instrumentation code;
* **RAM** — extra data bytes (counters, accumulators, buffers);
* **runtime** — extra CPU cycles over the uninstrumented run;
* **energy** — the extra cycles plus extra radio traffic, in mJ.

Cost constants are small integers with datasheet-flavoured rationales,
declared once here so the comparison is auditable.  The qualitative claim
the reproduction checks is structural, not numeric: edge instrumentation
pays per *static edge* (RAM/ROM) and per *dynamic edge* (cycles), while the
tomography collector pays per *procedure* (RAM/ROM) and per *invocation*
(cycles) — orders of magnitude less on branchy code.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProfilingError
from repro.ir.program import Program
from repro.mote.platform import Platform

__all__ = [
    "OverheadReport",
    "edge_instrumentation_overhead_from_counts",
    "timing_overhead_from_counts",
    "sampling_overhead_from_counts",
]

# Edge instrumentation: a 32-bit RAM counter increment on an 8-bit MCU is
# 4 loads + add/adc chain + 4 stores plus addressing glue (~14 cycles), on
# every edge traversal; branch arms without a landing block also need an
# inserted jump, folded into the same constant.
EDGE_INCREMENT_CYCLES = 14
EDGE_COUNTER_RAM_BYTES = 4
EDGE_SITE_ROM_BYTES = 10  # the inserted increment sequence per static edge

# Tomography collector: two 16-bit timer-register reads (in/in per byte),
# a tick delta, and integer accumulation of count / sum / sum-of-squares
# (the hardware multiplier prices d*d at 2 cycles); the third moment is
# reconstructed off-mote from epoch-sliced sums rather than accumulated
# per invocation.
TIMESTAMP_READ_CYCLES = 4
MOMENT_UPDATE_CYCLES = 17
TIMING_RAM_BYTES_PER_PROC = 20  # count(2) + sum(4) + sum²(6) + epoch slices(8)
TIMING_ROM_BYTES = 160  # one shared prologue/epilogue helper
TIMING_ROM_BYTES_PER_PROC = 8  # the two hook call sites

# PC sampling: timer ISR captures the block id and bumps a 16-bit counter.
SAMPLE_ISR_CYCLES = 35
SAMPLE_COUNTER_RAM_BYTES = 2
SAMPLING_ROM_BYTES = 120  # the ISR

# Uploading profile data: bytes per radio packet payload.
PAYLOAD_BYTES_PER_PACKET = 24


@dataclass(frozen=True)
class OverheadReport:
    """One scheme's cost on one program/run."""

    scheme: str
    rom_bytes: int
    ram_bytes: int
    runtime_cycles: float
    upload_packets: int
    energy_mj: float

    def runtime_overhead_fraction(self, base_cycles: float) -> float:
        """Extra runtime relative to the uninstrumented run."""
        if base_cycles <= 0:
            raise ProfilingError("base_cycles must be positive")
        return self.runtime_cycles / base_cycles


def _upload_packets(payload_bytes: int) -> int:
    return -(-payload_bytes // PAYLOAD_BYTES_PER_PACKET)  # ceil division


def edge_instrumentation_overhead_from_counts(
    program: Program, dynamic_edges: int, platform: Platform
) -> OverheadReport:
    """Cost of the full edge-instrumentation build on a run that traversed
    ``dynamic_edges`` CFG edges.

    The count can come from any observer that saw the run — the simulator's
    ground-truth counters or the hardware-counter telemetry
    (``repro.obs.counters.dynamic_edges``); both tally one event per CFG
    edge traversed, so the reports are identical.
    """
    static_edges = sum(len(p.cfg.edges()) for p in program)
    rom = static_edges * EDGE_SITE_ROM_BYTES
    ram = static_edges * EDGE_COUNTER_RAM_BYTES
    cycles = float(dynamic_edges * EDGE_INCREMENT_CYCLES)
    packets = _upload_packets(static_edges * EDGE_COUNTER_RAM_BYTES)
    energy = platform.energy.cpu_mj(cycles) + platform.energy.radio_mj(packets)
    return OverheadReport(
        scheme="edge-instrumentation",
        rom_bytes=rom,
        ram_bytes=ram,
        runtime_cycles=cycles,
        upload_packets=packets,
        energy_mj=energy,
    )


def timing_overhead_from_counts(
    program: Program, invocations: int, platform: Platform
) -> OverheadReport:
    """Cost of the Code Tomography collector on a run of ``invocations``
    procedure invocations (any observer's tally)."""
    procedures = len(program.procedures)
    rom = TIMING_ROM_BYTES + procedures * TIMING_ROM_BYTES_PER_PROC
    ram = procedures * TIMING_RAM_BYTES_PER_PROC
    cycles = float(invocations * (2 * TIMESTAMP_READ_CYCLES + MOMENT_UPDATE_CYCLES))
    packets = _upload_packets(procedures * TIMING_RAM_BYTES_PER_PROC)
    energy = platform.energy.cpu_mj(cycles) + platform.energy.radio_mj(packets)
    return OverheadReport(
        scheme="code-tomography",
        rom_bytes=rom,
        ram_bytes=ram,
        runtime_cycles=cycles,
        upload_packets=packets,
        energy_mj=energy,
    )


def sampling_overhead_from_counts(
    program: Program,
    total_cycles: int,
    platform: Platform,
    interval_cycles: int,
) -> OverheadReport:
    """Cost of PC sampling every ``interval_cycles`` on a run of
    ``total_cycles`` cycles (any observer's tally)."""
    if interval_cycles < 1:
        raise ProfilingError(f"interval_cycles must be >= 1, got {interval_cycles}")
    blocks = sum(p.block_count() for p in program)
    samples = total_cycles // interval_cycles
    rom = SAMPLING_ROM_BYTES
    ram = blocks * SAMPLE_COUNTER_RAM_BYTES
    cycles = float(samples * SAMPLE_ISR_CYCLES)
    packets = _upload_packets(blocks * SAMPLE_COUNTER_RAM_BYTES)
    energy = platform.energy.cpu_mj(cycles) + platform.energy.radio_mj(packets)
    return OverheadReport(
        scheme="pc-sampling",
        rom_bytes=rom,
        ram_bytes=ram,
        runtime_cycles=cycles,
        upload_packets=packets,
        energy_mj=energy,
    )
