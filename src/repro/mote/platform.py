"""Platform presets bundling the hardware sub-models.

Two presets mirror the mote families the original evaluation would have used:

* :data:`MICAZ_LIKE` — ATmega128-flavoured: 7.37 MHz core, hardware
  multiplier, 128 KiB flash / 4 KiB RAM, TinyOS TMicro-class timestamp
  timer (~1 MHz → 8 cycles per tick);
* :data:`TELOSB_LIKE` — MSP430-flavoured: 4 MHz core, slightly cheaper
  memory ops, 48 KiB flash / 10 KiB RAM, ~1 MHz timer (4 cycles per tick).

The coarse 32.768 kHz crystal (225 cycles/tick on the MicaZ-like core) is
exercised by the F3 resolution sweep rather than used as the default — with
sub-millisecond procedures it quantizes most measurements to zero.

Experiments parameterize over these so results are not an artifact of one
cost table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.ir.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.mote.cpu import CpuModel
from repro.mote.energy import EnergyModel
from repro.mote.memory import MemoryMap
from repro.mote.predictor import StaticPredictor, BTFNPredictor
from repro.mote.timer import TimestampTimer

__all__ = ["Platform", "MICAZ_LIKE", "TELOSB_LIKE"]


@dataclass(frozen=True)
class Platform:
    """One mote family's hardware parameters, bundled."""

    name: str
    cpu: CpuModel
    timer: TimestampTimer
    energy: EnergyModel
    memory: MemoryMap

    def with_predictor(self, predictor: StaticPredictor) -> "Platform":
        """Same platform, different static branch scheme."""
        return replace(self, cpu=replace(self.cpu, predictor=predictor))

    def with_timer(self, timer: TimestampTimer) -> "Platform":
        """Same platform, different timestamp timer (resolution sweeps)."""
        return replace(self, timer=timer)


MICAZ_LIKE = Platform(
    name="micaz-like",
    cpu=CpuModel(cost_model=DEFAULT_COST_MODEL, predictor=BTFNPredictor()),
    timer=TimestampTimer(cycles_per_tick=8),
    energy=EnergyModel(clock_hz=7_372_800.0, cpu_active_ma=8.0),
    memory=MemoryMap(flash_bytes=128 * 1024, ram_bytes=4 * 1024),
)

_TELOS_COSTS = CostModel(
    opcode_cycles={**DEFAULT_COST_MODEL.opcode_cycles, **{}},
    binop_cycles=dict(DEFAULT_COST_MODEL.binop_cycles),
    call_overhead=6,
    return_overhead=5,
)

TELOSB_LIKE = Platform(
    name="telosb-like",
    cpu=CpuModel(
        cost_model=_TELOS_COSTS,
        predictor=BTFNPredictor(),
        jump_cycles=2,
        branch_base_cycles=2,
        taken_extra_cycles=1,
        mispredict_penalty_cycles=2,
    ),
    timer=TimestampTimer(cycles_per_tick=4),
    energy=EnergyModel(clock_hz=4_000_000.0, cpu_active_ma=1.8),
    memory=MemoryMap(flash_bytes=48 * 1024, ram_bytes=10 * 1024),
)
