"""Flash (ROM) and RAM sizing of compiled programs and profiling variants.

Mote MCUs are brutally memory-constrained (MicaZ: 128 KiB flash, 4 KiB RAM),
which is the paper's motivation for *not* keeping a counter per edge on the
device.  This model sizes:

* **ROM**: 2 flash bytes per instruction word, with wide ops (call, load,
  store, sense, send) at 4 bytes, plus terminator words;
* **RAM**: 2 bytes per scalar global, ``2 * size`` per array, plus a stack
  allowance per procedure — and whatever the active profiling scheme adds
  (per-edge counters, sample buffers, timestamp accumulators), which is
  priced by :mod:`repro.profiling.overhead` on top of this baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.block import BasicBlock
from repro.ir.cfg import CFG
from repro.ir.instructions import Branch, Jump, Opcode, Return
from repro.ir.procedure import Procedure
from repro.ir.program import Program

__all__ = ["MemoryMap"]

_WIDE_OPCODES = {Opcode.CALL, Opcode.LOAD, Opcode.STORE, Opcode.SENSE, Opcode.SEND}


@dataclass(frozen=True)
class MemoryMap:
    """Byte-level sizing rules for one MCU family."""

    flash_bytes: int = 128 * 1024
    ram_bytes: int = 4 * 1024
    word_bytes: int = 2
    wide_word_bytes: int = 4
    stack_bytes_per_procedure: int = 32

    def instruction_rom(self, opcode: Opcode) -> int:
        """Flash bytes of one instruction."""
        return self.wide_word_bytes if opcode in _WIDE_OPCODES else self.word_bytes

    def block_rom(self, block: BasicBlock) -> int:
        """Flash bytes of a block including its terminator."""
        body = sum(self.instruction_rom(i.opcode) for i in block.instructions)
        term = block.terminator
        if isinstance(term, Branch):
            body += self.wide_word_bytes  # compare-and-branch pair
        elif isinstance(term, (Jump, Return)):
            body += self.word_bytes
        return body

    def cfg_rom(self, cfg: CFG) -> int:
        """Flash bytes of one procedure's code."""
        return sum(self.block_rom(b) for b in cfg)

    def procedure_ram(self, proc: Procedure) -> int:
        """RAM attributable to one procedure (stack frame allowance)."""
        return self.stack_bytes_per_procedure + self.word_bytes * len(proc.params)

    def program_rom(self, program: Program) -> int:
        """Flash bytes of the whole program image."""
        return sum(self.cfg_rom(p.cfg) for p in program)

    def program_ram(self, program: Program) -> int:
        """RAM of globals, arrays and stack allowances."""
        data = self.word_bytes * len(program.globals_)
        data += sum(self.word_bytes * size for size in program.arrays.values())
        data += sum(self.procedure_ram(p) for p in program)
        return data
