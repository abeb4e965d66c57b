"""Reference CFG interpreter, kept for tests.

This is the dict-walking interpreter :mod:`repro.sim.interpreter` was
compiled from: every block execution re-sums its instruction costs,
re-resolves its terminator against the layout, and dispatches each
instruction through an if-chain over :class:`~repro.ir.Opcode` with
dictionary reads and writes per operand.  It counts every hardware-counter
event as it happens, with the helpers below, where the compiled engine
derives the same snapshot from its execution counts when a driver reports.
``tests/test_sim_differential.py`` holds the compiled engine bit-identical
to it — results, final state, counters, hardware-counter snapshots, fault
fates, and the type and message of every exception.

Semantics mirror a 16-bit MCU: all scalar values wrap to signed 16-bit,
division truncates toward zero (C semantics), shifts mask their count to
0–15, division/modulo by zero aborts the run with a
:class:`~repro.errors.SimulationError`.  Cycle accounting follows the
platform's :class:`~repro.mote.cpu.CpuModel` exactly, with control-transfer
costs resolved against the active :class:`~repro.placement.Layout` — so
re-running the same program under a different layout yields different cycle
counts and misprediction totals, which is the effect the paper measures.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.errors import SimulationError
from repro.ir.instructions import (
    BinaryOp,
    Branch,
    Instruction,
    Jump,
    Opcode,
    Return,
    UnaryOp,
)
from repro.ir.procedure import Procedure
from repro.ir.program import Program
from repro.mote.platform import Platform
from repro.mote.radio import Radio
from repro.mote.sensors import SensorSuite
from repro.obs import counters as hwc
from repro.placement.layout import ProgramLayout
from repro.sim.interpreter import MAX_CALL_DEPTH
from repro.sim.trace import ExecutionCounters, InvocationRecord, RunResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> mote)
    from repro.faults.model import FaultInjector

__all__ = ["Interpreter", "oracle_engine", "merge_batches"]

_INT_MIN, _INT_MAX = -(1 << 15), (1 << 15) - 1
_DEFAULT_MAX_STEPS = 200_000


def _wrap16(value: int) -> int:
    """Wrap a Python int to signed 16-bit two's complement."""
    return ((value + (1 << 15)) & 0xFFFF) - (1 << 15)


def _trunc_div(a: int, b: int) -> int:
    """C-style integer division (truncates toward zero)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


# -- hardware counters, one event at a time -----------------------------------
# Each event adds to the totals and to the exclusive row of the procedure
# executing it; a row's ``invocations`` counts completed invocations.


def _proc_add(hw: hwc.HardwareCounters, proc: str, key: str, amount: int) -> None:
    row = hw.per_proc.setdefault(proc, {})
    row[key] = row.get(key, 0) + amount


def _hw_block(hw: hwc.HardwareCounters, proc: str, cycles: int) -> None:
    """One basic block fetched from flash and executed."""
    hw.add("cycles.block", cycles)
    hw.add("flash.fetches")
    _proc_add(hw, proc, "cycles", cycles)


def _hw_jump(hw: hwc.HardwareCounters, proc: str, cycles: int) -> None:
    """One unconditional-jump terminator (counts as a dynamic edge)."""
    hw.add("control.jumps")
    if cycles:
        hw.add("cycles.jump", cycles)
    _proc_add(hw, proc, "cycles", cycles)


def _hw_extra_jump(hw: hwc.HardwareCounters, proc: str, cycles: int) -> None:
    """A layout-inserted jump on a branch arm (cycles, not an edge)."""
    hw.add("cycles.jump", cycles)
    _proc_add(hw, proc, "cycles", cycles)


def _hw_return(hw: hwc.HardwareCounters, proc: str, cycles: int) -> None:
    """One procedure return, which completes its invocation."""
    hw.add("cycles.return", cycles)
    _proc_add(hw, proc, "cycles", cycles)
    _proc_add(hw, proc, "invocations", 1)


def _hw_branch(
    hw: hwc.HardwareCounters,
    proc: str,
    *,
    scheme: str,
    taken: bool,
    predicted_taken: bool,
    backward_target: bool,
    cycles: int,
) -> None:
    """One dynamic conditional branch and the static prediction it met."""
    hw.add(f"predict.{scheme}.{'taken' if predicted_taken else 'not_taken'}")
    hw.add("branch.taken" if taken else "branch.not_taken")
    hw.add("cycles.branch", cycles)
    _proc_add(hw, proc, "cycles", cycles)
    _proc_add(hw, proc, "branches", 1)
    if taken:
        _proc_add(hw, proc, "taken", 1)
    if taken != predicted_taken:
        hw.add("branch.mispredict.taken" if taken else "branch.mispredict.not_taken")
        hw.add(
            "branch.mispredict.backward_target"
            if backward_target
            else "branch.mispredict.forward_target"
        )
        _proc_add(hw, proc, "mispredicts", 1)


class Interpreter:
    """Executes one program instance (globals persist across activations)."""

    def __init__(
        self,
        program: Program,
        platform: Platform,
        sensors: SensorSuite,
        layout: Optional[ProgramLayout] = None,
        radio: Optional[Radio] = None,
        record_paths: bool = False,
        max_steps_per_invocation: int = _DEFAULT_MAX_STEPS,
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        self.program = program
        self.platform = platform
        self.sensors = sensors
        self.layout = layout or ProgramLayout.source_order(program)
        self.radio = radio if radio is not None else Radio()
        self.record_paths = record_paths
        self.max_steps = max_steps_per_invocation
        self.faults = faults
        if faults is not None:
            # Route hardware-level faults to where the hardware lives; the
            # interpreter itself stays fault-oblivious.
            self.radio.faults = faults
            self.sensors.attach_faults(faults)

        self.globals: dict[str, int] = {k: _wrap16(v) for k, v in program.globals_.items()}
        self.arrays: dict[str, list[int]] = {
            name: [0] * size for name, size in program.arrays.items()
        }
        self.leds = 0
        self.cycle = 0
        self.counters = ExecutionCounters()
        self.records: list[InvocationRecord] = []
        self._resolved = {
            proc.name: self.layout.layout(proc.name).resolve_all_branches()
            for proc in program
        }

    # -- value plumbing -------------------------------------------------------

    def _read(self, frame: dict[str, int], name: str) -> int:
        if name in frame:
            return frame[name]
        if name in self.globals:
            return self.globals[name]
        raise SimulationError(f"read of unbound variable {name!r}")

    def _write(self, frame: dict[str, int], name: str, value: int) -> None:
        value = _wrap16(value)
        if name in self.globals:
            self.globals[name] = value
        else:
            frame[name] = value

    def _array(self, name: str) -> list[int]:
        try:
            return self.arrays[name]
        except KeyError:
            raise SimulationError(f"access to undeclared array {name!r}") from None

    def _index(self, name: str, idx: int) -> int:
        arr = self._array(name)
        if not 0 <= idx < len(arr):
            raise SimulationError(
                f"array index out of bounds: {name}[{idx}] (size {len(arr)})"
            )
        return idx

    # -- instruction execution ----------------------------------------------------

    def _binop(self, op: BinaryOp, a: int, b: int) -> int:
        if op is BinaryOp.ADD:
            return a + b
        if op is BinaryOp.SUB:
            return a - b
        if op is BinaryOp.MUL:
            return a * b
        if op is BinaryOp.DIV:
            if b == 0:
                raise SimulationError("division by zero")
            return _trunc_div(a, b)
        if op is BinaryOp.MOD:
            if b == 0:
                raise SimulationError("modulo by zero")
            return a - b * _trunc_div(a, b)
        if op is BinaryOp.AND:
            return a & b
        if op is BinaryOp.OR:
            return a | b
        if op is BinaryOp.XOR:
            return a ^ b
        if op is BinaryOp.SHL:
            return a << (b & 15)
        if op is BinaryOp.SHR:
            return a >> (b & 15)
        if op is BinaryOp.LT:
            return int(a < b)
        if op is BinaryOp.LE:
            return int(a <= b)
        if op is BinaryOp.GT:
            return int(a > b)
        if op is BinaryOp.GE:
            return int(a >= b)
        if op is BinaryOp.EQ:
            return int(a == b)
        if op is BinaryOp.NE:
            return int(a != b)
        raise SimulationError(f"unknown binary operator {op}")  # pragma: no cover

    def _execute_instruction(
        self, instr: Instruction, frame: dict[str, int], depth: int
    ) -> None:
        op = instr.opcode
        if op is Opcode.CONST:
            assert instr.dst is not None
            self._write(frame, instr.dst, int(instr.imm))  # type: ignore[arg-type]
        elif op is Opcode.MOV:
            assert instr.dst is not None
            self._write(frame, instr.dst, self._read(frame, instr.srcs[0]))
        elif op is Opcode.BINOP:
            assert instr.dst is not None and isinstance(instr.imm, BinaryOp)
            a = self._read(frame, instr.srcs[0])
            b = self._read(frame, instr.srcs[1])
            self._write(frame, instr.dst, self._binop(instr.imm, a, b))
        elif op is Opcode.UNOP:
            assert instr.dst is not None and isinstance(instr.imm, UnaryOp)
            a = self._read(frame, instr.srcs[0])
            self._write(frame, instr.dst, -a if instr.imm is UnaryOp.NEG else int(a == 0))
        elif op is Opcode.LOAD:
            assert instr.dst is not None and isinstance(instr.imm, str)
            idx = self._index(instr.imm, self._read(frame, instr.srcs[0]))
            self._write(frame, instr.dst, self._array(instr.imm)[idx])
        elif op is Opcode.STORE:
            assert isinstance(instr.imm, str)
            idx = self._index(instr.imm, self._read(frame, instr.srcs[0]))
            self._array(instr.imm)[idx] = _wrap16(self._read(frame, instr.srcs[1]))
        elif op is Opcode.SENSE:
            assert instr.dst is not None and isinstance(instr.imm, str)
            self._write(frame, instr.dst, self.sensors.read(instr.imm))
            self.counters.sense_reads += 1
            if hwc.active() is not None:
                hwc.active().add("sensor.reads")
        elif op is Opcode.SEND:
            self.radio.transmit(self._read(frame, instr.srcs[0]), self.cycle)
            self.counters.sends += 1
        elif op is Opcode.LED:
            self.leds = self._read(frame, instr.srcs[0]) & 0x7
        elif op is Opcode.CALL:
            assert isinstance(instr.imm, str)
            args = [self._read(frame, a) for a in instr.args]
            value = self.invoke(instr.imm, args, depth=depth + 1)
            if instr.dst is not None:
                self._write(frame, instr.dst, value)
        elif op in (Opcode.NOP, Opcode.HALT):
            pass
        else:  # pragma: no cover - exhaustive over Opcode
            raise SimulationError(f"unknown opcode {op}")

    # -- procedure invocation -----------------------------------------------------

    def invoke(self, proc_name: str, args: Sequence[int] = (), depth: int = 0) -> int:
        """Run one invocation of ``proc_name``; returns its value (0 if void).

        Records an :class:`InvocationRecord` with exact entry/exit cycles and
        updates the ground-truth counters as execution proceeds.
        """
        proc = self.program.procedure(proc_name)
        if depth >= MAX_CALL_DEPTH:
            raise SimulationError(
                f"call to {proc_name!r} exceeds the call-depth limit of {MAX_CALL_DEPTH}"
            )
        if len(args) != len(proc.params):
            raise SimulationError(
                f"{proc_name!r} expects {len(proc.params)} args, got {len(args)}"
            )
        frame = {p: _wrap16(int(a)) for p, a in zip(proc.params, args)}
        layout = self.layout.layout(proc_name)
        resolved = self._resolved[proc_name]
        cpu = self.platform.cpu
        entry_cycle = self.cycle
        path: Optional[list[str]] = [] if self.record_paths else None

        # Hardware counters: events attribute to this procedure (exclusive
        # counts; nested calls attribute to themselves).  ``hw is None`` is
        # the disabled fast path.
        hw = hwc.active()
        label = proc.cfg.entry
        return_value = 0
        for _ in range(self.max_steps):
            block = proc.cfg.block(label)
            self.counters.block_visits[(proc_name, label)] += 1
            if path is not None:
                path.append(label)
            cycles = cpu.cost_model.block_cycles(block)
            self.cycle += cycles
            if hw is not None:
                _hw_block(hw, proc_name, cycles)
            for instr in block.instructions:
                self._execute_instruction(instr, frame, depth)

            term = block.terminator
            if isinstance(term, Return):
                if term.value is not None:
                    return_value = self._read(frame, term.value)
                cost = cpu.return_cost()
                self.cycle += cost
                if hw is not None:
                    _hw_return(hw, proc_name, cost)
                break
            if isinstance(term, Jump):
                cost = cpu.jump_cost(fallthrough=layout.jump_is_elided(label))
                self.cycle += cost
                if hw is not None:
                    _hw_jump(hw, proc_name, cost)
                self.counters.edge_counts[(proc_name, label, "jump")] += 1
                label = term.target
                continue
            assert isinstance(term, Branch)
            arm = "then" if self._read(frame, term.cond) != 0 else "else"
            site = resolved[label]
            taken = site.arm_taken(arm)
            backward = site.backward_taken_target
            predicted = cpu.predictor.predicts_taken(backward_target=backward)
            cycles = cpu.branch_cost(taken=taken, backward_target=backward)
            self.cycle += cycles
            if hw is not None:
                _hw_branch(
                    hw,
                    proc_name,
                    scheme=cpu.predictor.name,
                    taken=taken,
                    predicted_taken=predicted,
                    backward_target=backward,
                    cycles=cycles,
                )
            if arm == site.extra_jump_arm:
                self.cycle += cpu.jump_cycles
                if hw is not None:
                    _hw_extra_jump(hw, proc_name, cpu.jump_cycles)
            counters = self.counters
            counters.edge_counts[(proc_name, label, arm)] += 1
            counters.branches_executed += 1
            if taken:
                counters.taken_total += 1
            if taken != predicted:
                counters.mispredict_total += 1
            label = term.then_target if arm == "then" else term.else_target
        else:
            raise SimulationError(
                f"{proc_name!r} exceeded {self.max_steps} blocks in one invocation"
            )

        self.counters.invocations[proc_name] += 1
        self.records.append(
            InvocationRecord(
                procedure=proc_name,
                entry_cycle=entry_cycle,
                exit_cycle=self.cycle,
                depth=depth,
                path=tuple(path) if path is not None else None,
            )
        )
        return return_value

    def run_activation(self) -> int:
        """One top-level activation of the program's entry procedure."""
        return self.invoke(self.program.entry, ())

    def report_counters(self) -> None:
        """Nothing to fold: this interpreter counts hardware events as they happen."""

    def hot_swap_layout(self, layout: ProgramLayout) -> None:
        """Re-flash the code image mid-run: adopt a new block layout.

        Only safe at an activation boundary (no invocation in flight) — the
        mote analogue is rewriting flash while the scheduler is idle.  RAM
        state (globals, arrays), the cycle counter, counters, and records
        all survive: the swap changes *where code sits in flash*, not what
        it computes, so subsequent activations pay the new layout's
        control-transfer costs on the same program state.
        """
        if layout.program is not self.program and set(layout.layouts) != set(
            self.program.procedures
        ):
            raise SimulationError(
                "hot-swapped layout does not cover this interpreter's program"
            )
        self.layout = layout
        self._resolved = {
            proc.name: layout.layout(proc.name).resolve_all_branches()
            for proc in self.program
        }

    def set_sensors(self, sensors: SensorSuite) -> None:
        """Swap the sensor suite between activations (environment segments)."""
        self.sensors = sensors
        if self.faults is not None:
            self.sensors.attach_faults(self.faults)

    def reboot(self) -> None:
        """Reset volatile (RAM) state the way a node reboot would.

        Globals and arrays return to their initial images and the LEDs go
        dark.  The cycle counter, ground-truth counters, and already-kept
        records are simulator bookkeeping — not mote RAM — so truncating
        the in-flight activation's records is the caller's job (see
        :func:`repro.sim.runner.run_program`).
        """
        self.globals = {k: _wrap16(v) for k, v in self.program.globals_.items()}
        self.arrays = {name: [0] * size for name, size in self.program.arrays.items()}
        self.leds = 0


@contextmanager
def oracle_engine() -> Iterator[None]:
    """Run :mod:`repro.sim.runner`'s drivers on this interpreter.

    ``run_program`` and ``run_program_batched`` build their interpreters
    through ``repro.sim.runner.Interpreter``; inside the ``with`` body that
    name is this module's class.  Worker processes are not affected, so
    oracle runs stay in-process (``jobs=1``).
    """
    import repro.sim.runner as runner

    saved = runner.Interpreter
    runner.Interpreter = Interpreter
    try:
        yield
    finally:
        runner.Interpreter = saved


def merge_batches(results: Sequence[RunResult], platform: Platform) -> RunResult:
    """Per-batch single-mote runs as one batched run: the batched driver's
    reference.

    ``run_program_batched`` reboots one interpreter at every batch boundary.
    Its reference runs each batch on a fresh mote (``run_program``) and
    joins the results in order: records are re-stamped onto one cycle axis
    (batch ``i`` starts where batch ``i-1`` ended), counts are summed, and
    energy is priced once on the summed counts, where every executed
    ``send`` is one transmission attempt.
    """
    counters = ExecutionCounters()
    records: list[InvocationRecord] = []
    offset = 0
    for result in results:
        for table in ("block_visits", "edge_counts", "invocations"):
            getattr(counters, table).update(getattr(result.counters, table))
        for total in ("branches_executed", "taken_total", "mispredict_total", "sense_reads", "sends"):
            setattr(counters, total, getattr(counters, total) + getattr(result.counters, total))
        records.extend(
            InvocationRecord(
                rec.procedure, rec.entry_cycle + offset, rec.exit_cycle + offset, rec.depth, rec.path
            )
            for rec in result.records
        )
        offset += result.total_cycles
    return RunResult(
        program_name=results[0].program_name,
        activations=sum(r.activations for r in results),
        total_cycles=offset,
        counters=counters,
        records=records,
        energy_mj=platform.energy.total_mj(
            cycles=offset, conversions=counters.sense_reads, packets=counters.sends
        ),
        radio_packets=sum(r.radio_packets for r in results),
    )
