"""The CFG interpreter: executes IR programs on the mote model.

Semantics mirror a 16-bit MCU: all scalar values wrap to signed 16-bit,
division truncates toward zero (C semantics), shifts mask their count to
0–15, division/modulo by zero aborts the run with a
:class:`~repro.errors.SimulationError`.  Cycle accounting follows the
platform's :class:`~repro.mote.cpu.CpuModel` exactly, with control-transfer
costs resolved against the active :class:`~repro.placement.Layout` — so
re-running the same program under a different layout yields different cycle
counts and misprediction totals, which is the effect the paper measures.

A block's straight-line cost is fixed at compile time, and so is
everything else that does not depend on run-time values: how each branch
arm is priced under the layout and the static predictor (taken, predicted,
mispredicted, extra jump), whether a jump is elided, and whether an operand
lives in the invocation's frame or in the globals.  :func:`_compile`
resolves all of it once per (program, layout, platform) and turns each
procedure into one generated Python function whose locals are the
procedure's registers, so executing a block is a run of straight-line
statements.  IR strings (labels, names, channels) enter the generated
source only through ``repr()``.  The dict-walking interpreter this was
compiled from is kept as the test oracle (``tests/sim_oracle.py``), and
``tests/test_sim_differential.py`` holds the two bit-identical.

The generated code counts into one flat list of slots and nothing else.
A slot is one count the ground truth keeps: a block visit, a branch arm or
jump, a completed invocation, or a SENSE or SEND executed.  Slots are
numbered from the program alone, so a hot swap to another layout keeps
counting into the same list.  A slot starts as ``None``; its first bump
raises ``TypeError``, whose handler stores 1 and appends the slot to a
first-visit list, which is the order :class:`ExecutionCounters` inserts
its keys in.  :attr:`Interpreter.counters` folds the slots into the
:class:`ExecutionCounters` object when it is read.  Under a fixed layout,
every CPU-side hardware counter (each cycle class, flash fetches, branch
outcomes and predictions, the per-procedure rows) and ``sensor.reads`` is
a compile-time constant times one slot, so :func:`_compile` also returns
that weight table, indexed by slot, and
:meth:`Interpreter.report_counters` prices the slot counts since its last
report through it into the active
:class:`~repro.obs.counters.HardwareCounters` registry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional, Sequence, Union

from repro.errors import SimulationError
from repro.ir.block import BasicBlock
from repro.ir.instructions import BinaryOp, Branch, Instruction, Jump, Opcode, Return, UnaryOp
from repro.ir.procedure import Procedure
from repro.ir.program import Program
from repro.mote.cpu import CpuModel
from repro.mote.platform import Platform
from repro.mote.radio import Radio
from repro.mote.sensors import SensorSuite
from repro.obs import counters as hwc
from repro.placement.layout import Layout, ProgramLayout
from repro.sim.trace import ExecutionCounters, InvocationRecord

if TYPE_CHECKING:  # pragma: no cover - repro.faults loads only with a fault model
    from repro.faults.model import FaultInjector

__all__ = ["Interpreter", "MAX_CALL_DEPTH"]

_DEFAULT_MAX_STEPS = 200_000

#: Nested invocations one top-level call may open.  A call deeper than this
#: raises :class:`SimulationError`, as a mote's stack would overflow; only
#: hand-built IR can recurse (the front end and ``validate_program`` reject
#: call cycles).
MAX_CALL_DEPTH = 256


def _wrap16(value: int) -> int:
    """Wrap a Python int to signed 16-bit two's complement."""
    return ((value + (1 << 15)) & 0xFFFF) - (1 << 15)


def _trunc_div(a: int, b: int) -> int:
    """C-style integer division (truncates toward zero)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


# -- run-time helpers the generated code calls --------------------------------


def _div(a: int, b: int) -> int:
    if b == 0:
        raise SimulationError("division by zero")
    return _trunc_div(a, b)


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise SimulationError("modulo by zero")
    return a - b * _trunc_div(a, b)


def _unbound(name: str) -> None:
    raise SimulationError(f"read of unbound variable {name!r}")


def _undeclared(name: str) -> None:
    raise SimulationError(f"access to undeclared array {name!r}")


def _out_of_bounds(name: str, idx: int, arr: list[int]) -> None:
    raise SimulationError(f"array index out of bounds: {name}[{idx}] (size {len(arr)})")


def _wrong_arity(name: str, expected: int, got: int) -> None:
    raise SimulationError(f"{name!r} expects {expected} args, got {got}")


def _exceeded(name: str, limit: int) -> None:
    raise SimulationError(f"{name!r} exceeded {limit} blocks in one invocation")


def _too_deep(name: str) -> None:
    raise SimulationError(f"call to {name!r} exceeds the call-depth limit of {MAX_CALL_DEPTH}")


# -- compilation --------------------------------------------------------------

_WRAP = "((({}) + 32768) & 65535) - 32768"  # _wrap16 as an expression

_ARITHMETIC = {
    BinaryOp.ADD: "{} + {}",
    BinaryOp.SUB: "{} - {}",
    BinaryOp.MUL: "{} * {}",
    BinaryOp.DIV: "_div({}, {})",
    BinaryOp.MOD: "_mod({}, {})",
    BinaryOp.AND: "{} & {}",
    BinaryOp.OR: "{} | {}",
    BinaryOp.XOR: "{} ^ {}",
    BinaryOp.SHL: "{} << ({} & 15)",
    BinaryOp.SHR: "{} >> ({} & 15)",
}

# Comparisons yield 0/1, which the 16-bit wrap leaves alone.
_COMPARISON = {
    BinaryOp.LT: "<",
    BinaryOp.LE: "<=",
    BinaryOp.GT: ">",
    BinaryOp.GE: ">=",
    BinaryOp.EQ: "==",
    BinaryOp.NE: "!=",
}


def _definitely_assigned(
    entry: str, blocks: list[BasicBlock], locals_: set[str]
) -> dict[str, set[str]]:
    """Frame registers bound on every path into each block (must-analysis).

    A read of a register outside this set may find it unbound, so only such
    reads get a run-time check.  Unreachable blocks keep the full set; the
    entry starts from nothing because it is entered from the call.
    """
    writes = {
        block.label: {i.dst for i in block.instructions if i.dst in locals_}
        for block in blocks
    }
    preds: dict[str, list[str]] = {block.label: [] for block in blocks}
    for block in blocks:
        if block.terminator is not None:
            for succ in block.terminator.successors():
                if succ in preds:
                    preds[succ].append(block.label)
    into = {block.label: set(locals_) for block in blocks}
    into[entry] = set()
    changed = True
    while changed:
        changed = False
        for block in blocks:
            if block.label == entry:
                continue
            incoming = set(locals_)
            for pred in preds[block.label]:
                incoming &= into[pred] | writes[pred]
            if incoming != into[block.label]:
                into[block.label] = incoming
                changed = True
    return into


# An ExecutionCounters key: an invocation ``proc``, a block visit
# ``(proc, label)`` or an edge ``(proc, label, arm)``.
_Key = Union[str, tuple[str, ...]]
# What one count of a slot adds to ExecutionCounters: the Counter field and
# its key (``None`` for neither), and the integer fields it adds one to.
_Fold = tuple[Optional[str], Optional[_Key], tuple[str, ...]]
# What one count of a slot adds to the hardware counters: the procedure, its
# ``totals`` increments and its per-procedure row increments (none for a
# count no procedure's row holds).
_Weight = tuple[Optional[str], tuple[tuple[str, int], ...], tuple[tuple[str, int], ...]]

# The two program-wide slots: every SENSE and every SEND executed.
_SENSE, _SEND = 0, 1


def _first(counts: list, visited: list[int], slot: int) -> None:
    """A slot's first bump: it counts 1 and joins the first-visit order."""
    counts[slot] = 1
    visited.append(slot)


def _bump(slot: int, out: list[str]) -> None:
    """Source adding one to slot ``slot`` of ``N`` (``None`` until its first bump)."""
    out.append("try:")
    out.append(f"    N[{slot}] += 1")
    out.append("except TypeError:")
    out.append(f"    _first(N, V, {slot})")


class _ProcedureSource:
    """Generated source for one procedure under one layout on one CPU.

    Each count the code keeps takes the next slot of ``compiled``, so slots
    follow the procedure's blocks in CFG order, whatever the layout.
    """

    def __init__(
        self,
        name: str,
        proc: Procedure,
        layout: Layout,
        program: Program,
        cpu: CpuModel,
        compiled: _Compiled,
    ) -> None:
        self.name = name
        self.proc = proc
        self.layout = layout
        self.program = program
        self.cpu = cpu
        self.compiled = compiled
        self.lines: list[str] = []
        self.constants: dict[str, object] = {}
        self.callees: dict[str, str] = {}  # procedure -> the name it is bound to
        self.globals_ = set(program.globals_)
        self.params = set(proc.params)
        self.blocks = list(proc.cfg)
        self.index = {block.label: i for i, block in enumerate(self.blocks)}
        self.missing: list[str] = []  # jump targets with no block
        self.registers: dict[str, str] = {}
        for register in proc.params:
            self._register(register)
        locals_ = set()
        for block in self.blocks:
            for instr in block.instructions:
                for register in (*instr.srcs, *instr.args, instr.dst):
                    if register is not None and register not in self.globals_:
                        self._register(register)
                        locals_.add(register)
            term = block.terminator
            if isinstance(term, Branch):
                read: Optional[str] = term.cond
            else:
                read = term.value if isinstance(term, Return) else None
            if read is not None and read not in self.globals_:
                self._register(read)
                locals_.add(read)
        self.bound = _definitely_assigned(proc.cfg.entry, self.blocks, locals_ - self.params)
        self.maybe_unbound: set[str] = set()
        self.resolved = layout.resolve_all_branches()

    def count(self, fold: _Fold, weight: _Weight, out: list[str]) -> None:
        """Bump a new slot whose counts add ``fold`` and price as ``weight``."""
        slot = len(self.compiled.folds)
        self.compiled.folds.append(fold)
        self.compiled.weights.append(weight)
        _bump(slot, out)

    # -- literals and operands -------------------------------------------------

    def _register(self, name: str) -> str:
        if name not in self.registers:
            self.registers[name] = f"r{len(self.registers)}"
        return self.registers[name]

    def callee(self, name: str) -> str:
        """The global through which this procedure calls procedure ``name``."""
        if name not in self.callees:
            self.callees[name] = f"_c{len(self.callees)}"
        return self.callees[name]

    def literal(self, value: object) -> str:
        """Source for ``value``: inline when ``repr`` round-trips, else a name."""
        if value is None or type(value) in (int, str, bool):
            return repr(value)
        if type(value) is tuple and all(type(v) is str for v in value):
            return repr(value)
        name = f"_k{len(self.constants)}"
        self.constants[name] = value
        return name

    def read(self, name: str, bound: set[str], out: list[str]) -> str:
        """Expression for a register read; appends its unbound check to ``out``.

        Parameters always sit in the frame (the interpreter reads the frame
        before the globals, so a parameter shadows a global of its name);
        other names are globals or frame registers, fixed per program.
        """
        if name in self.params:
            return self.registers[name]
        if name in self.globals_:
            return f"G[{self.literal(name)}]"
        register = self.registers[name]
        if name not in bound:
            self.maybe_unbound.add(name)
            out.append(f"if {register} is None:")
            out.append(f"    _unbound({self.literal(name)})")
        return register

    def write(self, name: str, expr: str, bound: set[str], out: list[str]) -> None:
        """Writes go to the global of that name if one exists, else the frame."""
        if name in self.globals_:
            out.append(f"G[{self.literal(name)}] = {expr}")
        else:
            out.append(f"{self.registers[name]} = {expr}")
            bound.add(name)

    def wrapped_read(self, name: str, bound: set[str], out: list[str]) -> str:
        """A read whose value must pass ``_wrap16`` (frame values already did)."""
        expr = self.read(name, bound, out)
        return _WRAP.format(expr) if name in self.globals_ and name not in self.params else expr

    # -- blocks ------------------------------------------------------------------

    def instruction(self, instr: Instruction, bound: set[str], out: list[str]) -> None:
        op = instr.opcode
        if op is Opcode.CONST:
            self.write(instr.dst, self.literal(_wrap16(int(instr.imm))), bound, out)
        elif op is Opcode.MOV:
            self.write(instr.dst, self.wrapped_read(instr.srcs[0], bound, out), bound, out)
        elif op is Opcode.BINOP:
            a = self.read(instr.srcs[0], bound, out)
            b = self.read(instr.srcs[1], bound, out)
            if instr.imm in _COMPARISON:
                expr = f"(1 if {a} {_COMPARISON[instr.imm]} {b} else 0)"
            else:
                expr = _WRAP.format(_ARITHMETIC[instr.imm].format(a, b))
            self.write(instr.dst, expr, bound, out)
        elif op is Opcode.UNOP:
            a = self.read(instr.srcs[0], bound, out)
            if instr.imm is UnaryOp.NEG:
                expr = _WRAP.format(f"-{a}")
            else:
                expr = f"(1 if {a} == 0 else 0)"
            self.write(instr.dst, expr, bound, out)
        elif op is Opcode.LOAD or op is Opcode.STORE:
            out.append(f"_i = {self.read(instr.srcs[0], bound, out)}")
            array = instr.imm
            if array not in self.program.arrays:
                out.append(f"_undeclared({self.literal(array)})")
                return
            out.append(f"_a = A[{self.literal(array)}]")
            out.append("if not 0 <= _i < len(_a):")
            out.append(f"    _out_of_bounds({self.literal(array)}, _i, _a)")
            if op is Opcode.LOAD:
                self.write(instr.dst, _WRAP.format("_a[_i]"), bound, out)
            else:
                out.append(f"_a[_i] = {self.wrapped_read(instr.srcs[1], bound, out)}")
        elif op is Opcode.SENSE:
            expr = _WRAP.format(f"interp.sensors.read({self.literal(instr.imm)})")
            self.write(instr.dst, expr, bound, out)
            _bump(_SENSE, out)
        elif op is Opcode.SEND:
            value = self.read(instr.srcs[0], bound, out)
            out.append(f"interp.radio.transmit({value}, interp.cycle)")
            _bump(_SEND, out)
        elif op is Opcode.LED:
            out.append(f"interp.leds = {self.read(instr.srcs[0], bound, out)} & 7")
        elif op is Opcode.CALL:
            args = "".join(f"{self.read(a, bound, out)}, " for a in instr.args)
            if instr.imm in self.program.procedures:
                call = f"{self.callee(instr.imm)}(interp, ({args}), depth + 1)"
            else:  # the public entry point raises the unknown-procedure error
                call = f"interp.invoke({self.literal(instr.imm)}, ({args}), depth + 1)"
            if instr.dst is None:
                out.append(call)
            else:
                self.write(instr.dst, _WRAP.format(call), bound, out)
        elif op is Opcode.NOP or op is Opcode.HALT:
            pass
        else:  # pragma: no cover - exhaustive over Opcode
            raise SimulationError(f"unknown opcode {op}")

    def target(self, label: str) -> int:
        if label in self.index:
            return self.index[label]
        if label not in self.missing:
            self.missing.append(label)
        return len(self.blocks) + self.missing.index(label)

    def charge(self, cycles: int, out: list[str]) -> None:
        if not (type(cycles) is int and cycles == 0):
            out.append(f"interp.cycle += {self.literal(cycles)}")

    def branch_arm(self, block: BasicBlock, arm: str, out: list[str]) -> None:
        cpu = self.cpu
        term = block.terminator
        site = self.resolved[block.label]
        taken = site.arm_taken(arm)
        backward = site.backward_taken_target
        predicted = cpu.predictor.predicts_taken(backward_target=backward)
        cycles = cpu.branch_cost(taken=taken, backward_target=backward)
        extra = arm == site.extra_jump_arm
        self.charge(cycles, out)
        if extra:
            self.charge(cpu.jump_cycles, out)
        scalars = ("branches_executed",)
        if taken:
            scalars += ("taken_total",)
        if taken != predicted:
            scalars += ("mispredict_total",)

        totals = [
            (f"predict.{cpu.predictor.name}.{'taken' if predicted else 'not_taken'}", 1),
            ("branch.taken" if taken else "branch.not_taken", 1),
            ("cycles.branch", cycles),
        ]
        row = [("cycles", cycles + (cpu.jump_cycles if extra else 0)), ("branches", 1)]
        if extra:
            totals.append(("cycles.jump", cpu.jump_cycles))
        if taken:
            row.append(("taken", 1))
        if taken != predicted:
            totals.append(("branch.mispredict.taken" if taken else "branch.mispredict.not_taken", 1))
            where = "backward" if backward else "forward"
            totals.append((f"branch.mispredict.{where}_target", 1))
            row.append(("mispredicts", 1))
        key = (self.name, block.label, arm)
        self.count(("edge_counts", key, scalars), (self.name, tuple(totals), tuple(row)), out)
        dest = term.then_target if arm == "then" else term.else_target
        out.append(f"b = {self.target(dest)}")

    def block(self, block: BasicBlock) -> list[str]:
        out: list[str] = []
        bound = set(self.bound[block.label])
        cycles = self.cpu.cost_model.block_cycles(block)
        self.count(
            ("block_visits", (self.name, block.label), ()),
            (self.name, (("cycles.block", cycles), ("flash.fetches", 1)), (("cycles", cycles),)),
            out,
        )
        out.append("if path is not None:")
        out.append(f"    path.append({self.literal(block.label)})")
        self.charge(cycles, out)
        for instr in block.instructions:
            self.instruction(instr, bound, out)
        term = block.terminator
        if isinstance(term, Return):
            # The value is read before the return is paid, so a return is
            # charged exactly when its invocation completes.
            value = "0" if term.value is None else self.read(term.value, bound, out)
            out.append(f"rv = {value}")
            self.charge(self.cpu.return_cost(), out)
            out.append("break")
        elif isinstance(term, Jump):
            cost = self.cpu.jump_cost(fallthrough=self.layout.jump_is_elided(block.label))
            self.charge(cost, out)
            jumps = (("control.jumps", 1), ("cycles.jump", cost)) if cost else (("control.jumps", 1),)
            self.count(
                ("edge_counts", (self.name, block.label, "jump"), ()),
                (self.name, jumps, (("cycles", cost),)),
                out,
            )
            out.append(f"b = {self.target(term.target)}")
        elif isinstance(term, Branch):
            cond = self.read(term.cond, bound, out)
            out.append(f"if {cond} != 0:")
            then_arm: list[str] = []
            self.branch_arm(block, "then", then_arm)
            out.extend("    " + line for line in then_arm)
            out.append("else:")
            else_arm: list[str] = []
            self.branch_arm(block, "else", else_arm)
            out.extend("    " + line for line in else_arm)
        else:  # an unterminated block, as the oracle's assert reports it
            out.append("raise AssertionError()")
        return out

    def dispatch(self, bodies: list[list[str]], lo: int, hi: int, indent: str) -> None:
        """A balanced comparison tree on the block index ``b``."""
        if hi - lo == 1:
            self.lines.extend(indent + line for line in bodies[lo])
            return
        mid = (lo + hi) // 2
        self.lines.append(f"{indent}if b < {mid}:")
        self.dispatch(bodies, lo, mid, indent + "    ")
        self.lines.append(f"{indent}else:")
        self.dispatch(bodies, mid, hi, indent + "    ")

    def source(self) -> str:
        name = self.literal(self.name)
        entry = self.target(self.proc.cfg.entry)
        bodies = [self.block(block) for block in self.blocks]
        # A transfer to a label the CFG lacks fails the way the oracle's
        # block lookup does, when (and only if) it executes.
        for label in self.missing:
            bodies.append([f"{self.literal(self.proc.cfg)}.block({self.literal(label)})"])

        lines = self.lines
        params = self.proc.params
        lines.append("def run(interp, args, depth):")
        lines.append(f"    if depth >= {MAX_CALL_DEPTH}:")
        lines.append(f"        _too_deep({name})")
        lines.append(f"    if len(args) != {len(params)}:")
        lines.append(f"        _wrong_arity({name}, {len(params)}, len(args))")
        for i, param in enumerate(params):
            lines.append(f"    {self.registers[param]} = {_WRAP.format(f'int(args[{i}])')}")
        for register in sorted(self.maybe_unbound, key=self.registers.__getitem__):
            lines.append(f"    {self.registers[register]} = None")
        lines.append("    N = interp._counts")
        lines.append("    V = interp._visited")
        lines.append("    G = interp.globals")
        lines.append("    A = interp.arrays")
        lines.append("    limit = interp.max_steps")
        lines.append("    entry = interp.cycle")
        lines.append("    path = [] if interp.record_paths else None")
        lines.append(f"    b = {entry}")
        lines.append("    steps = 0")
        lines.append("    while True:")
        lines.append("        if steps >= limit:")
        lines.append(f"            _exceeded({name}, limit)")
        lines.append("        steps += 1")
        self.dispatch(bodies, 0, len(bodies), " " * 8)
        cost = self.cpu.return_cost()  # a completed invocation paid its return
        done: list[str] = []
        self.count(
            ("invocations", self.name, ()),
            (self.name, (("cycles.return", cost),), (("invocations", 1), ("cycles", cost))),
            done,
        )
        lines.extend("    " + line for line in done)
        lines.append(
            f"    interp.records.append(_new(_Record, ({name}, entry, interp.cycle, depth, "
            "tuple(path) if path is not None else None)))"
        )
        lines.append("    return rv")
        return "\n".join(lines) + "\n"


_RUNTIME = {
    "_Record": InvocationRecord,
    "_new": tuple.__new__,
    "_first": _first,
    "_div": _div,
    "_mod": _mod,
    "_unbound": _unbound,
    "_undeclared": _undeclared,
    "_out_of_bounds": _out_of_bounds,
    "_wrong_arity": _wrong_arity,
    "_exceeded": _exceeded,
    "_too_deep": _too_deep,
}


class _Compiled(NamedTuple):
    """A program compiled for one layout and platform.

    ``functions`` maps a procedure name to ``run(interp, args, depth)``,
    which executes one invocation against ``interp``'s state; each
    function's globals bind its callees, so a program whose call graph is
    acyclic (the front end's always are) holds no reference cycle and is
    freed by reference counting.  Indexed by slot, ``folds`` says what one
    count adds to :class:`ExecutionCounters` (a branch arm's taken and
    mispredicted flags are the layout's) and ``weights`` what it adds to the
    hardware counters.
    """

    functions: dict[str, Callable[..., int]]
    folds: list[_Fold]
    weights: list[_Weight]


def _compile(program: Program, layout: ProgramLayout, platform: Platform) -> _Compiled:
    """Every procedure of ``program``, compiled for ``layout`` and ``platform``."""
    # The radio counts its own transmissions, so a SEND prices to nothing.
    compiled = _Compiled(
        {},
        [(None, None, ("sense_reads",)), (None, None, ("sends",))],
        [(None, (("sensor.reads", 1),), ()), (None, (), ())],
    )
    calls = []
    for name, proc in program.procedures.items():
        generated = _ProcedureSource(
            name, proc, layout.layout(name), program, platform.cpu, compiled
        )
        source = generated.source()
        namespace = {**_RUNTIME, **generated.constants}
        exec(compile(source, f"<repro.sim {name}>", "exec"), namespace)
        # Popped: a namespace that held its own function would be a cycle.
        compiled.functions[name] = namespace.pop("run")
        calls.append((namespace, generated.callees))
    for namespace, callees in calls:
        for callee, bound in callees.items():
            namespace[bound] = compiled.functions[callee]
    return compiled


def _project(weights: Sequence[_Weight], counts: Iterable[tuple[int, int]]) -> dict:
    """The hardware-counter snapshot that ``(slot, count)`` pairs amount to.

    A counter or row field appears once a count that adds to it is
    positive, even when the amount it adds is zero.
    """
    totals: dict[str, int] = {}
    per_proc: dict[str, dict[str, int]] = {}
    for slot, n in counts:
        proc, adds, row_adds = weights[slot]
        for name, amount in adds:
            totals[name] = totals.get(name, 0) + amount * n
        if row_adds:
            row = per_proc.setdefault(proc, {})
            for name, amount in row_adds:
                row[name] = row.get(name, 0) + amount * n
    return {"schema": hwc.SNAPSHOT_SCHEMA, "totals": totals, "per_proc": per_proc}


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
        self.records: list[InvocationRecord] = []
        # Compiled on the first invocation.
        self._compiled: Optional[_Compiled] = None
        self._counters = ExecutionCounters()
        self._fresh_slots()

    # -- counting -------------------------------------------------------------------

    def _fresh_slots(self) -> None:
        """Count into new slots, with nothing visited, folded or reported.

        ``_counts`` holds each slot's count (``None`` until its first
        bump) and ``_visited`` the slots in first-bump order; ``_folded``
        and ``_reported`` hold each slot's count as of the last fold into
        :attr:`counters` and as of the last report.
        """
        n = len(self._compiled.folds) if self._compiled is not None else 0
        self._counts: list[Optional[int]] = [None] * n
        self._visited: list[int] = []
        self._folded = [0] * n
        self._reported = [0] * n

    def _fold(self) -> None:
        """Add the slot counts since the last fold to the counters object.

        Slots fold in first-visit order, so each Counter inserts its keys in
        the order the program first counted them.
        """
        counts, folded, counters = self._counts, self._folded, self._counters
        for slot in self._visited:
            n = counts[slot]
            d = n - folded[slot]
            if d:
                folded[slot] = n
                table, key, scalars = self._compiled.folds[slot]
                if table is not None:
                    getattr(counters, table)[key] += d
                for name in scalars:
                    setattr(counters, name, getattr(counters, name) + d)

    def _load(self, layout: ProgramLayout) -> _Compiled:
        """Compile for ``layout``.  Slots number the program alone, so the
        counts so far carry over; the first compile sizes them."""
        first = self._compiled is None
        self._compiled = _compile(self.program, layout, self.platform)
        if first:
            self._fresh_slots()
        return self._compiled

    @property
    def counters(self) -> ExecutionCounters:
        """The ground-truth counts, folded from the slots when read.

        The compiled code counts only into its slots.  Reading this
        property brings the :class:`ExecutionCounters` object up to date
        and returns it; so does :meth:`report_counters`.  A reference held
        across activations is current only after one of the two.  Setting
        it brings the old object up to date, then counts into the new one
        from zero, with a fresh report baseline.
        """
        self._fold()
        return self._counters

    @counters.setter
    def counters(self, counters: ExecutionCounters) -> None:
        self._fold()
        self._counters = counters
        self._fresh_slots()

    # -- procedure invocation -----------------------------------------------------

    def invoke(self, proc_name: str, args: Sequence[int] = (), depth: int = 0) -> int:
        """Run one invocation of ``proc_name``; returns its value (0 if void).

        Records an :class:`InvocationRecord` with exact entry/exit cycles and
        updates the ground-truth counts as execution proceeds.
        """
        compiled = self._compiled
        if compiled is None:
            compiled = self._load(self.layout)
        try:
            run = compiled.functions[proc_name]
        except KeyError:
            self.program.procedure(proc_name)  # raises the unknown-procedure error
            raise
        return run(self, args, depth)

    def run_activation(self) -> int:
        """One top-level activation of the program's entry procedure."""
        return self.invoke(self.program.entry, ())

    def report_counters(self) -> None:
        """Fold the slots into :attr:`counters`, then price them into the registry.

        This prices the slot counts since the previous report (or since
        :attr:`counters` was replaced) through the compiled weight table,
        and merges the result into the installed
        :class:`~repro.obs.counters.HardwareCounters`; with none installed,
        those counts are dropped.  Drivers call it where a run or segment
        ends, and :meth:`hot_swap_layout` calls it before the weights change.
        """
        self._fold()
        counts, reported = self._counts, self._reported
        since = []
        for slot in self._visited:
            n = counts[slot]
            if n != reported[slot]:
                since.append((slot, n - reported[slot]))
                reported[slot] = n
        hw = hwc.active()
        if hw is not None and since:
            hw.merge_snapshot(_project(self._compiled.weights, since))

    def hot_swap_layout(self, layout: ProgramLayout) -> None:
        """Re-flash the code image mid-run: adopt a new block layout.

        Only safe at an activation boundary (no invocation in flight) — the
        mote analogue is rewriting flash while the scheduler is idle.  RAM
        state (globals, arrays), the cycle counter, counters, and records
        all survive: the swap changes *where code sits in flash*, not what
        it computes, so subsequent activations pay the new layout's
        control-transfer costs on the same program state.  Counts so far
        are reported first, priced under the layout they ran on.
        """
        if layout.program is not self.program and set(layout.layouts) != set(
            self.program.procedures
        ):
            raise SimulationError(
                "hot-swapped layout does not cover this interpreter's program"
            )
        self.report_counters()
        self.layout = layout
        self._load(layout)

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
