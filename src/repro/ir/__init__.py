"""Program intermediate representation.

The IR models sensor-network programs the way the Code Tomography pipeline
needs to see them: each procedure is a control-flow graph of basic blocks
whose straight-line cost is statically known, and whose conditional branches
are the only source of execution-time variability.  The front end
(:mod:`repro.lang`) lowers source programs into this IR; the Markov substrate
(:mod:`repro.markov`) turns each CFG into an absorbing chain; the placement
optimizer (:mod:`repro.placement`) reorders the blocks.
"""

from repro.ir.instructions import (
    BinaryOp,
    UnaryOp,
    Branch,
    Instruction,
    Jump,
    Opcode,
    Return,
    Terminator,
    binop,
    call,
    const,
    led,
    load,
    mov,
    nop,
    send,
    sense,
    store,
    unop,
)
from repro.ir.block import BasicBlock
from repro.ir.cfg import CFG, Edge
from repro.ir.procedure import Procedure
from repro.ir.program import Program
from repro.ir.builder import CFGBuilder
from repro.ir.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.ir.validate import validate_cfg, validate_program
from repro.ir.dot import cfg_to_dot

__all__ = [
    "Opcode",
    "BinaryOp",
    "UnaryOp",
    "Instruction",
    "Terminator",
    "Jump",
    "Branch",
    "Return",
    "binop",
    "call",
    "const",
    "led",
    "load",
    "mov",
    "nop",
    "send",
    "sense",
    "store",
    "unop",
    "BasicBlock",
    "CFG",
    "Edge",
    "Procedure",
    "Program",
    "CFGBuilder",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "validate_cfg",
    "validate_program",
    "cfg_to_dot",
]
