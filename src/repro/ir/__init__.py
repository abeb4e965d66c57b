"""Program intermediate representation.

The IR models sensor-network programs the way the Code Tomography pipeline
needs to see them: each procedure is a control-flow graph of basic blocks
whose straight-line cost is statically known, and whose conditional branches
are the only source of execution-time variability.  The front end
(:mod:`repro.lang`) lowers source programs into this IR; the Markov substrate
(:mod:`repro.markov`) turns each CFG into an absorbing chain; the placement
optimizer (:mod:`repro.placement`) reorders the blocks.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "instructions": (
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
        ),
        "block": ("BasicBlock",),
        "cfg": ("CFG", "Edge"),
        "procedure": ("Procedure",),
        "program": ("Program",),
        "builder": ("CFGBuilder",),
        "costmodel": ("CostModel", "DEFAULT_COST_MODEL"),
        "validate": ("validate_cfg", "validate_program"),
        "dot": ("cfg_to_dot",),
    },
)
