"""Execution engine: runs IR programs on the mote model.

:mod:`repro.sim.interpreter` executes programs block-by-block, charging
cycles per the platform's cost model and layout-resolved control transfers,
and recording ground-truth counters (block visits, edge traversals, taken
branches, mispredictions) plus exact per-invocation entry/exit cycles.

:mod:`repro.sim.vectorized` compiles a program once and steps *fleets* of
independent motes in numpy lockstep — bit-identical to the scalar
interpreter per mote, an order of magnitude faster per fleet.

:mod:`repro.sim.runner` drives batches of activations and aggregates
results, dispatching eligible programs to the vectorized engine (the
scalar interpreter stays available as the differential-testing oracle).

:mod:`repro.sim.timing` builds the *analytic* timing model of a procedure —
an absorbing chain over blocks and branch-arm pseudo-states whose total
reward is exactly the interpreter's cycle count — parameterized by the
branch probabilities.  This is the forward model that Code Tomography
inverts.
"""

from repro.sim.trace import ExecutionCounters, InvocationRecord, RunResult
from repro.sim.interpreter import Interpreter
from repro.sim.runner import (
    ENGINE_ENV_VAR,
    merge_run_results,
    resolve_engine,
    run_program,
    run_program_batched,
    split_activations,
)
from repro.sim.timing import ProcedureTimingModel, ProgramTimingModel
from repro.sim.vectorized import run_motes, run_motes_merged, vectorize_eligible

__all__ = [
    "ExecutionCounters",
    "InvocationRecord",
    "RunResult",
    "Interpreter",
    "run_program",
    "run_program_batched",
    "split_activations",
    "merge_run_results",
    "resolve_engine",
    "ENGINE_ENV_VAR",
    "run_motes",
    "run_motes_merged",
    "vectorize_eligible",
    "ProcedureTimingModel",
    "ProgramTimingModel",
]
