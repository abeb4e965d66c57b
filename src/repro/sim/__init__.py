"""Execution engine: runs IR programs on the mote model.

:mod:`repro.sim.interpreter` executes programs block-by-block, charging
cycles per the platform's cost model and layout-resolved control transfers,
and recording ground-truth counters (block visits, edge traversals, taken
branches, mispredictions) plus exact per-invocation entry/exit cycles.  It
compiles each procedure once per (program, layout, platform) into a
generated Python function; the dict-walking interpreter it replaced is the
differential-testing oracle in ``tests/sim_oracle.py``.

:mod:`repro.sim.runner` drives runs of many activations on one mote,
optionally split into batches that each reboot it with fresh inputs.

:mod:`repro.sim.timing` builds the *analytic* timing model of a procedure —
an absorbing chain over blocks and branch-arm pseudo-states whose total
reward is exactly the interpreter's cycle count — parameterized by the
branch probabilities.  This is the forward model that Code Tomography
inverts.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "trace": ("ExecutionCounters", "InvocationRecord", "RunResult"),
        "interpreter": ("Interpreter",),
        "runner": ("run_program", "run_program_batched", "split_activations"),
        "timing": ("ProcedureTimingModel", "ProgramTimingModel"),
    },
)
