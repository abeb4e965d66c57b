"""Profiling approaches compared by the evaluation.

Three ways to learn a program's dynamic branch behaviour on a mote:

* :mod:`repro.profiling.edge_profiler` — **full edge instrumentation**: a
  counter per CFG edge, incremented on every traversal.  Exact, but pays
  RAM for every static edge and cycles for every dynamic one.
* :mod:`repro.profiling.sampling_profiler` — **PC sampling**: a timer
  interrupt records the executing block every N cycles; branch
  probabilities are inferred from cost-normalized block occupancy.
* :mod:`repro.profiling.timing_profiler` — **Code Tomography's collector**:
  two timestamps per procedure invocation (entry/exit), degraded by the
  platform timer.  The simulated collector keeps every measured duration;
  the on-mote cost T2 prices is an O(1) moment accumulator per procedure
  (:mod:`repro.profiling.overhead`).  The estimation itself happens
  off-mote in :mod:`repro.core`.

:mod:`repro.profiling.overhead` prices each approach's ROM/RAM/runtime/
energy cost from a run's counts — evaluation table T2.
:mod:`repro.profiling.budget` caps a campaign's samples.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "timing_profiler": ("TimingDataset", "TimingProfiler"),
        "edge_profiler": ("EdgeProfile", "EdgeProfiler"),
        "sampling_profiler": ("SamplingProfile", "SamplingProfiler"),
        "overhead": (
            "OverheadReport",
            "edge_instrumentation_overhead_from_counts",
            "sampling_overhead_from_counts",
            "timing_overhead_from_counts",
        ),
        "budget": ("SampleBudget",),
    },
)
