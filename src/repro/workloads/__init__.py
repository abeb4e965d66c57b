"""Benchmark workloads: classic TinyOS-style mote applications.

Six applications written in TinyScript, spanning the control-flow shapes the
evaluation needs — skewed rare-event branches, data-dependent loops,
multi-procedure call structure, and global state machines:

======================  =====================================================
``blink``               LED heartbeat with periodic housekeeping
``sense``               read-classify-display with an alert counter
``oscilloscope``        buffered sampling with batch flush
``surge``               collection-style forwarding with link retries
``event-detect``        debounced rare-event detector with burst drain
``tinydb-agg``          windowed aggregation query with a HAVING clause
======================  =====================================================

Plus :mod:`repro.workloads.synthetic` — generators of random programs and
random estimation problems for parameter sweeps.  All workloads register in
:mod:`repro.workloads.registry`.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "registry": ("WorkloadSpec", "all_workloads", "workload_by_name"),
        "synthetic": ("random_workload", "random_estimation_problem"),
    },
)
