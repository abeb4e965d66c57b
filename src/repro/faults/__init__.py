"""Deterministic fault injection for the mote and the profiling pipeline.

The paper's premise is that motes are too constrained *and too unreliable*
for heavyweight profiling — radios drop packets, clocks glitch, sensors
brown out, nodes reboot mid-task.  This package models that regime so the
robustness of every profiling scheme can be measured instead of assumed:

* :class:`FaultModel` — a frozen description of the fault regime (per-event
  rates for radio loss/corruption, sensor dropouts, timer glitches, node
  reboots).  All rates default to zero; a zero-rate model is a **strict
  no-op** — no RNG draws, no behavioural change anywhere.
* :class:`FaultInjector` — the stateful dealer of fault decisions.  Each
  fault kind draws from its own named :mod:`repro.util.rng` seed stream, so
  enabling or re-rating one kind never perturbs another kind's stream, and
  results stay bit-identical at any ``--jobs`` worker count.
* :func:`collect_timing` / :class:`CollectionStats` — the degraded
  measurement path: timestamp records survive (or don't) radio upload and
  timer glitches before they reach the estimators.

Injection points live where the hardware lives — :mod:`repro.mote.radio`,
:mod:`repro.mote.sensors`, :mod:`repro.sim.runner` — and all accept an
optional injector; ``None`` keeps the fault-free fast path byte-identical
to the pre-fault codebase.
"""

from repro.faults.model import FaultInjector, FaultModel
from repro.faults.inject import CollectionStats, collect_timing, faulty_samples

__all__ = [
    "FaultModel",
    "FaultInjector",
    "CollectionStats",
    "collect_timing",
    "faulty_samples",
]
