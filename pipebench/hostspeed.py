"""How much slower than its reference speed the host runs right now.

On a shared 2-vCPU host the speed of Python code swings on its own: the
probe kernel below reads about 1.3 ms in one state and 2.4 ms in another,
switching over seconds to minutes, with steal time near 0.  A slow phase
that outlasts a run shifts every timing of that run, and no estimator over
the run's own passes removes it.  So the benchmark probes the host between
layer calls and divides each call's wall time by the host's slowdown
around it (:func:`corrected`).  The correction depends only on the host,
not on the code under test, so a change that makes a call faster reads
faster by the same share at any host speed.
"""

from __future__ import annotations

import math
import time

__all__ = ["REFERENCE_S", "corrected", "slowdown"]

#: Probe seconds at the reference speed: the median probe reading on the
#: 2-vCPU Xeon host the bounds were measured on.  Corrected timings read
#: as wall seconds at that speed.
REFERENCE_S = 0.0058

#: Kernel repeats per probe reading.
REPEATS = 3


def _interpret(steps: int = 12_000) -> int:
    """A small register machine: dict loads and stores, integer arithmetic
    and branches, the mix the mote interpreter spends its time on."""
    registers = {"a": 1, "b": 2, "c": 3}
    acc = 0
    for step in range(steps):
        op = step & 3
        if op == 0:
            registers["a"] = (registers["a"] + step) & 0xFFFF
        elif op == 1:
            registers["b"] ^= registers["a"]
        elif op == 2:
            acc += registers["c"] * 3 % 7
        else:
            registers["c"] = (registers["c"] + acc) & 0xFF
    return acc


def slowdown() -> float:
    """The host's slowdown now: probe seconds over :data:`REFERENCE_S`."""
    started = time.perf_counter()
    for _ in range(REPEATS):
        _interpret()
    return (time.perf_counter() - started) / REFERENCE_S


def corrected(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time at the reference speed, given the slowdown
    read just before and just after it."""
    return seconds / math.sqrt(before * after)
