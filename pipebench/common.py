"""What both workload families share: the platform, the evaluation size, and
placing, evaluating and scoring one program's estimates.

The loops and serve-ingest judge estimates the same way: place the program
from its thetas, run it on fresh inputs under a ``HardwareCounters``
registry, and pool accuracy, mispredicts, cycles and ROM over the six
programs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

# repro.sim first: importing repro.profiling before it fails with a
# circular ImportError through repro.faults.
from repro.sim import run_program_batched
from repro.mote.platform import MICAZ_LIKE
from repro.obs import counters as hwc
from repro.placement import optimize_refined_program_layout, program_layout_rom
from repro.workloads.inputs import build_sensors

__all__ = [
    "ACTIVATIONS",
    "DEPLOYMENT_SEED",
    "PLATFORM",
    "Scored",
    "place_and_evaluate",
    "quality",
    "same_thetas",
    "theta_problems",
    "untimed",
]

PLATFORM = MICAZ_LIKE

#: The experiments' full size: profiled activations per program in the
#: loops, and evaluation activations per program everywhere.
ACTIVATIONS = 3000

#: Evaluation batches, as experiment F4 runs them.
EVAL_BATCH = 8

#: The experiments' seed: the fixed deployment every workload profiles.
DEPLOYMENT_SEED = 2015


@dataclass
class Scored:
    """One program's estimates, the truth behind them, and what they bought."""

    name: str
    thetas: dict[str, np.ndarray]
    truth: dict[str, np.ndarray]
    rom_bytes: int
    counters: dict


@contextmanager
def untimed(name: str):
    """A stand-in for the run's call timer where a call is not measured."""
    yield


def place_and_evaluate(program, thetas, channels, seed: int, timed) -> tuple[int, dict]:
    """Place ``program`` from ``thetas`` and run it on fresh inputs.

    ``timed(span)`` wraps the placement and the evaluation call (the run's
    call timer, or :func:`untimed`).  Returns the layout's ROM bytes and the
    evaluation's counter snapshot.  The inputs come from ``seed + 1000``, as
    experiment F4 draws them.
    """
    with timed("bench.placement.place"):
        layout = optimize_refined_program_layout(program, thetas, PLATFORM)
    with timed("bench.sim.evaluate"):
        with hwc.counters_active(hwc.HardwareCounters()) as hw:
            run_program_batched(
                program,
                PLATFORM,
                partial(build_sensors, dict(channels), "default"),
                activations=ACTIVATIONS,
                batch_size=EVAL_BATCH,
                rng=seed + 1000,
                layout=layout,
            )
    return program_layout_rom(layout, PLATFORM.memory).total_bytes, hw.snapshot()


def quality(scored: list[Scored]) -> dict[str, float]:
    """The exact metrics, pooled over programs: per-branch theta MAE against
    the truth, mispredicts per branch, cycles per activation, and ROM."""
    estimates, truths = [], []
    for one in scored:
        for name, truth in one.truth.items():
            estimates.extend(np.asarray(one.thetas[name], dtype=float).tolist())
            truths.extend(np.asarray(truth, dtype=float).tolist())
    mispredicts = sum(hwc.mispredict_total(one.counters) for one in scored)
    branches = sum(hwc.branches_executed(one.counters) for one in scored)
    cycles = sum(hwc.total_cycles(one.counters) for one in scored)
    return {
        "theta_mae": float(np.mean(np.abs(np.subtract(estimates, truths)))),
        "mispredict_rate": mispredicts / branches,
        "cycles_per_activation": cycles / (ACTIVATIONS * len(scored)),
        "layout_rom_bytes": sum(one.rom_bytes for one in scored),
    }


def theta_problems(label: str, thetas: dict) -> list[str]:
    """Every theta vector of ``thetas`` that is not finite or leaves [0, 1]."""
    problems = []
    for name, theta in thetas.items():
        theta = np.asarray(theta, dtype=float)
        if not np.all(np.isfinite(theta)) or np.any((theta < 0) | (theta > 1)):
            problems.append(f"{label}/{name}: theta outside [0, 1]: {theta}")
    return problems


def same_thetas(a: dict, b: dict) -> bool:
    """Bit-for-bit equal estimates."""
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)
