"""Mote hardware-counter telemetry: what a real MCU's counters would see.

The paper contrasts profiling schemes by *what they can observe on the
mote*; this module gives the simulated mote the same observability a
hardware-performance-counter unit would — cycles by instruction class,
branch outcomes and mispredictions (split by direction and by target
placement), flash block fetches, radio transmission attempts and energy,
sensor reads, timer reads with their quantization-error budget, and
scheduler activity — exported as first-class telemetry instead of being
recomputed ad hoc by every experiment.

Design follows the :mod:`repro.obs` house rules:

* **Zero-cost-when-off.**  Instrumented sites read the module-level
  :data:`_ACTIVE` slot (via :func:`active`) and return immediately when no
  registry is installed: no allocation, no locking, no RNG draws, no
  effect on any rendered table.  The enabled path is plain dict arithmetic.
* **Mergeable snapshots.**  :meth:`HardwareCounters.snapshot` produces a
  plain-JSON dict, and :meth:`HardwareCounters.merge_snapshot` adds one
  into a registry (integer sums, so the order of merges cannot change an
  integer counter) — what the engine's deterministic merge leans on.
  :func:`snapshot_deltas` compares the snapshots of two runs.
* **Per-procedure attribution.**  Each procedure's row holds its
  *exclusive* (self) counts, so the per-procedure table answers "where did
  the cycles go" the same way a sampling profiler would.

CPU-side counters (cycle classes, flash fetches, branch outcomes and
predictions, the per-procedure rows) and ``sensor.reads`` are not counted
event by event: the interpreter keeps only its ground-truth execution
counts and, when a driver reports
(:meth:`repro.sim.interpreter.Interpreter.report_counters`), prices them
through the layout's compiled weights and merges the result here.
``invocations`` therefore counts completed invocations.  The other
peripheral counters (radio, sensor dropouts, timer, scheduler) are added
as their events happen.

Scoping: :func:`counters_active` installs a registry for the ``with``
body.  By default a nested registry *folds its counts into the outer one
on exit*, so a caller can take a clean per-run delta (F4 does this per
placement strategy) without hiding those events from an ambient
experiment- or CLI-level registry.  Capture boundaries that ship
snapshots across processes (the engine's per-unit and per-experiment
capture) pass ``isolated=True`` and merge explicitly, in request order.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Mapping, Optional, Union

from repro.errors import ObsError

__all__ = [
    "SNAPSHOT_SCHEMA",
    "FLOAT_COUNTER_RTOL",
    "HardwareCounters",
    "active",
    "counters_active",
    "snapshot_deltas",
    "counter_group",
    "total_cycles",
    "branches_executed",
    "mispredict_total",
    "mispredict_rate",
    "taken_rate",
    "dynamic_edges",
    "invocations_total",
    "format_counters",
]

#: Schema tag carried by every snapshot (bumped on layout changes).
SNAPSHOT_SCHEMA = "repro.hwcounters/1"

#: Relative tolerance applied to float-valued counters (``radio.energy_uj``,
#: ``timer.quantization_error_cycles``) when two snapshots are compared.
#: Float addition is not associative, so merging the same events in a
#: different grouping (different ``--jobs``) can leave the accumulated
#: energy a few ULPs apart.  Integer counters stay exact.
FLOAT_COUNTER_RTOL = 1e-9

Number = Union[int, float]


def _float_noise(delta: Number, before: Number, after: Number) -> bool:
    """True when a float counter's delta is merge-order rounding, not signal."""
    if isinstance(delta, int):
        return False
    scale = max(abs(before), abs(after), 1.0)
    return abs(delta) <= FLOAT_COUNTER_RTOL * scale


class HardwareCounters:
    """One mote's hardware-counter register file.

    ``totals`` maps counter name to value; ``per_proc`` maps procedure name
    to its attribution row (``cycles``, ``invocations``, ``branches``,
    ``taken``, ``mispredicts`` — exclusive/self counts).  All counters are
    monotonically non-decreasing while the registry is installed.
    """

    __slots__ = ("totals", "per_proc")

    def __init__(self) -> None:
        self.totals: dict[str, Number] = {}
        self.per_proc: dict[str, dict[str, Number]] = {}

    def add(self, name: str, amount: Number = 1) -> None:
        """Increment total counter ``name`` (creating it at zero)."""
        totals = self.totals
        totals[name] = totals.get(name, 0) + amount

    # -- peripherals ---------------------------------------------------------

    def radio_tx(self, *, fate: str, payload_bytes: int) -> None:
        """One transmission attempt; ``fate`` is delivered/dropped/corrupted."""
        self.add("radio.tx_attempts")
        self.add(f"radio.tx_{fate}")
        self.add("radio.tx_bytes", payload_bytes)

    def radio_energy(self, uj: float) -> None:
        """Radio transmit energy in microjoules (priced by the caller)."""
        self.add("radio.energy_uj", uj)

    def sensor_dropout(self) -> None:
        self.add("sensor.dropouts")

    def timer_measure(self, *, ticks: int, quantization_error_cycles: float) -> None:
        """One two-read duration measurement on the timestamp timer."""
        self.add("timer.reads", 2)
        self.add("timer.ticks", ticks)
        self.add("timer.quantization_error_cycles", quantization_error_cycles)

    def sched_switch(self) -> None:
        self.add("sched.context_switches")

    def sched_post(self) -> None:
        self.add("sched.posts")

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-JSON view: ``{"schema", "totals", "per_proc"}``."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "totals": dict(self.totals),
            "per_proc": {name: dict(row) for name, row in self.per_proc.items()},
        }

    def merge_snapshot(self, snap: Mapping) -> None:
        """Fold a snapshot captured elsewhere into this registry (adds)."""
        _check_schema(snap)
        for name, value in snap.get("totals", {}).items():
            self.add(name, value)
        for proc, row in snap.get("per_proc", {}).items():
            mine = self.per_proc.setdefault(proc, {})
            for key, value in row.items():
                mine[key] = mine.get(key, 0) + value


# --------------------------------------------------------------------------
# Comparing snapshots (pure functions over plain dicts)
# --------------------------------------------------------------------------


def _check_schema(snap: Mapping) -> None:
    schema = snap.get("schema")
    if schema != SNAPSHOT_SCHEMA:
        raise ObsError(
            f"hardware-counter snapshot schema mismatch: "
            f"expected {SNAPSHOT_SCHEMA!r}, got {schema!r}"
        )


def counter_group(name: str) -> str:
    """The counter's group: its dotted prefix (``cycles``, ``radio``, ...).

    Attribution reports roll movers up by group so "F4 got slower" can be
    localized to *which subsystem* moved (instruction cycles, mispredicts,
    flash fetches, radio energy) before drilling into individual counters.
    """
    return name.split(".", 1)[0]


def snapshot_deltas(
    before: Mapping, after: Mapping, top: Optional[int] = None
) -> list[dict]:
    """Signed per-counter movement between two runs, biggest movers first.

    The snapshots come from two *different* runs, so deltas carry sign in
    both directions.  Float counters (``radio.energy_uj``) get the
    :data:`FLOAT_COUNTER_RTOL` treatment: merge-order rounding noise reads
    as exactly zero instead of ranking as a mover.

    Returns one row per moved counter::

        {"counter", "group", "before", "after", "delta", "relative"}

    ``relative`` is ``delta / before`` (``None`` for a counter that did not
    exist before).  The ordering is **stable and total**: descending by
    ``|delta|``, then ascending by counter name — two identical snapshot
    pairs always produce the identical row list, which is what makes
    attribution reports byte-reproducible.  ``top`` truncates to the N
    biggest movers.
    """
    _check_schema(before)
    _check_schema(after)
    rows = []
    b_totals = before.get("totals", {})
    a_totals = after.get("totals", {})
    for key in b_totals.keys() | a_totals.keys():
        b_val, a_val = b_totals.get(key, 0), a_totals.get(key, 0)
        delta = a_val - b_val
        if not delta or _float_noise(delta, b_val, a_val):
            continue
        rows.append(
            {
                "counter": key,
                "group": counter_group(key),
                "before": b_val,
                "after": a_val,
                "delta": delta,
                "relative": (delta / b_val) if b_val else None,
            }
        )
    rows.sort(key=lambda r: (-abs(r["delta"]), r["counter"]))
    return rows[:top] if top is not None else rows


# --------------------------------------------------------------------------
# Derived readings (the quantities experiments consume)
# --------------------------------------------------------------------------


def total_cycles(snap: Mapping) -> int:
    """Sum of every cycle class — equals the interpreter's cycle counter."""
    totals = snap.get("totals", {})
    return sum(totals.get(f"cycles.{cls}", 0) for cls in ("block", "jump", "branch", "return"))


def branches_executed(snap: Mapping) -> int:
    totals = snap.get("totals", {})
    return totals.get("branch.taken", 0) + totals.get("branch.not_taken", 0)


def mispredict_total(snap: Mapping) -> int:
    totals = snap.get("totals", {})
    return totals.get("branch.mispredict.taken", 0) + totals.get(
        "branch.mispredict.not_taken", 0
    )


def mispredict_rate(snap: Mapping) -> float:
    """Mispredicted fraction of executed branches (0.0 when none ran).

    Computed as the same integer division the ground-truth
    :class:`~repro.sim.trace.ExecutionCounters` performs, so the two
    sources agree bit for bit.
    """
    executed = branches_executed(snap)
    if executed == 0:
        return 0.0
    return mispredict_total(snap) / executed


def taken_rate(snap: Mapping) -> float:
    """Taken fraction of executed branches (0.0 when none ran)."""
    executed = branches_executed(snap)
    if executed == 0:
        return 0.0
    return snap.get("totals", {}).get("branch.taken", 0) / executed


def dynamic_edges(snap: Mapping) -> int:
    """CFG edges traversed: jump terminators plus branch executions."""
    return snap.get("totals", {}).get("control.jumps", 0) + branches_executed(snap)


def invocations_total(snap: Mapping) -> int:
    return sum(row.get("invocations", 0) for row in snap.get("per_proc", {}).values())


def format_counters(snap: Mapping) -> str:
    """Terminal-ready text table of a snapshot (sorted, deterministic)."""
    lines = ["== hardware counters =="]
    totals = snap.get("totals", {})
    if not totals:
        lines.append("(no events recorded)")
    else:
        width = max(len(name) for name in totals)
        for name in sorted(totals):
            value = totals[name]
            rendered = f"{value:.3f}" if isinstance(value, float) else str(value)
            lines.append(f"{name.ljust(width)}  {rendered}")
    per_proc = snap.get("per_proc", {})
    if per_proc:
        keys = ("invocations", "cycles", "branches", "taken", "mispredicts")
        lines.append("")
        lines.append("== per-procedure attribution (self counts) ==")
        width = max(len(name) for name in per_proc)
        header = "procedure".ljust(width) + "".join(f"  {k:>12}" for k in keys)
        lines.append(header)
        for proc in sorted(per_proc):
            row = per_proc[proc]
            lines.append(
                proc.ljust(width)
                + "".join(f"  {row.get(k, 0):>12}" for k in keys)
            )
    return "\n".join(lines)


# --------------------------------------------------------------------------
# The installed registry (one per process; workers install their own)
# --------------------------------------------------------------------------

_ACTIVE: Optional[HardwareCounters] = None


def active() -> Optional[HardwareCounters]:
    """The installed registry, or ``None`` when counters are off.

    This is the single enable flag: every emission site in the mote model
    and the simulation drivers reads it and bails out on ``None`` before
    doing any work at all.
    """
    return _ACTIVE


@contextmanager
def counters_active(
    hc: HardwareCounters, isolated: bool = False
) -> Iterator[HardwareCounters]:
    """Install ``hc`` as the process-wide registry for the ``with`` body.

    On exit the previous registry is restored and — unless ``isolated`` —
    ``hc``'s counts fold into it, so nested scopes take clean deltas
    without losing events from the outer aggregate.  Capture boundaries
    that ship snapshots to a parent process (and merge them explicitly in
    deterministic order) pass ``isolated=True`` to avoid double counting.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = hc
    try:
        yield hc
    finally:
        _ACTIVE = previous
        if previous is not None and not isolated:
            previous.merge_snapshot(hc.snapshot())
