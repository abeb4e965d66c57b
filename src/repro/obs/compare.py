"""Regression attribution: explain *why* run B is slower than run A.

A bare threshold breach ("F1 got 23% slower") says that something moved,
not what.  Given two runs — span traces, metrics snapshots with
hardware-counter embeds, or two counter snapshots — this module produces
one deterministic attribution report (schema ``repro.obs-report/1``):

* **Span attribution** — per-span-name exclusive (self) wall-clock deltas,
  ranked by contribution to the total regression, so "the run grew 2.3s"
  localizes to "``sim.run`` self time grew 2.1×".
* **Counter attribution** — per-counter deltas (cycles by instruction
  class, mispredicts, flash fetches, radio µJ) with relative movement and
  a group rollup naming the responsible subsystem, plus per-procedure
  exclusive-cycle attribution from the interpreter's push/pop brackets.
* **Metrics attribution** — registry counter deltas and histogram mean
  shifts (the "EM iteration histogram shifted right" drill-down).

Reports are **byte-identical for identical inputs**: no timestamps, no
environment reads, all orderings total (primary key descending, name
ascending tie-break), rendered through ``json.dumps(sort_keys=True)``.
Loading may be parallelized (the CLI's ``--jobs``); analysis itself is
single-pass and order-free.
"""

from __future__ import annotations

import json
from typing import Mapping, Optional, Sequence

from repro.errors import ObsError
from repro.obs.counters import snapshot_deltas
from repro.obs.query import RunBundle, TraceForest, aggregate
from repro.obs.validate import OBS_REPORT_SCHEMA

__all__ = [
    "span_attribution",
    "counter_attribution",
    "metrics_attribution",
    "compare_runs",
    "format_movers",
    "format_report",
    "report_json",
]

def _share(delta: float, total_delta: float) -> Optional[float]:
    return (delta / total_delta) if total_delta else None


def span_attribution(
    before: TraceForest, after: TraceForest, top: Optional[int] = None
) -> list[dict]:
    """Per-span-name self-time deltas, ranked by contribution to the total.

    Rows carry both exclusive (the ranking key — self time is what a span
    *itself* got slower by) and inclusive deltas, call counts on both
    sides, and ``share``: this span's fraction of the total self-time
    movement.  Ordering: descending delta (regressions first), then name.
    """
    rows_a = {r["name"]: r for r in aggregate(before)}
    rows_b = {r["name"]: r for r in aggregate(after)}
    total_delta = sum(r["exclusive_s"] for r in rows_b.values()) - sum(
        r["exclusive_s"] for r in rows_a.values()
    )
    out = []
    for name in rows_a.keys() | rows_b.keys():
        a, b = rows_a.get(name), rows_b.get(name)
        self_a = a["exclusive_s"] if a else 0.0
        self_b = b["exclusive_s"] if b else 0.0
        delta = self_b - self_a
        out.append(
            {
                "span": name,
                "before_self_s": self_a,
                "after_self_s": self_b,
                "delta_s": delta,
                "ratio": (self_b / self_a) if self_a > 0 else None,
                "share": _share(delta, total_delta),
                "before_count": a["count"] if a else 0,
                "after_count": b["count"] if b else 0,
            }
        )
    out.sort(key=lambda r: (-r["delta_s"], r["span"]))
    return out[:top] if top is not None else out


def counter_attribution(
    before: Optional[Mapping],
    after: Optional[Mapping],
    top: Optional[int] = None,
) -> Optional[dict]:
    """Counter movers, group rollup and per-procedure cycle attribution.

    ``None`` when either side lacks a hardware-counter snapshot (an
    attribution report never invents data).  The group rollup ranks
    counter *groups* (``cycles``, ``branch``, ``flash``, ``radio``, ...)
    by their largest mover, which is the "name the responsible counter
    group" half of the explain contract.
    """
    if before is None or after is None:
        return None
    movers = snapshot_deltas(before, after)
    groups: dict[str, dict] = {}
    for row in movers:
        entry = groups.setdefault(
            row["group"],
            {
                "group": row["group"],
                "movers": 0,
                "top_counter": row["counter"],
                "top_delta": row["delta"],
                "top_relative": row["relative"],
            },
        )
        entry["movers"] += 1
        if abs(row["delta"]) > abs(entry["top_delta"]):
            entry.update(
                top_counter=row["counter"],
                top_delta=row["delta"],
                top_relative=row["relative"],
            )
    group_rows = sorted(
        groups.values(), key=lambda g: (-abs(g["top_delta"]), g["group"])
    )

    per_proc = []
    b_procs = before.get("per_proc", {})
    a_procs = after.get("per_proc", {})
    for proc in b_procs.keys() | a_procs.keys():
        cycles_b = b_procs.get(proc, {}).get("cycles", 0)
        cycles_a = a_procs.get(proc, {}).get("cycles", 0)
        if cycles_a == cycles_b:
            continue
        per_proc.append(
            {
                "procedure": proc,
                "before_cycles": cycles_b,
                "after_cycles": cycles_a,
                "delta_cycles": cycles_a - cycles_b,
                "relative": ((cycles_a - cycles_b) / cycles_b) if cycles_b else None,
            }
        )
    per_proc.sort(key=lambda r: (-abs(r["delta_cycles"]), r["procedure"]))
    return {
        "movers": movers[:top] if top is not None else movers,
        "groups": group_rows,
        "per_proc": per_proc[:top] if top is not None else per_proc,
    }


def metrics_attribution(
    before: Optional[Mapping], after: Optional[Mapping], top: Optional[int] = None
) -> Optional[dict]:
    """Registry-level deltas: counter movement and histogram mean shifts.

    The histogram rows are the drill-down from "this span grew" to "the EM
    iteration histogram shifted": a mean moving right at similar count is
    more work per fit, a count moving at similar mean is more fits.
    """
    if before is None or after is None:
        return None
    counter_rows = []
    b_counters = before.get("counters", {})
    a_counters = after.get("counters", {})
    for name in b_counters.keys() | a_counters.keys():
        b_val, a_val = b_counters.get(name, 0), a_counters.get(name, 0)
        if a_val == b_val:
            continue
        counter_rows.append(
            {
                "counter": name,
                "before": b_val,
                "after": a_val,
                "delta": a_val - b_val,
                "relative": ((a_val - b_val) / b_val) if b_val else None,
            }
        )
    counter_rows.sort(key=lambda r: (-abs(r["delta"]), r["counter"]))

    hist_rows = []
    b_hists = before.get("histograms", {})
    a_hists = after.get("histograms", {})
    for name in sorted(b_hists.keys() & a_hists.keys()):
        hb, ha = b_hists[name], a_hists[name]
        mean_b = (hb["sum"] / hb["count"]) if hb.get("count") else 0.0
        mean_a = (ha["sum"] / ha["count"]) if ha.get("count") else 0.0
        if mean_a == mean_b and hb.get("count") == ha.get("count"):
            continue
        hist_rows.append(
            {
                "histogram": name,
                "before_mean": mean_b,
                "after_mean": mean_a,
                "delta_mean": mean_a - mean_b,
                "before_count": hb.get("count", 0),
                "after_count": ha.get("count", 0),
            }
        )
    hist_rows.sort(key=lambda r: (-abs(r["delta_mean"]), r["histogram"]))
    return {
        "counters": counter_rows[:top] if top is not None else counter_rows,
        "histograms": hist_rows[:top] if top is not None else hist_rows,
    }


def _total_block(before_s: float, after_s: float) -> dict:
    return {
        "before_s": before_s,
        "after_s": after_s,
        "delta_s": after_s - before_s,
        "relative": ((after_s - before_s) / before_s) if before_s > 0 else None,
    }


def compare_runs(
    before: RunBundle, after: RunBundle, top: Optional[int] = None
) -> dict:
    """Attribution report for two joined runs (trace ± metrics ± counters).

    Sections appear only when both sides carry the data (spans need both
    traces; counters need both snapshots).  A config-fingerprint mismatch
    between the runs is *noted*, not fatal: comparing across commits or
    configs is the normal regression workflow, the reader just has to know
    the baseline differs.
    """
    notes: list[str] = []
    prints_a, prints_b = before.fingerprints(), after.fingerprints()
    for exp_id in sorted(prints_a.keys() & prints_b.keys()):
        if prints_a[exp_id] != prints_b[exp_id]:
            notes.append(
                f"config fingerprint of {exp_id!r} differs between runs; "
                "the workloads are not identical"
            )
    spans = None
    total = None
    if before.forest is not None and after.forest is not None:
        spans = span_attribution(before.forest, after.forest, top=top)
        total = _total_block(
            before.forest.total_inclusive, after.forest.total_inclusive
        )
    counters = counter_attribution(before.hw_counters, after.hw_counters, top=top)
    metrics = metrics_attribution(before.metrics, after.metrics, top=top)
    if spans is None and counters is None and metrics is None:
        raise ObsError(
            "nothing to compare: the two runs share no artifact kind "
            "(need traces on both sides, or counter/metrics snapshots on both)"
        )
    return {
        "schema": OBS_REPORT_SCHEMA,
        "kind": "runs",
        "total": total,
        "spans": spans,
        "counters": counters,
        "metrics": metrics,
        "notes": notes,
    }


# --------------------------------------------------------------------------
# Renders
# --------------------------------------------------------------------------


def report_json(report: Mapping) -> str:
    """The report's canonical byte form (sorted keys, trailing newline)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _pct(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:+.1%}"


def format_movers(rows: Sequence[Mapping]) -> list[str]:
    """One ``  name: before -> after (delta, relative)`` line per mover row.

    The single rendering of a counter-mover row, shared by the attribution
    table, ``repro-obs diff-counters`` and ``repro-obs health``'s "top
    moved counters" section.
    """
    lines = []
    for row in rows:
        delta = row["delta"]
        rendered = f"{delta:+.3f}" if isinstance(delta, float) else f"{delta:+d}"
        lines.append(
            f"  {row['counter']}: {row['before']} -> {row['after']} "
            f"({rendered}, {_pct(row['relative'])})"
        )
    return lines


def format_report(report: Mapping, top: int = 10) -> str:
    """Terminal attribution table: ranked movers, worst offenders first."""
    lines = ["== attribution report =="]
    total = report.get("total")
    if total:
        lines.append(
            f"total: {total['before_s']:.6f}s -> {total['after_s']:.6f}s "
            f"({_pct(total['relative'])})"
        )
    spans = report.get("spans")
    if spans:
        lines.append("")
        lines.append("span self-time movers (ranked by contribution):")
        for row in spans[:top]:
            ratio = "-" if row["ratio"] is None else f"{row['ratio']:.2f}x"
            lines.append(
                f"  {row['span']}: {row['before_self_s']:.6f}s -> "
                f"{row['after_self_s']:.6f}s ({ratio}, share {_pct(row['share'])}, "
                f"calls {row['before_count']} -> {row['after_count']})"
            )
    counters = report.get("counters")
    if counters:
        if counters["groups"]:
            lines.append("")
            lines.append("counter groups (by largest mover):")
            for row in counters["groups"][:top]:
                rendered = (
                    f"{row['top_delta']:+.3f}"
                    if isinstance(row["top_delta"], float)
                    else f"{row['top_delta']:+d}"
                )
                lines.append(
                    f"  {row['group']}: top mover {row['top_counter']} "
                    f"{rendered} ({_pct(row['top_relative'])}), "
                    f"{row['movers']} counter(s) moved"
                )
        if counters["per_proc"]:
            lines.append("")
            lines.append("per-procedure exclusive cycles:")
            for row in counters["per_proc"][:top]:
                lines.append(
                    f"  {row['procedure']}: {row['before_cycles']} -> "
                    f"{row['after_cycles']} ({_pct(row['relative'])})"
                )
    metrics = report.get("metrics")
    if metrics:
        if metrics["histograms"]:
            lines.append("")
            lines.append("histogram shifts (mean):")
            for row in metrics["histograms"][:top]:
                lines.append(
                    f"  {row['histogram']}: mean {row['before_mean']:.4f} -> "
                    f"{row['after_mean']:.4f}, count {row['before_count']} -> "
                    f"{row['after_count']}"
                )
        if metrics["counters"]:
            lines.append("")
            lines.append("pipeline metric movers:")
            lines.extend(format_movers(metrics["counters"][:top]))
    for note in report.get("notes") or []:
        lines.append("")
        lines.append(f"note: {note}")
    return "\n".join(lines)
