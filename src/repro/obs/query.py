"""Offline telemetry queries: span forests, self-time, flamegraphs, joins.

Every artifact the observability stack emits — JSONL span traces, metrics
snapshots with embedded run manifests and hardware counters, counter
snapshots — is append-time cheap and read-time mute: until this module,
nothing in the repo could aggregate, walk or visualize any of it.  This is
the read side.  It is strictly **offline**: nothing here runs inside an
instrumented region, so the <5% telemetry-overhead gate and the engine's
bit-identity guarantees are untouched by construction.

The pipeline:

* :func:`load_trace` parses a JSONL trace (versioned ``repro.trace/1``
  streams and legacy headerless ones) into a :class:`TraceForest` — one
  span tree per ``(pid, tid)`` track, with nesting reconstructed from the
  recorded open order (``seq``) and depth, never from wall-clock (adopted
  worker spans keep foreign epochs, so interval math is a trap the
  exporter documents).
* :func:`aggregate` rolls the forest up by span name: call count,
  inclusive wall-clock, and **exclusive self time** (inclusive minus
  direct children) — the quantity a sampling profiler would report.
* :func:`critical_path` walks the heaviest chain root → leaf, the spine a
  regression most likely lives on.
* :func:`to_collapsed` / :func:`parse_collapsed` export/import Brendan
  Gregg's collapsed-stack flamegraph format, round-trippable: parsing the
  export and re-aggregating reproduces the exact per-stack totals.
* :func:`load_run` joins a trace with its ``--metrics`` artifact (registry
  snapshot, hardware counters, manifest) into one :class:`RunBundle`,
  keyed by the run manifest's config fingerprints so a mismatched pairing
  is caught instead of silently attributed.

Everything is deterministic: identical input files produce identical
structures, orderings and rendered text, regardless of thread count
(:mod:`repro.obs.compare` leans on this for byte-identical reports).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Optional, Union

from repro.errors import ObsError
from repro.obs.validate import (
    METRICS_FILE,
    SPAN,
    TRACE_HEADER,
    TRACE_RECORD,
    ArtifactError,
    check,
    read_json,
    read_jsonl,
)

__all__ = [
    "SpanNode",
    "TraceForest",
    "RunBundle",
    "load_trace",
    "load_run",
    "aggregate",
    "critical_path",
    "to_collapsed",
    "parse_collapsed",
    "format_aggregate",
    "format_critical_path",
]


@dataclass
class SpanNode:
    """One span in the reconstructed tree.

    ``inclusive`` is the span's own wall-clock; ``exclusive`` subtracts the
    direct children's inclusive time (clamped at zero — float subtraction
    of near-equal timestamps can go an ULP negative).
    """

    name: str
    start: float
    end: float
    depth: int
    seq: int
    pid: int
    tid: int
    attrs: dict = field(default_factory=dict)
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def inclusive(self) -> float:
        return self.end - self.start

    @property
    def exclusive(self) -> float:
        return max(self.inclusive - sum(c.inclusive for c in self.children), 0.0)

    def walk(self) -> Iterator["SpanNode"]:
        """Depth-first, children in open (seq) order — deterministic."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class TraceForest:
    """A parsed trace: span trees per track plus the stream's identity."""

    roots: list[SpanNode]
    manifest: Optional[dict]
    schema: Optional[str]  # None for a legacy headerless stream
    spans: int

    def walk(self) -> Iterator[SpanNode]:
        for root in self.roots:
            yield from root.walk()

    @property
    def total_inclusive(self) -> float:
        """Wall-clock summed over root spans (tracks don't nest)."""
        return sum(root.inclusive for root in self.roots)

    def fingerprints(self) -> dict[str, str]:
        """Experiment id → config fingerprint from the embedded manifest."""
        return _manifest_fingerprints(self.manifest)


def _manifest_fingerprints(manifest: Optional[Mapping]) -> dict[str, str]:
    out = {}
    for exp_id, entry in ((manifest or {}).get("experiments") or {}).items():
        if isinstance(entry, Mapping) and entry.get("fingerprint"):
            out[exp_id] = entry["fingerprint"]
    return out


def load_trace(path: Union[str, Path]) -> TraceForest:
    """Parse a JSONL trace into a :class:`TraceForest`.

    Accepts both versioned streams (first line ``{"type": "header",
    "schema": "repro.trace/1"}``) and legacy headerless ones.  Each line is
    checked as it is parsed; a malformed record, an unknown header schema
    or a ``seq`` that does not increase is an
    :class:`~repro.obs.validate.ArtifactError` naming the line, not a guess.
    Nesting is rebuilt per ``(pid, tid)`` track from each span's recorded
    open order and depth: records sorted by ``seq`` replay the open
    sequence, and a span's parent is the deepest still-open span shallower
    than it.
    """
    path = Path(path)
    manifest: Optional[dict] = None
    schema: Optional[str] = None
    records: list[SpanNode] = []
    for index, (where, obj) in enumerate(read_jsonl(path)):
        check(obj, TRACE_RECORD, where)
        kind = obj["type"]
        if kind == "header":
            if index != 0:
                raise ArtifactError(f"{where}: header must be the first line")
            check(obj, TRACE_HEADER, where)
            schema = obj["schema"]
        elif kind == "manifest":
            if index != (1 if schema else 0):
                raise ArtifactError(
                    f"{where}: manifest must directly follow the header "
                    "(or open the stream in legacy traces)"
                )
            manifest = {k: v for k, v in obj.items() if k != "type"}
        else:
            check(obj, SPAN, where)
            if records and obj["seq"] <= records[-1].seq:
                raise ArtifactError(
                    f"{where}: seq {obj['seq']} not increasing "
                    f"(after {records[-1].seq})"
                )
            records.append(
                SpanNode(
                    name=obj["name"],
                    start=obj["start"],
                    end=obj["end"],
                    depth=obj["depth"],
                    seq=obj["seq"],
                    pid=obj["pid"],
                    tid=obj["tid"],
                    attrs=obj["attrs"],
                )
            )
    if not records:
        raise ArtifactError(f"{path.name}: contains no span records")

    # Group by track; replay each track's open order to rebuild nesting.
    tracks: dict[tuple[int, int], list[SpanNode]] = {}
    for node in records:
        tracks.setdefault((node.pid, node.tid), []).append(node)
    roots: list[SpanNode] = []
    for track in sorted(tracks):
        stack: list[SpanNode] = []
        for node in sorted(tracks[track], key=lambda n: n.seq):
            del stack[node.depth :]  # everything at >= this depth has closed
            parent = stack[-1] if stack else None
            (parent.children if parent is not None else roots).append(node)
            stack.append(node)
    # Root order follows open order within the first track and track order
    # across tracks; re-sort by (pid, tid, seq) for one global stable order.
    roots.sort(key=lambda n: (n.pid, n.tid, n.seq))
    return TraceForest(
        roots=roots, manifest=manifest, schema=schema, spans=len(records)
    )


# --------------------------------------------------------------------------
# Aggregation
# --------------------------------------------------------------------------


def aggregate(forest: TraceForest) -> list[dict]:
    """Per-span-name rollup, heaviest self time first.

    Each row: ``{"name", "count", "inclusive_s", "exclusive_s", "min_s",
    "max_s"}`` where the min/max are per-span inclusive durations.
    Ordering is total (descending exclusive, then name), so the table is
    byte-stable for identical inputs.
    """
    rows: dict[str, dict] = {}
    for node in forest.walk():
        row = rows.setdefault(
            node.name,
            {
                "name": node.name,
                "count": 0,
                "inclusive_s": 0.0,
                "exclusive_s": 0.0,
                "min_s": None,
                "max_s": None,
            },
        )
        row["count"] += 1
        row["inclusive_s"] += node.inclusive
        row["exclusive_s"] += node.exclusive
        row["min_s"] = (
            node.inclusive if row["min_s"] is None else min(row["min_s"], node.inclusive)
        )
        row["max_s"] = (
            node.inclusive if row["max_s"] is None else max(row["max_s"], node.inclusive)
        )
    return sorted(rows.values(), key=lambda r: (-r["exclusive_s"], r["name"]))


def critical_path(forest: TraceForest) -> list[dict]:
    """The heaviest chain from the heaviest root down to a leaf.

    At each level the walk descends into the child with the largest
    inclusive time (ties broken by open order, so the path is
    deterministic).  Each hop reports its share of the path root, which is
    where "the run is slow" turns into "this nesting level is slow".
    """
    if not forest.roots:
        return []
    head = max(forest.roots, key=lambda n: (n.inclusive, -n.seq))
    total = head.inclusive
    path = []
    node: Optional[SpanNode] = head
    while node is not None:
        path.append(
            {
                "name": node.name,
                "inclusive_s": node.inclusive,
                "exclusive_s": node.exclusive,
                "fraction_of_root": (node.inclusive / total) if total > 0 else 0.0,
                "depth": node.depth,
            }
        )
        node = (
            max(node.children, key=lambda c: (c.inclusive, -c.seq))
            if node.children
            else None
        )
    return path


# --------------------------------------------------------------------------
# Flamegraph (Brendan Gregg collapsed-stack format)
# --------------------------------------------------------------------------


def _frame(name: str) -> str:
    # ';' separates stack frames in the collapsed format; a span name
    # containing one would corrupt every downstream consumer.
    return name.replace(";", ":")


def to_collapsed(forest: TraceForest) -> str:
    """Export the forest as collapsed stacks: ``root;child;leaf <µs>``.

    The value is the stack's summed **exclusive** time in integer
    microseconds (the flamegraph convention: every sample is counted on
    exactly one stack, so stack values sum to total wall-clock).  Lines
    are sorted lexicographically; the output is byte-stable and
    round-trips through :func:`parse_collapsed` with identical totals.
    """
    stacks: dict[str, float] = {}

    def visit(node: SpanNode, prefix: str) -> None:
        stack = f"{prefix};{_frame(node.name)}" if prefix else _frame(node.name)
        stacks[stack] = stacks.get(stack, 0.0) + node.exclusive
        for child in node.children:
            visit(child, stack)

    for root in forest.roots:
        visit(root, "")
    lines = [
        f"{stack} {round(value * 1e6)}"
        for stack, value in sorted(stacks.items())
        if round(value * 1e6) > 0
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_collapsed(text: str) -> dict[str, int]:
    """Parse collapsed-stack text back to ``{stack: µs}``.

    Repeated stacks re-aggregate by summing — the same normalization
    :func:`to_collapsed` applies — so ``parse_collapsed(to_collapsed(f))``
    equals the exporter's internal totals exactly (they are integers by
    then; no float round-trip is involved).
    """
    stacks: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        stack, sep, value = line.rpartition(" ")
        if not sep or not stack:
            raise ObsError(f"collapsed-stack line {lineno}: no value field: {line!r}")
        try:
            count = int(value)
        except ValueError as exc:
            raise ObsError(
                f"collapsed-stack line {lineno}: value {value!r} is not an integer"
            ) from exc
        if count < 0:
            raise ObsError(f"collapsed-stack line {lineno}: negative value {count}")
        stacks[stack] = stacks.get(stack, 0) + count
    return stacks


# --------------------------------------------------------------------------
# Run joins (trace × metrics × counters, keyed by manifest fingerprints)
# --------------------------------------------------------------------------


@dataclass
class RunBundle:
    """One run's joined artifacts: the span forest plus its metrics file."""

    forest: Optional[TraceForest]
    metrics: Optional[dict]  # the registry snapshot ({counters, gauges, ...})
    manifest: Optional[dict]
    hw_counters: Optional[dict]  # repro.hwcounters/1 snapshot, if captured

    def fingerprints(self) -> dict[str, str]:
        trace_prints = self.forest.fingerprints() if self.forest else {}
        return trace_prints or _manifest_fingerprints(self.manifest)


def load_run(
    trace: Optional[Union[str, Path]] = None,
    metrics: Optional[Union[str, Path]] = None,
) -> RunBundle:
    """Join a run's trace and metrics artifacts into one :class:`RunBundle`.

    Either artifact may be absent.  When both are present and both carry a
    manifest, their config fingerprints must agree on every shared
    experiment id — a mismatch means the files came from different runs,
    and joining them would attribute one run's counters to another run's
    spans; that is an :class:`ObsError`, not a warning.  The metrics file
    is checked against :data:`repro.obs.validate.METRICS_FILE`.
    """
    if trace is None and metrics is None:
        raise ObsError("load_run needs a trace artifact, a metrics artifact, or both")
    forest = load_trace(trace) if trace is not None else None
    metrics_snapshot = manifest = hw = None
    if metrics is not None:
        payload = read_json(metrics, METRICS_FILE)
        metrics_snapshot = payload["metrics"]
        manifest = payload.get("manifest")
        hw = payload.get("hardware_counters")
    if forest is not None and forest.manifest and manifest:
        trace_prints = _manifest_fingerprints(forest.manifest)
        metrics_prints = _manifest_fingerprints(manifest)
        for exp_id in sorted(trace_prints.keys() & metrics_prints.keys()):
            if trace_prints[exp_id] != metrics_prints[exp_id]:
                raise ObsError(
                    f"trace and metrics artifacts disagree on the config "
                    f"fingerprint of experiment {exp_id!r} "
                    f"({trace_prints[exp_id]} vs {metrics_prints[exp_id]}); "
                    "they are not from the same run"
                )
    return RunBundle(
        forest=forest,
        metrics=metrics_snapshot,
        manifest=manifest if manifest is not None else (forest.manifest if forest else None),
        hw_counters=hw,
    )


# --------------------------------------------------------------------------
# Terminal renders (deterministic text tables)
# --------------------------------------------------------------------------


def _fmt_s(seconds: float) -> str:
    return f"{seconds:.6f}"


def format_aggregate(rows: list[dict], top: Optional[int] = None) -> str:
    """Text table of an :func:`aggregate` rollup (self-time ordered)."""
    rows = rows[:top] if top is not None else rows
    if not rows:
        return "(no spans)"
    width = max(len(r["name"]) for r in rows)
    lines = [
        "span".ljust(width)
        + f"  {'count':>7}  {'self_s':>12}  {'incl_s':>12}  {'max_s':>12}"
    ]
    for row in rows:
        lines.append(
            row["name"].ljust(width)
            + f"  {row['count']:>7}"
            + f"  {_fmt_s(row['exclusive_s']):>12}"
            + f"  {_fmt_s(row['inclusive_s']):>12}"
            + f"  {_fmt_s(row['max_s']):>12}"
        )
    return "\n".join(lines)


def format_critical_path(path_rows: list[dict]) -> str:
    """Text render of a :func:`critical_path` walk (one hop per line)."""
    if not path_rows:
        return "(no spans)"
    lines = ["critical path (heaviest chain, root -> leaf):"]
    for row in path_rows:
        indent = "  " * (row["depth"] + 1)
        lines.append(
            f"{indent}{row['name']}  incl {_fmt_s(row['inclusive_s'])}s  "
            f"self {_fmt_s(row['exclusive_s'])}s  "
            f"({row['fraction_of_root']:.1%} of root)"
        )
    return "\n".join(lines)
