"""CLI for the experiment suite (installed as ``repro-experiments``).

Examples::

    repro-experiments --list
    repro-experiments t1 f1 f4
    repro-experiments --all --quick --jobs 4
    repro-experiments --all --progress --json run.json

Runs go through :mod:`repro.experiments.engine`: ``--jobs N`` fans
independent experiments (or, for a single experiment, its batchable units)
over N worker processes with bit-identical output to ``--jobs 1``.  Every
run computes its results live and writes nothing but the artifacts asked
for.  A failing experiment no longer aborts the run: every requested id
executes and failures are reported together at exit.

Telemetry (:mod:`repro.obs`): ``--trace PATH`` exports the run's span
timeline (``--trace-format jsonl`` for JSON lines, ``chrome`` for a
``chrome://tracing``/Perfetto-loadable file) and ``--metrics PATH`` writes
the metrics-registry snapshot plus the run manifest.  Both are artifacts
*about* the run; rendered tables stay byte-identical with telemetry on or
off, at any ``--jobs`` value.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Optional, Sequence

import numpy as np

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.common import ExperimentConfig
from repro.experiments.engine import ExperimentOutcome, ProgressEvent, run_experiments
from repro.mote.platform import MICAZ_LIKE, TELOSB_LIKE
from repro.obs import (
    MetricsRegistry,
    Tracer,
    metrics_active,
    tracing,
    write_chrome_trace,
    write_jsonl,
    write_metrics,
)
from repro.obs.counters import HardwareCounters, counters_active, format_counters
from repro.obs.manifest import build_manifest

__all__ = ["main"]

_PLATFORMS = {"micaz": MICAZ_LIKE, "telosb": TELOSB_LIKE}


def _json_default(value: Any) -> Any:
    """Make numpy scalars/arrays JSON-safe (experiment series contain them)."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Run the Code Tomography reproduction's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help=f"experiment ids to run (known: {', '.join(sorted(ALL_EXPERIMENTS))})",
    )
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument("--list", action="store_true", help="list experiment ids and exit")
    parser.add_argument(
        "--quick", action="store_true", help="shrink sample counts ~10x for a fast pass"
    )
    parser.add_argument(
        "--platform",
        choices=sorted(_PLATFORMS),
        default="micaz",
        help="mote platform preset (default: micaz)",
    )
    parser.add_argument("--seed", type=int, default=2015, help="experiment RNG seed")
    parser.add_argument(
        "--activations", type=int, default=3000, help="profiling activations per run"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes; output is bit-identical at any N (default: 1)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-experiment scheduling/timing lines to stderr",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        dest="json_path",
        help="write a structured run report (results, timings, failures) to PATH",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        dest="trace_path",
        help="export the run's span timeline to PATH (see --trace-format)",
    )
    parser.add_argument(
        "--trace-format",
        choices=("jsonl", "chrome"),
        default="jsonl",
        help="trace export format: JSON lines or Chrome trace_event "
        "(chrome://tracing / Perfetto); default: jsonl",
    )
    parser.add_argument(
        "--metrics",
        type=Path,
        default=None,
        metavar="PATH",
        dest="metrics_path",
        help="write the metrics-registry snapshot (+ run manifest) to PATH",
    )
    parser.add_argument(
        "--counters",
        action="store_true",
        help="enable mote hardware-counter telemetry; prints the aggregated "
        "counter table after the experiments (and embeds the snapshot in "
        "--metrics output). Rendered experiment tables are unaffected.",
    )
    return parser


def _progress_printer(event: ProgressEvent) -> None:
    if event.kind == "start":
        print(f"[{event.experiment_id}] started", file=sys.stderr)
    elif event.kind == "failed":
        print(
            f"[{event.experiment_id}] FAILED after {event.seconds:.1f}s "
            f"({event.completed}/{event.total}): {event.error}",
            file=sys.stderr,
        )
    else:
        print(
            f"[{event.experiment_id}] done in {event.seconds:.1f}s "
            f"({event.completed}/{event.total})",
            file=sys.stderr,
        )


def _report_payload(
    outcomes: Sequence[ExperimentOutcome],
    args: argparse.Namespace,
    wall_seconds: float,
    registry: MetricsRegistry,
) -> dict:
    """The ``--json`` run report: config echo + per-experiment outcomes.

    Per-experiment wall-clock comes from the metrics registry (the engine
    records it there on every run), so the report and the ``--metrics``
    artifact can never tell different stories.
    """
    gauges = registry.snapshot()["gauges"]
    return {
        "config": {
            "platform": args.platform,
            "activations": args.activations,
            "seed": args.seed,
            "quick": args.quick,
            "jobs": args.jobs,
        },
        "wall_seconds": wall_seconds,
        "wall_seconds_by_experiment": {
            key.removeprefix("engine.wall_seconds."): value
            for key, value in gauges.items()
            if key.startswith("engine.wall_seconds.")
        },
        "experiments": [
            {
                "id": o.experiment_id,
                "ok": o.ok,
                "seconds": o.seconds,
                "error": o.error,
                "failed_unit": o.failed_unit,
                "traceback": o.traceback,
                "title": o.result.title if o.result else None,
                "tables": (
                    [
                        {
                            "title": t.title,
                            "columns": list(t.columns),
                            "rows": [list(r) for r in t.rows],
                        }
                        for t in o.result.tables
                    ]
                    if o.result
                    else []
                ),
                "series": o.result.series if o.result else {},
                "notes": o.result.notes if o.result else [],
                "timings": o.result.timings if o.result else {},
            }
            for o in outcomes
        ],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.list:
        for exp_id in sorted(ALL_EXPERIMENTS):
            print(exp_id)
        return 0

    ids = sorted(ALL_EXPERIMENTS) if args.all else list(args.experiments)
    if not ids:
        print("nothing to run; pass experiment ids, --all, or --list", file=sys.stderr)
        return 2
    unknown = [i for i in ids if i not in ALL_EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment id(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(ALL_EXPERIMENTS))})",
            file=sys.stderr,
        )
        return 2
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    for flag, path in (
        ("--json", args.json_path),
        ("--trace", args.trace_path),
        ("--metrics", args.metrics_path),
    ):
        if path is not None and not path.parent.is_dir():
            # Catch the typo'd path before hours of compute, not after.
            print(f"{flag}: directory does not exist: {path.parent}", file=sys.stderr)
            return 2

    config = ExperimentConfig(
        platform=_PLATFORMS[args.platform],
        activations=args.activations,
        seed=args.seed,
        quick=args.quick,
    )
    # The registry is always live (it feeds --json's wall-clock block);
    # span capture — the part with per-unit buffers — only turns on when an
    # artifact was requested.
    registry = MetricsRegistry()
    tracer = Tracer() if args.trace_path is not None else None
    observe = args.trace_path is not None or args.metrics_path is not None
    hw = HardwareCounters() if args.counters else None
    started = time.perf_counter()
    with contextlib.ExitStack() as stack:
        stack.enter_context(metrics_active(registry))
        if tracer is not None:
            stack.enter_context(tracing(tracer))
        if hw is not None:
            stack.enter_context(counters_active(hw))
        outcomes = run_experiments(
            ids,
            config,
            jobs=args.jobs,
            progress=_progress_printer if args.progress else None,
            observe=observe,
            counters=args.counters,
        )
    wall = time.perf_counter() - started
    hw_snapshot = hw.snapshot() if hw is not None else None

    for outcome in outcomes:
        if not outcome.ok:
            continue
        print(outcome.result.render())
        print(f"[{outcome.experiment_id} finished in {outcome.seconds:.1f}s]")
        if args.progress and outcome.result.timings:
            for stage_name in sorted(outcome.result.timings):
                seconds = outcome.result.timings[stage_name]
                print(
                    f"  [{outcome.experiment_id}] {stage_name}: {seconds:.2f}s",
                    file=sys.stderr,
                )
        print()

    report_error = None
    if args.json_path is not None:
        try:
            args.json_path.write_text(
                json.dumps(
                    _report_payload(outcomes, args, wall, registry),
                    indent=2,
                    default=_json_default,
                )
                + "\n"
            )
        except OSError as exc:
            report_error = f"--json: could not write {args.json_path}: {exc}"
            print(report_error, file=sys.stderr)

    if observe:
        manifest = build_manifest(config, ids, outcomes)
        if args.trace_path is not None:
            try:
                if args.trace_format == "chrome":
                    write_chrome_trace(args.trace_path, tracer.spans, manifest)
                else:
                    write_jsonl(args.trace_path, tracer.spans, manifest)
            except OSError as exc:
                report_error = f"--trace: could not write {args.trace_path}: {exc}"
                print(report_error, file=sys.stderr)
        if args.metrics_path is not None:
            try:
                write_metrics(
                    args.metrics_path,
                    registry,
                    manifest,
                    hardware_counters=hw_snapshot,
                )
            except OSError as exc:
                report_error = f"--metrics: could not write {args.metrics_path}: {exc}"
                print(report_error, file=sys.stderr)

    if hw_snapshot is not None:
        print(format_counters(hw_snapshot))
        print()

    failures = [o for o in outcomes if not o.ok]
    print(
        f"{len(outcomes) - len(failures)}/{len(outcomes)} experiments ok "
        f"in {wall:.1f}s"
    )
    if failures:
        for outcome in failures:
            where = (
                f" (unit {outcome.failed_unit})" if outcome.failed_unit is not None else ""
            )
            print(
                f"{outcome.experiment_id}: failed{where}: {outcome.error}",
                file=sys.stderr,
            )
            if outcome.traceback:
                print(outcome.traceback.rstrip(), file=sys.stderr)
        return 1
    return 1 if report_error else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
