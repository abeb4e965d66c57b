"""CLI for the ingestion service (installed as ``repro-serve``).

Examples::

    repro-serve --tenants 2 --motes 50 --shards 2          # bounded burst
    repro-serve --tenants 6 --motes 100 --shards 10 --workers 4 --json run.json
    repro-serve --tenants 2 --motes 100 --shards 1 \\
        --check-throughput 1000 --check-p99-ms 250         # CI gate
    repro-serve --tenants 2 --motes 20 --shards 2 \\
        --trace serve_trace.jsonl --metrics serve_metrics.json
    repro-serve --tenants 1 --motes 8 --shards 40 --samples-per-proc 20 \\
        --health --drift-at-shard 20 --alert-log alerts.jsonl  # drift drill

The command builds a simulated fleet (:func:`repro.serve.loadgen.default_fleet`
over the six benchmark workloads), drives it through an in-process
:class:`~repro.serve.service.IngestionService`, and prints sustained
throughput plus ingest-latency percentiles.  ``--check-throughput`` /
``--check-p99-ms`` turn the run into a pass/fail gate (exit 1 on miss).

Telemetry mirrors ``repro-experiments``: ``--trace PATH`` exports the span
timeline (``serve.ingest`` / ``serve.absorb`` / ``serve.query`` spans),
``--metrics PATH`` writes the metrics snapshot with the service's stats
embedded under the ``serve`` key (shape:
:data:`repro.obs.validate.SERVE_STATS`; ``repro-obs check`` checks it).

``--health`` attaches an estimator-health monitor to every tenant: drift
detectors and a CI-calibration audit run alongside absorption, per-tenant
summaries land in the stats payload (and ``--metrics`` gains a ``health``
report), and ``--alert-log PATH`` exports every alert as JSONL.
``--drift-at-shard N`` injects a mid-stream regime change — the drill the
detectors are supposed to catch (``repro-obs health --check
--expect-drift`` gates on it in CI).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.faults.model import FaultModel
from repro.obs import (
    MetricsRegistry,
    Tracer,
    metrics_active,
    tracing,
    write_chrome_trace,
    write_jsonl,
    write_metrics,
)
from repro.obs.health import build_health_report, write_alert_log
from repro.profiling.budget import SampleBudget
from repro.serve.loadgen import FleetReport, default_fleet, run_fleet
from repro.serve.service import IngestionService, ServiceConfig

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Drive a simulated mote fleet through the tomography "
        "ingestion service and report throughput + latency.",
    )
    fleet = parser.add_argument_group("fleet")
    fleet.add_argument(
        "--tenants", type=int, default=2,
        help="tenant count; workloads cycle through the six-app suite (default: 2)",
    )
    fleet.add_argument(
        "--motes", type=int, default=8, help="motes per tenant (default: 8)"
    )
    fleet.add_argument(
        "--shards", type=int, default=4, help="shards each mote uploads (default: 4)"
    )
    fleet.add_argument(
        "--samples-per-proc", type=int, default=4,
        help="timing samples per procedure per shard (default: 4)",
    )
    fleet.add_argument("--seed", type=int, default=2015, help="fleet RNG seed")
    fleet.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help="per-tenant SampleBudget total; over-budget uploads defer (default: none)",
    )
    fleet.add_argument(
        "--fault-drop", type=float, default=0.0,
        help="per-record uplink drop rate (default: 0)",
    )
    fleet.add_argument(
        "--fault-corrupt", type=float, default=0.0,
        help="per-record uplink corruption rate (default: 0)",
    )
    fleet.add_argument(
        "--fault-glitch", type=float, default=0.0,
        help="per-record timer-glitch rate (default: 0)",
    )
    fleet.add_argument(
        "--drift-at-shard", type=int, default=None, metavar="N",
        help="inject a workload regime change at shard round N for every "
        "tenant (uniform-scenario pool; default: no drift)",
    )
    service = parser.add_argument_group("service")
    service.add_argument(
        "--workers", type=int, default=2, help="estimator workers (default: 2)"
    )
    service.add_argument(
        "--batch", type=int, default=8,
        help="micro-batch size: shards per EM refit (default: 8)",
    )
    service.add_argument(
        "--max-backlog", type=int, default=256,
        help="per-tenant unabsorbed-shard cap before deferral (default: 256)",
    )
    service.add_argument(
        "--flush-interval", type=float, default=None, metavar="SECONDS",
        help="age-based flush for partial batches (default: off — count-only)",
    )
    health = parser.add_argument_group("health")
    health.add_argument(
        "--health", action="store_true",
        help="attach an estimator-health monitor to every tenant (drift "
        "detectors, CI-calibration audit, backlog SLO alert)",
    )
    health.add_argument(
        "--alert-log", type=Path, default=None, metavar="PATH", dest="alert_log",
        help="write every health alert as JSONL to PATH (implies --health)",
    )
    gates = parser.add_argument_group("gates")
    gates.add_argument(
        "--check-throughput", type=float, default=None, metavar="SHARDS_PER_S",
        help="fail (exit 1) if sustained ingest falls below this rate",
    )
    gates.add_argument(
        "--check-p99-ms", type=float, default=None, metavar="MS",
        help="fail (exit 1) if p99 ingest latency exceeds this",
    )
    artifacts = parser.add_argument_group("artifacts")
    artifacts.add_argument(
        "--json", type=Path, default=None, metavar="PATH", dest="json_path",
        help="write the full fleet report (stats, latency, estimates) to PATH",
    )
    artifacts.add_argument(
        "--trace", type=Path, default=None, metavar="PATH", dest="trace_path",
        help="export the run's span timeline to PATH (see --trace-format)",
    )
    artifacts.add_argument(
        "--trace-format", choices=("jsonl", "chrome"), default="jsonl",
        help="trace export format (default: jsonl)",
    )
    artifacts.add_argument(
        "--metrics", type=Path, default=None, metavar="PATH", dest="metrics_path",
        help="write the metrics snapshot with the service stats embedded "
        "under the 'serve' key",
    )
    return parser


def _fault_model(args: argparse.Namespace) -> Optional[FaultModel]:
    if not (args.fault_drop or args.fault_corrupt or args.fault_glitch):
        return None
    return FaultModel(
        radio_loss=args.fault_drop,
        radio_corrupt=args.fault_corrupt,
        timer_glitch=args.fault_glitch,
    )


def _print_report(report: FleetReport) -> None:
    stats = report.stats["totals"]
    print(
        f"fleet: {len(report.estimates)} tenant(s), "
        f"{report.shards_sent} shards, {report.samples_sent} samples "
        f"(uptime {report.stats['uptime_s']:.2f}s)"
    )
    print(
        f"ingest: {report.shards_per_s:.0f} shards/s over {report.wall_s:.2f}s "
        f"(accepted {report.shards_accepted}, deferred {report.shards_deferred}, "
        f"rejected {stats['rejected']})"
    )
    lat = report.latency
    print(
        f"latency: p50 {lat['p50_ms']:.1f}ms  p90 {lat['p90_ms']:.1f}ms  "
        f"p99 {lat['p99_ms']:.1f}ms  max {lat['max_ms']:.1f}ms"
    )
    for name in sorted(report.estimates):
        estimate = report.estimates[name]
        print(
            f"  {name}: {estimate.total_samples} samples in "
            f"{estimate.shards_absorbed} shards, max CI half-width "
            f"{estimate.max_half_width:.3f}"
            + (" (converged)" if estimate.converged else "")
        )
    for name, summary in sorted(report.stats.get("health", {}).items()):
        coverage = summary["coverage"]
        print(
            f"  health {name}: drift score {summary['drift_score']:.2f} "
            f"({summary['drift_alarms']} alarm(s)), coverage "
            + ("n/a" if coverage is None else f"{coverage:.3f}")
            + f" over {summary['coverage_checks']} checks, "
            f"slo {summary['slo']['state']}, {summary['alerts']} alert(s)"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    for name, value in (
        ("--tenants", args.tenants), ("--motes", args.motes),
        ("--shards", args.shards), ("--samples-per-proc", args.samples_per_proc),
        ("--workers", args.workers), ("--batch", args.batch),
    ):
        if value < 1:
            print(f"{name} must be >= 1, got {value}", file=sys.stderr)
            return 2
    if args.drift_at_shard is not None and args.drift_at_shard < 1:
        print(
            f"--drift-at-shard must be >= 1, got {args.drift_at_shard}",
            file=sys.stderr,
        )
        return 2
    for flag, path in (
        ("--json", args.json_path),
        ("--trace", args.trace_path),
        ("--metrics", args.metrics_path),
        ("--alert-log", args.alert_log),
    ):
        if path is not None and not path.parent.is_dir():
            print(f"{flag}: directory does not exist: {path.parent}", file=sys.stderr)
            return 2

    health_on = args.health or args.alert_log is not None
    try:
        fleet = default_fleet(
            n_tenants=args.tenants,
            n_motes=args.motes,
            shards_per_mote=args.shards,
            samples_per_proc=args.samples_per_proc,
            seed=args.seed,
            budget=SampleBudget(max_total=args.budget) if args.budget else None,
            faults=_fault_model(args),
            drift_at_shard=args.drift_at_shard,
        )
        config = ServiceConfig(
            n_workers=args.workers,
            max_batch=args.batch,
            flush_interval_s=args.flush_interval,
            max_backlog=args.max_backlog,
            health=health_on,
        )
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    registry = MetricsRegistry() if args.metrics_path is not None else None
    tracer = Tracer() if args.trace_path is not None else None
    service = IngestionService(config)
    with contextlib.ExitStack() as stack:
        if registry is not None:
            stack.enter_context(metrics_active(registry))
        if tracer is not None:
            stack.enter_context(tracing(tracer))
        report = asyncio.run(run_fleet(fleet, service=service))

    _print_report(report)

    artifact_error = None
    if args.json_path is not None:
        try:
            args.json_path.write_text(json.dumps(report.to_json(), indent=2) + "\n")
        except OSError as exc:
            artifact_error = f"--json: could not write {args.json_path}: {exc}"
            print(artifact_error, file=sys.stderr)
    if args.trace_path is not None:
        try:
            if args.trace_format == "chrome":
                write_chrome_trace(args.trace_path, tracer.spans)
            else:
                write_jsonl(args.trace_path, tracer.spans)
        except OSError as exc:
            artifact_error = f"--trace: could not write {args.trace_path}: {exc}"
            print(artifact_error, file=sys.stderr)
    if args.metrics_path is not None:
        try:
            health_report = None
            if health_on:
                health_report = build_health_report(
                    report.stats.get("health", {}), alerts=service.alert_events()
                )
            write_metrics(
                args.metrics_path, registry, serve=report.stats, health=health_report
            )
        except OSError as exc:
            artifact_error = f"--metrics: could not write {args.metrics_path}: {exc}"
            print(artifact_error, file=sys.stderr)
    if args.alert_log is not None:
        try:
            write_alert_log(args.alert_log, service.alert_events())
        except OSError as exc:
            artifact_error = f"--alert-log: could not write {args.alert_log}: {exc}"
            print(artifact_error, file=sys.stderr)

    failed = []
    if (
        args.check_throughput is not None
        and report.shards_per_s < args.check_throughput
    ):
        failed.append(
            f"throughput {report.shards_per_s:.0f} shards/s "
            f"< required {args.check_throughput:.0f}"
        )
    if args.check_p99_ms is not None and report.latency["p99_ms"] > args.check_p99_ms:
        failed.append(
            f"p99 latency {report.latency['p99_ms']:.1f}ms "
            f"> allowed {args.check_p99_ms:.1f}ms"
        )
    for message in failed:
        print(f"GATE FAILED: {message}", file=sys.stderr)
    if failed:
        return 1
    return 1 if artifact_error else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
