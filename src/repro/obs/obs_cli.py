"""CLI for offline telemetry analysis (installed as ``repro-obs``).

Examples::

    repro-obs aggregate trace.jsonl --top 15
    repro-obs flamegraph trace.jsonl --out trace.collapsed
    repro-obs critical-path trace.jsonl --json path.json
    repro-obs explain before.jsonl after.jsonl \\
        --metrics-before before_metrics.json --metrics-after after_metrics.json
    repro-obs diff-counters before_snap.json after_snap.json --top 10
    repro-obs health --stats serve_metrics.json --alerts alerts.jsonl --check
    repro-obs check --trace trace.jsonl --metrics metrics.json --require-coverage

Seven subcommands over the artifacts the obs stack already emits:

* ``aggregate`` — per-span-name inclusive/exclusive self-time table.
* ``flamegraph`` — Brendan Gregg collapsed-stack export (``stack µs``),
  feedable to any flamegraph renderer and round-trippable.
* ``critical-path`` — the heaviest root→leaf chain through the span tree.
* ``explain`` — regression attribution between two runs of the same
  kind: two traces (plus optional ``--metrics-before``/``--metrics-after``
  for the counter and histogram drill-down), two ``--metrics`` files, or
  two counter snapshots.
* ``diff-counters`` — signed hardware-counter deltas with relative
  movement and stable top-movers ordering; inputs are counter-snapshot
  JSONs or ``--metrics`` files carrying the embed.
* ``health`` — render, and optionally gate on, a fleet estimator-health
  report (see below).
* ``check`` — read each artifact through the reader the subcommands above
  use and print a one-line summary (CI's artifact check).

``--json PATH`` on the analysis subcommands writes the structured result (the
attribution subcommands write a ``repro.obs-report/1`` artifact, ``health``
the normalized ``repro.health-report/1``).  All analysis is offline and
deterministic: identical inputs produce byte-identical output at any
``--jobs``.  Exit codes: 0 ok, 1 unreadable or malformed artifact, 2 usage
error.

``health`` reads either a saved ``repro.health-report/1`` artifact
(``--report``) or any JSON file carrying per-tenant health summaries
(``--stats``): a ``--metrics`` file from ``repro-serve``/
``repro-experiments``, a raw ``stats`` wire response, or a ``repro-serve
--json`` fleet report.  ``--alerts`` folds a JSONL alert log into the
assembled report, and ``--counters-before``/``--counters-after`` add the
top moved hardware counters.  ``--check`` turns the render into a gate:
exit 1 when the fleet is unhealthy (drift alarms, health alerts, or a
breached SLO).  ``--expect-drift`` flips the drift clause for
injected-drift drills: the gate *fails unless* at least one drift alarm
fired (coverage alerts are tolerated too — degraded coverage against
base-regime truth is exactly what an injected drift causes), while
backlog SLO alerts still fail.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.errors import ObsError
from repro.obs.compare import (
    compare_runs,
    counter_attribution,
    format_movers,
    format_report,
    report_json,
)
from repro.obs.counters import SNAPSHOT_SCHEMA, snapshot_deltas
from repro.obs.health import build_health_report, read_alert_log
from repro.obs.query import (
    aggregate,
    critical_path,
    format_aggregate,
    format_critical_path,
    load_run,
    load_trace,
    to_collapsed,
)
from repro.obs.validate import (
    CHROME_TRACE,
    COUNTER_SNAPSHOT,
    HEALTH_REPORT,
    METRICS_FILE,
    OBS_REPORT,
    OBS_REPORT_SCHEMA,
    ArtifactError,
    check,
    read_json,
    read_text,
    require_span_coverage,
)

__all__ = ["main"]


def _sniff(path: Path) -> str:
    """Classify an artifact file: trace | chrome | metrics | counters.

    JSONL traces are not one JSON document, so a whole-file parse failure
    *is* the trace signal; single-document files classify by their schema
    tag or top-level vocabulary (a Chrome export holds ``traceEvents``).
    """
    try:
        payload = json.loads(read_text(path))
    except json.JSONDecodeError:
        return "trace"  # JSON-lines: many documents, one per line
    if not isinstance(payload, dict):
        raise ObsError(f"{path}: not a recognized telemetry artifact")
    if "traceEvents" in payload:
        return "chrome"
    if "type" in payload:
        return "trace"  # a JSONL trace of one record
    if payload.get("schema") == SNAPSHOT_SCHEMA:
        return "counters"
    if "metrics" in payload:
        return "metrics"
    raise ObsError(
        f"{path}: not a recognized telemetry artifact (expected a JSONL "
        f"trace, a --metrics file, or a {SNAPSHOT_SCHEMA!r} snapshot)"
    )


def _load_pair(jobs: int, load_a: Callable, load_b: Callable):
    """Load two sides, optionally concurrently; result order is fixed.

    ``--jobs`` parallelizes only the *loading* of the two inputs; the
    analysis itself is order-free, which is why reports are byte-identical
    at any jobs value.
    """
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=2) as pool:
            fut_a, fut_b = pool.submit(load_a), pool.submit(load_b)
            return fut_a.result(), fut_b.result()
    return load_a(), load_b()


def _load_counter_snapshot(path: Path) -> dict:
    """A checked counter snapshot, read raw or from a ``--metrics`` embed.

    The one loader behind ``diff-counters``, ``explain`` on two snapshots,
    ``health --counters-before/--counters-after`` and ``check
    --hw-counters``: a snapshot with no ``totals`` or a negative count is a
    malformed artifact (exit 1), never "no counters moved".
    """
    path = Path(path)
    payload = read_json(path)
    if isinstance(payload, dict) and "hardware_counters" in payload:
        payload = payload["hardware_counters"]
    elif isinstance(payload, dict) and "metrics" in payload:
        raise ObsError(
            f"{path}: metrics file carries no hardware_counters embed "
            "(was the run made with --counters?)"
        )
    check(payload, COUNTER_SNAPSHOT, path.name)
    return payload


def _write_json(path: Optional[Path], text: str) -> None:
    if path is not None:
        path.write_text(text)


def _write_rows(args, rows: list[dict]) -> None:
    """``--json`` for the row reports; the subcommand names the kind."""
    report = {"schema": OBS_REPORT_SCHEMA, "kind": args.command, "rows": rows}
    _write_json(args.json_path, report_json(report))


# -- subcommand implementations ---------------------------------------------


def _cmd_aggregate(args) -> int:
    forest = load_trace(args.trace)
    rows = aggregate(forest)
    print(format_aggregate(rows, top=args.top))
    _write_rows(args, rows)
    return 0


def _cmd_critical_path(args) -> int:
    forest = load_trace(args.trace)
    rows = critical_path(forest)
    print(format_critical_path(rows))
    _write_rows(args, rows)
    return 0


def _cmd_flamegraph(args) -> int:
    forest = load_trace(args.trace)
    collapsed = to_collapsed(forest)
    if args.out is not None:
        args.out.write_text(collapsed)
        print(
            f"{args.out}: {len(collapsed.splitlines())} stack(s) from "
            f"{forest.spans} span(s)"
        )
    else:
        sys.stdout.write(collapsed)
    return 0


def _counters_report(args, before_path: Path, after_path: Path) -> dict:
    snap_a, snap_b = _load_pair(
        args.jobs,
        lambda: _load_counter_snapshot(before_path),
        lambda: _load_counter_snapshot(after_path),
    )
    return {
        "schema": OBS_REPORT_SCHEMA,
        "kind": "counters",
        "total": None,
        "spans": None,
        "counters": counter_attribution(snap_a, snap_b, top=args.top),
        "metrics": None,
        "notes": [],
    }


def _explain_report(args) -> dict:
    before_path, after_path = (Path(p) for p in args.runs)
    kind_a, kind_b = _sniff(before_path), _sniff(after_path)
    if kind_a != kind_b:
        raise ObsError(
            f"cannot compare a {kind_a} artifact against a {kind_b} artifact; "
            "pass two runs of the same kind"
        )
    if kind_a == "chrome":
        raise ObsError("explain reads JSONL traces, not Chrome exports")
    if kind_a == "trace":
        bundle_a, bundle_b = _load_pair(
            args.jobs,
            lambda: load_run(trace=before_path, metrics=args.metrics_before),
            lambda: load_run(trace=after_path, metrics=args.metrics_after),
        )
        return compare_runs(bundle_a, bundle_b, top=args.top)
    if kind_a == "metrics":
        bundle_a, bundle_b = _load_pair(
            args.jobs,
            lambda: load_run(metrics=before_path),
            lambda: load_run(metrics=after_path),
        )
        return compare_runs(bundle_a, bundle_b, top=args.top)
    return _counters_report(args, before_path, after_path)


def _cmd_explain(args) -> int:
    report = _explain_report(args)
    print(format_report(report, top=args.top or 10))
    _write_json(args.json_path, report_json(report))
    return 0


def _cmd_diff_counters(args) -> int:
    report = _counters_report(args, Path(args.before), Path(args.after))
    movers = report["counters"]["movers"]
    if not movers:
        print("no counters moved")
    else:
        print(format_report(report, top=args.top or 10))
        print()
        print("movers (|delta| ordered):")
        print("\n".join(format_movers(movers[: args.top or 20])))
    _write_json(args.json_path, report_json(report))
    return 0


def _health_summaries(payload: dict, where: str) -> dict:
    """Pull tenant health summaries out of any of the accepted JSON shapes."""
    if "health" in payload and isinstance(payload["health"], dict):
        health = payload["health"]
        # A --metrics file's "health" key is a full report; a stats payload's
        # is the plain tenant->summary mapping.
        if health.get("schema") and "tenants" in health:
            check(health, HEALTH_REPORT, where, "health")
            return dict(health["tenants"])
        return dict(health)
    if "serve" in payload and isinstance(payload["serve"], dict):
        return _health_summaries(payload["serve"], where)
    if "stats" in payload and isinstance(payload["stats"], dict):
        return _health_summaries(payload["stats"], where)
    raise ArtifactError(
        f"{where}: no health summaries found (expected a 'health' key; was "
        "the run made with health monitoring enabled?)"
    )


def _load_health_report(args) -> dict:
    if args.report is not None:
        report = read_json(args.report, HEALTH_REPORT)
    else:
        summaries = _health_summaries(read_json(args.stats), args.stats.name)
        alerts = read_alert_log(args.alerts) if args.alerts is not None else ()
        report = build_health_report(summaries, alerts=alerts)
        # The alerts were checked as they were read, so what fails here
        # came from the --stats file.
        check(report, HEALTH_REPORT, args.stats.name)
    if args.counters_before is not None:
        # Drift alerts name *what* drifted; the counter movers name what
        # the hardware was doing differently while it drifted.
        report["counter_movers"] = snapshot_deltas(
            _load_counter_snapshot(args.counters_before),
            _load_counter_snapshot(args.counters_after),
            top=10,
        )
    return report


def _render_health(report: dict) -> None:
    fleet = report["fleet"]
    print(
        f"fleet: {fleet['tenants']} tenant(s), max drift score "
        f"{fleet['max_drift_score']:.2f}, {fleet['drift_alarms']} drift "
        f"alarm(s), {fleet['alerts']} alert(s)"
    )
    coverage = fleet["coverage"]
    if coverage is None:
        print("coverage: n/a (no audited checks)")
    else:
        print(
            f"coverage: {coverage:.3f} over {fleet['coverage_checks']} checks "
            f"(nominal {report['nominal_coverage']:.2f}, worst tenant "
            f"{fleet['worst_coverage']:.3f})"
        )
    for name in sorted(report["tenants"]):
        summary = report["tenants"][name]
        cov = summary["coverage"]
        staleness = summary["staleness_s"]
        slo = summary.get("slo", {}).get("state", "-")
        print(
            f"  {name}: drift {summary['drift_score']:.2f} "
            f"({summary['drift_alarms']} alarm(s)), coverage "
            + ("n/a" if cov is None else f"{cov:.3f}")
            + f"/{summary['coverage_checks']}, staleness "
            + ("-" if staleness is None else f"{staleness:.1f}s")
            + f", slo {slo}, {summary['alerts']} alert(s)"
        )
    for alert in report["alerts"]:
        tag = f" {alert['procedure']}" if alert.get("procedure") else ""
        print(
            f"  alert [{alert['severity']}] {alert['kind']} "
            f"{alert['source']}{tag}: {alert['value']:.4g} vs threshold "
            f"{alert['threshold']:.4g}"
            + (f" — {alert['detail']}" if alert.get("detail") else "")
        )
    movers = report.get("counter_movers")
    if movers:
        print("top moved counters:")
        print("\n".join(format_movers(movers)))


def _health_problems(report: dict, expect_drift: bool) -> list[str]:
    fleet = report["fleet"]
    problems = []
    alert_kinds = {alert["kind"] for alert in report["alerts"]}
    if expect_drift:
        if fleet["drift_alarms"] < 1:
            problems.append("expected a drift alarm; the detectors stayed quiet")
        tolerated = {"drift", "coverage"}
        bad = sorted(alert_kinds - tolerated)
        if bad:
            problems.append(f"unexpected alert kind(s): {', '.join(bad)}")
    else:
        if fleet["drift_alarms"] > 0:
            problems.append(f"{fleet['drift_alarms']} drift alarm(s)")
        tenant_alerts = sum(s["alerts"] for s in report["tenants"].values())
        total_alerts = max(fleet["alerts"], tenant_alerts)
        if total_alerts > 0:
            kinds = f" ({', '.join(sorted(alert_kinds))})" if alert_kinds else ""
            problems.append(f"{total_alerts} health alert(s){kinds}")
    for name in sorted(report["tenants"]):
        if report["tenants"][name].get("slo", {}).get("state") == "breached":
            problems.append(f"{name}: SLO breached")
    return problems


def _cmd_health(args) -> int:
    if (args.report is None) == (args.stats is None):
        print("pass exactly one of --report or --stats", file=sys.stderr)
        return 2
    if args.expect_drift and not args.check:
        print("--expect-drift only makes sense with --check", file=sys.stderr)
        return 2
    if (args.counters_before is None) != (args.counters_after is None):
        print(
            "--counters-before and --counters-after come as a pair",
            file=sys.stderr,
        )
        return 2
    try:
        report = _load_health_report(args)
    except (ObsError, OSError) as exc:
        print(f"health report FAILED to load: {exc}", file=sys.stderr)
        return 1

    _render_health(report)
    _write_json(args.json_path, report_json(report))
    if args.check:
        problems = _health_problems(report, args.expect_drift)
        if problems:
            for problem in problems:
                print(f"UNHEALTHY: {problem}", file=sys.stderr)
            return 1
        print("healthy" + (" (drift detected, as expected)" if args.expect_drift else ""))
    return 0


def _cmd_check(args) -> int:
    inputs = (
        args.trace, args.metrics, args.hw_counters, args.health, args.alerts, args.report
    )
    if all(value is None for value in inputs):
        args.usage_error(
            "nothing to check; pass --trace, --metrics, --hw-counters, "
            "--health, --alerts and/or --report"
        )
    if args.require_coverage and args.trace is None:
        args.usage_error("--require-coverage checks a trace; pass --trace")
    if args.trace is not None:
        if _sniff(args.trace) == "chrome":
            events = read_json(args.trace, CHROME_TRACE)["traceEvents"]
            names = {event["name"] for event in events}
            spans = len(events)
        else:
            forest = load_trace(args.trace)
            names = {node.name for node in forest.walk()}
            spans = forest.spans
        print(f"{args.trace}: OK — {spans} spans, {len(names)} distinct names")
        if args.require_coverage:
            covered = require_span_coverage(names)
            print(f"{args.trace}: covers {', '.join(sorted(covered))}")
    if args.metrics is not None:
        payload = read_json(args.metrics, METRICS_FILE)
        embeds = (
            ("manifest", "manifest"),
            ("hw-counters", "hardware_counters"),
            ("serve", "serve"),
            ("health", "health"),
        )
        print(
            f"{args.metrics}: OK — {len(payload['metrics']['counters'])} counters, "
            f"{len(payload['metrics']['histograms'])} histograms, "
            + ", ".join(
                f"{label}={'yes' if key in payload else 'no'}" for label, key in embeds
            )
        )
    if args.health is not None:
        report = read_json(args.health, HEALTH_REPORT)
        print(
            f"{args.health}: OK — {len(report['tenants'])} tenant(s), "
            f"{len(report['alerts'])} alert(s)"
        )
    if args.alerts is not None:
        events = read_alert_log(args.alerts)
        kinds = ", ".join(sorted({event.kind for event in events})) or "none"
        print(f"{args.alerts}: OK — {len(events)} alert(s), kinds: {kinds}")
    if args.hw_counters is not None:
        snap = _load_counter_snapshot(args.hw_counters)
        print(
            f"{args.hw_counters}: OK — {len(snap['totals'])} counters, "
            f"{len(snap['per_proc'])} procedures attributed"
        )
    if args.report is not None:
        report = read_json(args.report, OBS_REPORT)
        if "rows" in report:
            detail = f"{len(report['rows'])} row(s)"
        else:
            sections = sum(report[k] is not None for k in ("spans", "counters", "metrics"))
            detail = f"{sections} attribution section(s), {len(report['notes'])} note(s)"
        print(f"{args.report}: OK — kind {report['kind']}, {detail}")
    return 0


# -- parser ------------------------------------------------------------------


def _add_json_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", type=Path, default=None, metavar="PATH", dest="json_path",
        help="write the structured result to PATH",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="keep only the N biggest movers per section",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="parallel artifact loading; output is byte-identical at any N "
        "(default: 1)",
    )
    _add_json_flag(parser)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Query, visualize and diff the repo's own telemetry "
        "artifacts (traces, metrics, counters, health reports).",
        epilog="exit codes: 0 ok; 1 unreadable or malformed artifact; "
        "2 usage error",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    agg = sub.add_parser(
        "aggregate", help="per-span-name self/inclusive time table"
    )
    agg.add_argument("trace", type=Path, help="JSONL trace artifact")
    agg.add_argument(
        "--top", type=int, default=None, metavar="N", help="show only N rows"
    )
    _add_json_flag(agg)
    agg.set_defaults(func=_cmd_aggregate)

    crit = sub.add_parser(
        "critical-path", help="heaviest root-to-leaf chain through the spans"
    )
    crit.add_argument("trace", type=Path, help="JSONL trace artifact")
    _add_json_flag(crit)
    crit.set_defaults(func=_cmd_critical_path)

    flame = sub.add_parser(
        "flamegraph", help="collapsed-stack flamegraph export (stack µs lines)"
    )
    flame.add_argument("trace", type=Path, help="JSONL trace artifact")
    flame.add_argument(
        "--out", type=Path, default=None, metavar="PATH",
        help="write collapsed stacks to PATH (default: stdout)",
    )
    flame.set_defaults(func=_cmd_flamegraph)

    explain = sub.add_parser(
        "explain",
        help="attribute a regression between two runs (traces, metrics, "
        "or counter snapshots)",
    )
    explain.add_argument(
        "runs", nargs=2, metavar="RUN", help="two artifacts of the same kind"
    )
    explain.add_argument(
        "--metrics-before", type=Path, default=None, metavar="PATH",
        help="metrics artifact joined to the first trace",
    )
    explain.add_argument(
        "--metrics-after", type=Path, default=None, metavar="PATH",
        help="metrics artifact joined to the second trace",
    )
    _add_common(explain)
    explain.set_defaults(func=_cmd_explain)

    diff = sub.add_parser(
        "diff-counters",
        help="signed hardware-counter deltas with relative movement",
    )
    diff.add_argument("before", help="counter snapshot or --metrics file")
    diff.add_argument("after", help="counter snapshot or --metrics file")
    _add_common(diff)
    diff.set_defaults(func=_cmd_diff_counters)

    health = sub.add_parser(
        "health",
        help="render (and optionally gate on) a fleet estimator-health report",
        description="Render (and optionally gate on) a fleet estimator-health "
        "report.",
        epilog="exit codes: 0 healthy (or no --check); 1 unhealthy, or an "
        "unreadable or invalid input; 2 usage error",
    )
    source = health.add_argument_group("input")
    source.add_argument(
        "--report", type=Path, default=None, metavar="PATH",
        help="a saved repro.health-report/1 JSON artifact",
    )
    source.add_argument(
        "--stats", type=Path, default=None, metavar="PATH",
        help="any JSON carrying tenant health summaries: a --metrics file, a "
        "stats wire response, or a repro-serve --json report",
    )
    source.add_argument(
        "--alerts", type=Path, default=None, metavar="PATH",
        help="JSONL alert log to fold into the report (see repro-serve "
        "--alert-log)",
    )
    source.add_argument(
        "--counters-before", type=Path, default=None, metavar="PATH",
        help="hardware-counter snapshot (or --metrics file) from before the "
        "drift window; with --counters-after, the report carries the top "
        "moved counters",
    )
    source.add_argument(
        "--counters-after", type=Path, default=None, metavar="PATH",
        help="hardware-counter snapshot (or --metrics file) from after the "
        "drift window",
    )
    gate = health.add_argument_group("gate")
    gate.add_argument(
        "--check", action="store_true",
        help="exit 1 unless the fleet is healthy",
    )
    gate.add_argument(
        "--expect-drift", action="store_true",
        help="with --check: require at least one drift alarm (injected-drift "
        "drill) and tolerate drift/coverage alerts",
    )
    health.add_argument(
        "--json", type=Path, default=None, metavar="PATH", dest="json_path",
        help="write the (normalized) health report to PATH",
    )
    health.set_defaults(func=_cmd_health)

    chk = sub.add_parser(
        "check",
        help="check telemetry artifacts with the readers the analysis uses",
        description="Read each artifact through its checking reader and print "
        "a one-line summary; stops at the first malformed artifact.",
        epilog="exit codes: 0 all artifacts valid; 1 invalid or unreadable "
        "artifact; 2 usage error",
    )
    for flag, what in (
        ("--trace", "JSONL trace or Chrome trace export"),
        ("--metrics", "--metrics file"),
        ("--hw-counters", "hardware-counter snapshot (or --metrics file carrying one)"),
        ("--health", "fleet health report"),
        ("--alerts", "JSONL health-alert log"),
        ("--report", "repro.obs-report/1 attribution report"),
    ):
        chk.add_argument(flag, default=None, metavar="PATH", help=f"{what} to check")
    chk.add_argument(
        "--require-coverage", action="store_true",
        help="assert the trace covers the engine, sim and estimator layers",
    )
    chk.set_defaults(func=_cmd_check, usage_error=chk.error)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    try:
        return args.func(args)
    except (ObsError, OSError) as exc:
        print(f"repro-obs FAILED: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
