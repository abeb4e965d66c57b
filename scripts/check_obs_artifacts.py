#!/usr/bin/env python
"""Validate telemetry artifacts from an observed or benchmarked run.

CI's observability smoke job runs one small experiment with telemetry on and
pipes the artifacts through this script; it exits non-zero with a
path-qualified message on the first structural violation (see
:mod:`repro.obs.validate` for the contracts checked).  Usage::

    python scripts/check_obs_artifacts.py \
        --trace trace.jsonl [--trace-format jsonl|chrome] \
        --metrics metrics.json [--require-coverage] \
        --hw-counters snapshot.json --health health.json \
        --alerts alerts.jsonl --report report.json

``--require-coverage`` additionally asserts the span names prove the trace
covered the engine, sim and estimator layers.  ``--hw-counters`` validates a
hardware-counter snapshot (any file holding a ``repro.hwcounters/1``
object); ``--health`` validates a standalone fleet health report
(``repro.health-report/1``) and ``--alerts`` a JSONL alert log
(``repro.health-alert/1`` lines), both as written by ``repro-serve`` /
``repro-obs health``; ``--report`` validates a ``repro.obs-report/1``
attribution report as written by ``repro-obs explain --json``.
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.validate import (
    ArtifactError,
    require_span_coverage,
    validate_alert_log,
    validate_chrome_trace,
    validate_health_report,
    validate_hw_counters_file,
    validate_metrics_file,
    validate_obs_report,
    validate_trace_jsonl,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="exit codes: 0 all artifacts valid; 1 invalid or unreadable "
        "artifact; 2 usage error",
    )
    parser.add_argument("--trace", default=None, help="trace artifact to validate")
    parser.add_argument(
        "--trace-format", choices=("jsonl", "chrome"), default="jsonl"
    )
    parser.add_argument("--metrics", default=None, help="metrics artifact to validate")
    parser.add_argument(
        "--hw-counters",
        default=None,
        metavar="PATH",
        help="hardware-counter snapshot JSON to validate",
    )
    parser.add_argument(
        "--health",
        default=None,
        metavar="PATH",
        help="fleet health-report JSON to validate",
    )
    parser.add_argument(
        "--alerts",
        default=None,
        metavar="PATH",
        help="JSONL health-alert log to validate",
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="repro.obs-report/1 attribution report to validate",
    )
    parser.add_argument(
        "--require-coverage",
        action="store_true",
        help="assert the trace covers the engine, sim and estimator layers",
    )
    args = parser.parse_args(argv)
    if all(
        value is None
        for value in (
            args.trace,
            args.metrics,
            args.hw_counters,
            args.health,
            args.alerts,
            args.report,
        )
    ):
        parser.error(
            "nothing to check; pass --trace, --metrics, --hw-counters, "
            "--health, --alerts and/or --report"
        )

    try:
        if args.trace is not None:
            if args.trace_format == "chrome":
                summary = validate_chrome_trace(args.trace)
            else:
                summary = validate_trace_jsonl(args.trace)
            print(
                f"{args.trace}: OK — {summary['spans']} spans, "
                f"{len(summary['names'])} distinct names"
            )
            if args.require_coverage:
                covered = require_span_coverage(summary["names"])
                print(f"{args.trace}: covers {', '.join(sorted(covered))}")
        if args.metrics is not None:
            summary = validate_metrics_file(args.metrics)
            print(
                f"{args.metrics}: OK — {summary['counters']} counters, "
                f"{summary['histograms']} histograms, "
                f"manifest={'yes' if summary['has_manifest'] else 'no'}, "
                f"hw-counters={'yes' if summary['has_hw_counters'] else 'no'}, "
                f"serve={'yes' if summary['has_serve'] else 'no'}, "
                f"health={'yes' if summary['has_health'] else 'no'}"
            )
        if args.health is not None:
            summary = validate_health_report(args.health)
            print(
                f"{args.health}: OK — {summary['tenants']} tenant(s), "
                f"{summary['alerts']} alert(s)"
            )
        if args.alerts is not None:
            summary = validate_alert_log(args.alerts)
            kinds = ", ".join(sorted(summary["kinds"])) or "none"
            print(
                f"{args.alerts}: OK — {summary['alerts']} alert(s), kinds: {kinds}"
            )
        if args.hw_counters is not None:
            summary = validate_hw_counters_file(args.hw_counters)
            print(
                f"{args.hw_counters}: OK — {summary['counters']} counters, "
                f"{summary['procs']} procedures attributed"
            )
        if args.report is not None:
            summary = validate_obs_report(args.report)
            if "rows" in summary:
                detail = f"{summary['rows']} row(s)"
            else:
                detail = (
                    f"{summary['sections']} attribution section(s), "
                    f"{summary['notes']} note(s)"
                )
            print(f"{args.report}: OK — kind {summary['kind']}, {detail}")
    except (ArtifactError, OSError) as exc:
        print(f"artifact check FAILED: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
