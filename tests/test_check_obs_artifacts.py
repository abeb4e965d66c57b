"""Exit-code matrix for ``repro-obs check``.

The CI smoke job scripts against this contract, so it gets its own
systematic coverage: every flag with a valid artifact exits 0, every flag
with a malformed or missing artifact exits 1, and every flagless or
contradictory invocation exits 2 — across ``--trace``, ``--metrics``,
``--hw-counters``, ``--health``, ``--alerts`` and ``--report``, alone
and combined.  A malformed artifact fails ``check`` and the subcommand
that consumes it alike, because both read it through the same reader.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import obs_cli
from repro.obs.compare import compare_runs, report_json
from repro.obs.counters import SNAPSHOT_SCHEMA
from repro.obs.health import EstimatorHealthMonitor, build_health_report
from repro.obs.query import load_run
from repro.obs.trace import Tracer, write_chrome_trace, write_jsonl
from repro.obs.validate import ALERT_SCHEMA

from tests.test_obs_compare import hw_snapshot, make_run


def check(argv):
    """Run ``repro-obs check`` with ``argv``; returns the exit code."""
    return obs_cli.main(["check", *argv])


@pytest.fixture
def good(tmp_path):
    """One valid artifact of every kind the script can check."""
    tracer = Tracer()
    with tracer.span("experiment"):
        with tracer.span("sim.run"):
            pass
        with tracer.span("estimate.program"):
            pass
    paths = {
        "--trace": write_jsonl(tmp_path / "trace.jsonl", tracer),
        "--metrics": tmp_path / "metrics.json",
        "--hw-counters": tmp_path / "snap.json",
        "--health": tmp_path / "health.json",
        "--alerts": tmp_path / "alerts.jsonl",
        "--report": tmp_path / "report.json",
    }
    paths["--metrics"].write_text(
        json.dumps(
            {"metrics": {"counters": {}, "gauges": {}, "histograms": {}}}
        )
    )
    paths["--hw-counters"].write_text(json.dumps(hw_snapshot()))
    monitor = EstimatorHealthMonitor()
    paths["--health"].write_text(
        json.dumps(build_health_report({"default": monitor.summary(now=0.0)}))
    )
    paths["--alerts"].write_text(
        json.dumps(
            {
                "schema": ALERT_SCHEMA,
                "kind": "drift",
                "severity": "warning",
                "source": "default",
                "value": 9.0,
                "threshold": 8.0,
                "shard": 3,
            }
        )
        + "\n"
    )
    before = make_run(tmp_path, "before")
    after = make_run(tmp_path, "after", vector_s=0.21, block_cycles=2100)
    report = compare_runs(
        load_run(trace=before[0], metrics=before[1]),
        load_run(trace=after[0], metrics=after[1]),
    )
    paths["--report"].write_text(report_json(report))
    return paths


ALL_FLAGS = (
    "--trace",
    "--metrics",
    "--hw-counters",
    "--health",
    "--alerts",
    "--report",
)


class TestExitZero:
    @pytest.mark.parametrize("flag", ALL_FLAGS)
    def test_each_flag_alone_passes_on_valid_artifact(
        self, good, flag, capsys
    ):
        assert check([flag, str(good[flag])]) == 0
        assert "OK" in capsys.readouterr().out

    def test_all_flags_together_pass(self, good, capsys):
        argv = [arg for flag in ALL_FLAGS for arg in (flag, str(good[flag]))]
        assert check(argv) == 0
        assert capsys.readouterr().out.count("OK") == len(ALL_FLAGS)

    def test_chrome_trace_format(self, good, tmp_path, capsys):
        tracer = Tracer()
        with tracer.span("experiment"):
            pass
        chrome = write_chrome_trace(tmp_path / "trace.json", tracer)
        code = check(["--trace", str(chrome)])
        assert code == 0
        capsys.readouterr()


class TestExitOne:
    @pytest.mark.parametrize("flag", ALL_FLAGS)
    def test_missing_file_exits_1_not_traceback(self, flag, tmp_path, capsys):
        assert check([flag, str(tmp_path / "nope")]) == 1
        assert "FAILED" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ALL_FLAGS)
    def test_malformed_json_exits_1(self, flag, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.write_text("{not json")
        assert check([flag, str(bad)]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_one_bad_artifact_fails_a_combined_run(self, good, capsys):
        good["--hw-counters"].write_text(
            json.dumps({"schema": "wrong/1", "totals": {}, "per_proc": {}})
        )
        argv = [arg for flag in ALL_FLAGS for arg in (flag, str(good[flag]))]
        assert check(argv) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_truncated_trace_jsonl_exits_1(self, good, capsys):
        text = good["--trace"].read_text().splitlines()
        text[-1] = text[-1][: len(text[-1]) // 2]  # cut a record mid-object
        good["--trace"].write_text("\n".join(text))
        assert check(["--trace", str(good["--trace"])]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_wrong_counter_schema_exits_1(self, good, capsys):
        good["--hw-counters"].write_text(
            json.dumps({"schema": "wrong/1", "totals": {}, "per_proc": {}})
        )
        assert check(["--hw-counters", str(good["--hw-counters"])]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_wrong_report_schema_exits_1(self, good, capsys):
        payload = json.loads(good["--report"].read_text())
        payload["schema"] = "repro.obs-report/99"
        good["--report"].write_text(json.dumps(payload))
        assert check(["--report", str(good["--report"])]) == 1
        assert "schema" in capsys.readouterr().err

    def test_report_with_no_sections_exits_1(self, tmp_path, capsys):
        hollow = tmp_path / "hollow.json"
        hollow.write_text(
            json.dumps(
                {
                    "schema": "repro.obs-report/1",
                    "kind": "runs",
                    "total": None,
                    "spans": None,
                    "counters": None,
                    "metrics": None,
                    "notes": [],
                }
            )
        )
        assert check(["--report", str(hollow)]) == 1
        assert "no attribution sections" in capsys.readouterr().err

    def test_coverage_assertion_exits_1_on_partial_trace(
        self, tmp_path, capsys
    ):
        tracer = Tracer()
        with tracer.span("experiment"):
            pass  # no sim.* or estimate.* spans
        path = write_jsonl(tmp_path / "trace.jsonl", tracer)
        code = check(["--trace", str(path), "--require-coverage"])
        assert code == 1
        assert "does not cover" in capsys.readouterr().err


SPAN = {
    "type": "span", "name": "a", "start": 0.0, "end": 1.0,
    "depth": 0, "seq": 0, "pid": 1, "tid": 1, "attrs": {},
}
ALERT = {
    "schema": ALERT_SCHEMA, "kind": "drift", "severity": "warning",
    "source": "t", "value": 9.0, "threshold": 8.0, "shard": 3,
}
REGISTRY = {"counters": {"x": 1}, "gauges": {}, "histograms": {}}
HISTOGRAM = {"bounds": [1.0], "counts": [1, 0], "count": 1, "sum": 0.5}


def _metrics(counters=None, histogram=None, **embeds):
    registry = dict(REGISTRY, counters=counters or REGISTRY["counters"])
    if histogram is not None:
        registry["histograms"] = {"h": {**HISTOGRAM, **histogram}}
    return {"metrics": registry, **embeds}


#: Bytes that are not UTF-8 text, whatever the artifact kind.
NOT_UTF8 = b"\xff\xfe\x00garbage"

#: One verdict per malformed artifact: (check flag, JSONL records, one JSON
#: document, or raw bytes).  Each case once passed ``check`` or the
#: subcommand that consumes the artifact, or crashed one of them with a
#: traceback.
MALFORMED = {
    "trace-ends-before-it-starts": ("--trace", [dict(SPAN, start=5.0, end=0.0)]),
    "trace-array-line": ("--trace", [SPAN, [1, 2]]),
    "trace-string-depth": ("--trace", [dict(SPAN, depth="0")]),
    "trace-repeated-seq": ("--trace", [SPAN, dict(SPAN, name="b")]),
    "alert-missing-shard": (
        "--alerts", [{k: v for k, v in ALERT.items() if k != "shard"}]
    ),
    "alert-bool-value": ("--alerts", [dict(ALERT, value=True)]),
    "alert-int-source": ("--alerts", [dict(ALERT, source=5)]),
    "alert-shard-below-minus-one": ("--alerts", [dict(ALERT, shard=-7)]),
    "metrics-negative-counter": ("--metrics", _metrics(counters={"x": -3})),
    "metrics-stray-top-level-key": ("--metrics", _metrics(serve_stats={})),
    "metrics-negative-snapshot-count": (
        "--metrics",
        _metrics(
            hardware_counters={
                "schema": SNAPSHOT_SCHEMA, "totals": {"a": -1}, "per_proc": {},
            }
        ),
    ),
    "metrics-string-bounds": ("--metrics", _metrics(histogram={"bounds": "x"})),
    "metrics-string-counts": (
        "--metrics", _metrics(histogram={"counts": ["a", "b"]})
    ),
    "metrics-negative-bucket": ("--metrics", _metrics(histogram={"counts": [-1, 2]})),
    "metrics-bool-counter": ("--metrics", _metrics(counters={"x": True})),
    "metrics-not-utf8": ("--metrics", NOT_UTF8),
    "trace-not-utf8": ("--trace", NOT_UTF8),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_artifact_fails_check_and_its_consumer(case, tmp_path, capsys):
    flag, content = MALFORMED[case]
    if isinstance(content, bytes):
        bad = tmp_path / ("bad.jsonl" if flag == "--trace" else "bad.json")
        bad.write_bytes(content)
        named = bad.name
    elif isinstance(content, list):  # JSONL: the last line is the bad one
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(record) + "\n" for record in content))
        named = f"bad.jsonl:{len(content)}"
    else:
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        named = "bad.json"
    if flag == "--trace":
        consumer = ["aggregate", str(bad)]
    elif flag == "--alerts":
        stats = tmp_path / "stats.json"
        summary = EstimatorHealthMonitor().summary(now=0.0)
        stats.write_text(json.dumps({"health": {"t": summary}}))
        consumer = ["health", "--stats", str(stats), "--alerts", str(bad)]
    else:
        good = tmp_path / "good.json"
        good.write_text(json.dumps(_metrics()))
        consumer = ["explain", str(good), str(bad)]
    for argv in (["check", flag, str(bad)], consumer):
        assert obs_cli.main(argv) == 1, argv
        err = capsys.readouterr().err
        assert "FAILED" in err and named in err, err


class TestExitTwo:
    def test_no_flags_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            check([])
        assert excinfo.value.code == 2

    def test_unknown_flag_is_a_usage_error(self, good):
        with pytest.raises(SystemExit) as excinfo:
            check(["--trace", str(good["--trace"]), "--frobnicate"])
        assert excinfo.value.code == 2

    def test_require_coverage_without_trace_is_a_usage_error(self, good, capsys):
        # Coverage is a property of a trace: without one the flag would
        # check nothing and the run would still print OK.
        with pytest.raises(SystemExit) as excinfo:
            check(["--metrics", str(good["--metrics"]), "--require-coverage"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "--trace" in captured.err and "OK" not in captured.out
