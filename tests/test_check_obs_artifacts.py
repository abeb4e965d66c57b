"""Exit-code matrix for ``scripts/check_obs_artifacts.py``.

The CI smoke job scripts against this contract, so it gets its own
systematic coverage: every flag with a valid artifact exits 0, every flag
with a malformed or missing artifact exits 1, and every flagless or
contradictory invocation exits 2 — across ``--trace``, ``--metrics``,
``--hw-counters``, ``--health``, ``--alerts`` and ``--report``, alone
and combined.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.obs.compare import compare_runs, report_json
from repro.obs.counters import SNAPSHOT_SCHEMA
from repro.obs.health import (
    ALERT_SCHEMA,
    EstimatorHealthMonitor,
    build_health_report,
)
from repro.obs.query import load_run
from repro.obs.trace import Tracer, write_chrome_trace, write_jsonl

from tests.test_obs_compare import hw_snapshot, make_run


@pytest.fixture(scope="module")
def module():
    script = (
        Path(__file__).resolve().parent.parent / "scripts" / "check_obs_artifacts.py"
    )
    spec = importlib.util.spec_from_file_location("check_obs_artifacts", script)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


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
        self, module, good, flag, capsys
    ):
        assert module.main([flag, str(good[flag])]) == 0
        assert "OK" in capsys.readouterr().out

    def test_all_flags_together_pass(self, module, good, capsys):
        argv = [arg for flag in ALL_FLAGS for arg in (flag, str(good[flag]))]
        assert module.main(argv) == 0
        assert capsys.readouterr().out.count("OK") == len(ALL_FLAGS)

    def test_chrome_trace_format(self, module, good, tmp_path, capsys):
        tracer = Tracer()
        with tracer.span("experiment"):
            pass
        chrome = write_chrome_trace(tmp_path / "trace.json", tracer)
        code = module.main(["--trace", str(chrome), "--trace-format", "chrome"])
        assert code == 0
        capsys.readouterr()


class TestExitOne:
    @pytest.mark.parametrize("flag", ALL_FLAGS)
    def test_missing_file_exits_1_not_traceback(self, module, flag, tmp_path, capsys):
        assert module.main([flag, str(tmp_path / "nope")]) == 1
        assert "FAILED" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ALL_FLAGS)
    def test_malformed_json_exits_1(self, module, flag, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.write_text("{not json")
        assert module.main([flag, str(bad)]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_one_bad_artifact_fails_a_combined_run(self, module, good, capsys):
        good["--hw-counters"].write_text(
            json.dumps({"schema": "wrong/1", "totals": {}, "per_proc": {}})
        )
        argv = [arg for flag in ALL_FLAGS for arg in (flag, str(good[flag]))]
        assert module.main(argv) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_truncated_trace_jsonl_exits_1(self, module, good, capsys):
        text = good["--trace"].read_text().splitlines()
        text[-1] = text[-1][: len(text[-1]) // 2]  # cut a record mid-object
        good["--trace"].write_text("\n".join(text))
        assert module.main(["--trace", str(good["--trace"])]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_wrong_counter_schema_exits_1(self, module, good, capsys):
        good["--hw-counters"].write_text(
            json.dumps({"schema": "wrong/1", "totals": {}, "per_proc": {}})
        )
        assert module.main(["--hw-counters", str(good["--hw-counters"])]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_wrong_report_schema_exits_1(self, module, good, capsys):
        payload = json.loads(good["--report"].read_text())
        payload["schema"] = "repro.obs-report/99"
        good["--report"].write_text(json.dumps(payload))
        assert module.main(["--report", str(good["--report"])]) == 1
        assert "schema" in capsys.readouterr().err

    def test_report_with_no_sections_exits_1(self, module, tmp_path, capsys):
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
        assert module.main(["--report", str(hollow)]) == 1
        assert "no attribution sections" in capsys.readouterr().err

    def test_coverage_assertion_exits_1_on_partial_trace(
        self, module, tmp_path, capsys
    ):
        tracer = Tracer()
        with tracer.span("experiment"):
            pass  # no sim.* or estimate.* spans
        path = write_jsonl(tmp_path / "trace.jsonl", tracer)
        code = module.main(["--trace", str(path), "--require-coverage"])
        assert code == 1
        assert "does not cover" in capsys.readouterr().err


class TestExitTwo:
    def test_no_flags_is_a_usage_error(self, module):
        with pytest.raises(SystemExit) as excinfo:
            module.main([])
        assert excinfo.value.code == 2

    def test_unknown_flag_is_a_usage_error(self, module, good):
        with pytest.raises(SystemExit) as excinfo:
            module.main(["--trace", str(good["--trace"]), "--frobnicate"])
        assert excinfo.value.code == 2

    def test_bad_trace_format_is_a_usage_error(self, module, good):
        with pytest.raises(SystemExit) as excinfo:
            module.main(
                ["--trace", str(good["--trace"]), "--trace-format", "pprof"]
            )
        assert excinfo.value.code == 2
