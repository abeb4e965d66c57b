"""End-to-end contracts of the telemetry layer.

The load-bearing promise: telemetry is *about* the run, never *part of*
it — rendered tables are byte-identical with observation on or off, at any
worker count, and the exported artifacts have a deterministic structure
(merge order keyed by experiment id and unit index, not completion time).
"""

from __future__ import annotations

import json

import pytest

from repro.errors import UnitExecutionError
from repro.experiments.common import ExperimentConfig, UnitResult, map_units
from repro.experiments.engine import (
    TRACEBACK_LIMIT_CHARS,
    _truncated_traceback,
    run_experiments,
)
from repro.experiments.runner import main
from repro.obs import MetricsRegistry, Tracer, metrics_active, tracing
from repro.obs import obs_cli
from repro.obs.query import load_run, load_trace
from repro.obs.validate import CHROME_TRACE, read_json, require_span_coverage

QUICK = ExperimentConfig(quick=True, seed=2015, activations=600)
IDS = ["t1", "f7"]


def renders(outcomes):
    return [o.result.render() for o in outcomes]


def run_observed(ids, jobs=1):
    tracer = Tracer()
    registry = MetricsRegistry()
    with tracing(tracer), metrics_active(registry):
        outcomes = run_experiments(ids, QUICK, jobs=jobs, observe=True)
    return outcomes, tracer, registry


def adopted_names(tracer):
    """Span names in seq order, minus the scheduling instants.

    ``progress.*`` instants land on the caller's tracer in completion order
    (that is their job: they mirror the live progress stream); everything
    else is merged deterministically and must be schedule-independent.
    """
    return [
        s.name
        for s in sorted(tracer.spans, key=lambda s: s.seq)
        if not s.name.startswith("progress.")
    ]


class TestBitIdentity:
    def test_observed_serial_render_matches_plain(self):
        plain = run_experiments(IDS, QUICK, jobs=1)
        observed, _, _ = run_observed(IDS, jobs=1)
        assert renders(plain) == renders(observed)

    def test_observed_parallel_render_matches_plain_serial(self):
        plain = run_experiments(IDS, QUICK, jobs=1)
        observed, _, _ = run_observed(IDS, jobs=4)
        assert renders(plain) == renders(observed)

    def test_observed_unit_fanout_render_matches_plain(self):
        plain = run_experiments(["f7"], QUICK, jobs=1)
        observed, _, _ = run_observed(["f7"], jobs=4)
        assert renders(plain) == renders(observed)
        assert plain[0].result.series == observed[0].result.series


class TestDeterministicMerge:
    def test_span_sequence_is_identical_at_any_worker_count(self):
        _, serial_tracer, _ = run_observed(IDS, jobs=1)
        _, parallel_tracer, _ = run_observed(IDS, jobs=4)
        assert adopted_names(serial_tracer) == adopted_names(parallel_tracer)

    def test_unit_spans_merge_in_index_order(self):
        _, tracer, _ = run_observed(["f7"], jobs=4)
        unit_tags = [
            s.attrs["unit"]
            for s in sorted(tracer.spans, key=lambda s: s.seq)
            if s.name == "unit"
        ]
        assert unit_tags == sorted(unit_tags)
        assert len(unit_tags) > 1  # f7 really did decompose into units

    def test_experiment_spans_tagged_and_in_request_order(self):
        _, tracer, _ = run_observed(IDS, jobs=4)
        exp_tags = [
            s.attrs["experiment"]
            for s in sorted(tracer.spans, key=lambda s: s.seq)
            if s.name == "experiment"
        ]
        assert exp_tags == IDS

    def test_metrics_merge_matches_serial_counts(self):
        _, _, serial_registry = run_observed(IDS, jobs=1)
        _, _, parallel_registry = run_observed(IDS, jobs=4)
        serial, parallel = serial_registry.snapshot(), parallel_registry.snapshot()
        # Work-volume counters are seed-determined, so they must agree
        # exactly regardless of where the work executed.
        for key in ("sim.runs", "sim.activations", "estimator.moment_fits"):
            assert serial["counters"][key] == parallel["counters"][key], key


class TestSpanCoverage:
    def test_observed_run_covers_all_layers(self):
        _, tracer, registry = run_observed(IDS, jobs=4)
        names = {s.name for s in tracer.spans}
        covered = require_span_coverage(names)
        assert covered == {"engine": True, "sim": True, "estimator": True}
        counters = registry.snapshot()["counters"]
        assert counters["sim.runs"] > 0
        assert counters["estimator.moment_fits"] > 0


class TestFailedUnitReporting:
    @staticmethod
    def _failing_experiment(config):
        def unit(item):
            if item == 2:
                raise ValueError("unit blew up")
            return UnitResult()

        map_units(unit, [0, 1, 2, 3])
        raise AssertionError("unreachable: unit 2 must have raised")

    def _patch(self, monkeypatch):
        import repro.experiments as exp_pkg
        import repro.experiments.runner as runner_mod

        patched = dict(exp_pkg.ALL_EXPERIMENTS)
        patched["t1"] = self._failing_experiment
        monkeypatch.setattr(exp_pkg, "ALL_EXPERIMENTS", patched)
        monkeypatch.setattr(runner_mod, "ALL_EXPERIMENTS", patched)

    def test_outcome_carries_unit_index_and_traceback(self, monkeypatch):
        self._patch(monkeypatch)
        (outcome,) = run_experiments(["t1"], QUICK)
        assert not outcome.ok
        assert outcome.failed_unit == 2
        assert "unit 2" in outcome.error
        assert "ValueError: unit blew up" in outcome.traceback
        assert len(outcome.traceback) <= TRACEBACK_LIMIT_CHARS + 40

    def test_cli_reports_failing_unit(self, capsys, monkeypatch):
        self._patch(monkeypatch)
        assert main(["t1", "--quick"]) == 1
        err = capsys.readouterr().err
        assert "t1: failed (unit 2):" in err
        assert "ValueError: unit blew up" in err

    def test_map_units_raises_unit_execution_error(self):
        def unit(item):
            if item == "bad":
                raise RuntimeError("nope")
            return item

        with pytest.raises(UnitExecutionError) as excinfo:
            map_units(unit, ["ok", "bad"])
        assert excinfo.value.unit_index == 1
        assert "RuntimeError: nope" in excinfo.value.traceback_str

    def test_traceback_truncation_keeps_the_tail(self):
        text = "x" * (TRACEBACK_LIMIT_CHARS * 2) + "THE REAL ERROR"
        cut = _truncated_traceback(text)
        assert cut.startswith("... [traceback truncated] ...")
        assert cut.endswith("THE REAL ERROR")
        assert len(cut) < len(text)
        short = "short traceback"
        assert _truncated_traceback(short) == short


class TestCliArtifacts:
    BASE = ["t1", "--quick"]

    def test_trace_jsonl_and_metrics_artifacts(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main([*self.BASE, "--trace", str(trace), "--metrics", str(metrics)])
        assert code == 0
        forest = load_trace(trace)
        assert forest.manifest is not None
        assert "experiment" in {node.name for node in forest.walk()}
        payload = json.loads(metrics.read_text())
        assert payload["manifest"]["config"]["seed"] == 2015
        assert payload["manifest"]["experiments"]["t1"]["ok"] is True
        load_run(metrics=metrics)

    def test_trace_chrome_format(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        code = main(
            [*self.BASE, "--trace", str(trace), "--trace-format", "chrome"]
        )
        assert code == 0
        events = read_json(trace, CHROME_TRACE)["traceEvents"]
        assert "experiment" in {event["name"] for event in events}
        payload = json.loads(trace.read_text())
        assert payload["otherData"]["schema_version"] == 1

    def test_rendered_output_identical_with_and_without_trace(self, capsys, tmp_path):
        assert main(list(self.BASE)) == 0
        plain = capsys.readouterr().out
        trace = tmp_path / "trace.jsonl"
        assert main([*self.BASE, "--trace", str(trace)]) == 0
        observed = capsys.readouterr().out

        def tables_only(text):
            return [
                line
                for line in text.splitlines()
                if not line.startswith("[") and "experiments ok" not in line
            ]

        assert tables_only(plain) == tables_only(observed)

    def test_missing_artifact_directory_is_an_early_error(self, capsys, tmp_path):
        trace = tmp_path / "no" / "such" / "dir" / "trace.jsonl"
        assert main([*self.BASE, "--trace", str(trace)]) == 2
        assert "--trace" in capsys.readouterr().err

    def test_json_report_carries_wallclock_block(self, capsys, tmp_path):
        report = tmp_path / "run.json"
        assert main([*self.BASE, "--json", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert set(payload["wall_seconds_by_experiment"]) == {"t1"}
        assert payload["wall_seconds_by_experiment"]["t1"] >= 0.0
        assert payload["experiments"][0]["failed_unit"] is None


class TestCheckScript:
    def test_check_script_passes_on_real_artifacts(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "f7", "--quick", "--activations", "600",
                    "--trace", str(trace), "--metrics", str(metrics),
                ]
            )
            == 0
        )
        capsys.readouterr()

        assert (
            obs_cli.main(
                [
                    "check",
                    "--trace", str(trace),
                    "--metrics", str(metrics),
                    "--require-coverage",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "OK" in out and "covers" in out

        # And it really fails on a broken artifact.
        trace.write_text("not json\n")
        assert obs_cli.main(["check", "--trace", str(trace)]) == 1
        assert "FAILED" in capsys.readouterr().err
