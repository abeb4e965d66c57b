"""Regression-attribution contracts (``repro.obs.compare`` + ``repro-obs``).

The acceptance spec from the issue: given two runs with a synthetically
injected slowdown, ``repro-obs explain`` must name the responsible span
and counter group within its top-3 attribution rows; reports must be
byte-identical for identical inputs at any ``--jobs``; and the counter
deltas must tolerate the float merge-order noise that exact equality
would misreport as drift.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ObsError
from repro.obs import obs_cli
from repro.obs.compare import (
    compare_runs,
    format_report,
    span_attribution,
)
from repro.obs.counters import (
    FLOAT_COUNTER_RTOL,
    SNAPSHOT_SCHEMA,
    counter_group,
    snapshot_deltas,
)
from repro.obs.query import load_run, load_trace
from repro.obs.validate import OBS_REPORT, OBS_REPORT_SCHEMA, read_json

from tests.test_obs_query import run_manifest, span_line, write_lines


def hw_snapshot(block_cycles=1000, mispredicts=40, energy=12.5):
    return {
        "schema": SNAPSHOT_SCHEMA,
        "totals": {
            "cycles.block": block_cycles,
            "branch.mispredict": mispredicts,
            "radio.energy_uj": energy,
        },
        "per_proc": {
            "main": {"cycles": block_cycles - 100, "invocations": 10},
            "isr": {"cycles": 100, "invocations": 2},
        },
    }


def make_run(tmp_path, tag, *, vector_s=0.1, em_mean=4.0, block_cycles=1000):
    """One synthetic run: trace + metrics file with hw-counter embed."""
    trace = write_lines(
        tmp_path / f"{tag}.jsonl",
        [
            span_line("experiment", 0.0, 0.3 + vector_s, 0, 0),
            span_line("sim.run", 0.0, 0.1 + vector_s, 1, 1),
            span_line("sim.vector_run", 0.0, vector_s, 2, 2),
            span_line("estimate.program", 0.2 + vector_s, 0.3 + vector_s, 1, 3),
        ],
    )
    metrics = tmp_path / f"{tag}_metrics.json"
    metrics.write_text(
        json.dumps(
            {
                "metrics": {
                    "counters": {"sim.runs": 3},
                    "gauges": {},
                    "histograms": {
                        "estimate.em_iterations": {
                            "bounds": [2, 4, 8],
                            "counts": [0, 0, 10, 0],
                            "count": 10,
                            "sum": em_mean * 10,
                        }
                    },
                },
                "manifest": run_manifest(),
                "hardware_counters": hw_snapshot(block_cycles=block_cycles),
            }
        )
    )
    return trace, metrics


@pytest.fixture
def run_pair(tmp_path):
    """Baseline vs a run with sim.vector_run 2.1x slower, cycles doubled,
    and the EM-iteration histogram shifted right."""
    before = make_run(tmp_path, "before")
    after = make_run(
        tmp_path, "after", vector_s=0.21, em_mean=6.4, block_cycles=2100
    )
    return before, after


class TestExplainNamesTheCulprit:
    def test_injected_slowdown_lands_in_top3_span_and_group(self, run_pair):
        (trace_a, metrics_a), (trace_b, metrics_b) = run_pair
        report = compare_runs(
            load_run(trace=trace_a, metrics=metrics_a),
            load_run(trace=trace_b, metrics=metrics_b),
        )
        top3_spans = [r["span"] for r in report["spans"][:3]]
        assert "sim.vector_run" in top3_spans
        top3_groups = [g["group"] for g in report["counters"]["groups"][:3]]
        assert "cycles" in top3_groups
        # the drill-down reaches procedures and histograms too
        assert report["counters"]["per_proc"][0]["procedure"] == "main"
        (hist,) = report["metrics"]["histograms"]
        assert hist["histogram"] == "estimate.em_iterations"
        assert hist["delta_mean"] == pytest.approx(2.4)
        # and the report artifact is schema-valid
        assert report["schema"] == OBS_REPORT_SCHEMA

    def test_report_ranks_by_contribution_share(self, run_pair):
        (trace_a, _), (trace_b, _) = run_pair
        rows = span_attribution(load_trace(trace_a), load_trace(trace_b))
        assert rows[0]["span"] == "sim.vector_run"
        assert rows[0]["ratio"] == pytest.approx(2.1)
        assert rows[0]["share"] == pytest.approx(1.0)

    def test_rendered_table_names_the_sections(self, run_pair):
        (trace_a, metrics_a), (trace_b, metrics_b) = run_pair
        report = compare_runs(
            load_run(trace=trace_a, metrics=metrics_a),
            load_run(trace=trace_b, metrics=metrics_b),
        )
        text = format_report(report)
        for needle in (
            "span self-time movers",
            "counter groups",
            "per-procedure exclusive cycles",
            "histogram shifts",
            "sim.vector_run",
        ):
            assert needle in text

    def test_nothing_comparable_is_an_error(self, run_pair):
        (trace_a, _), (_, metrics_b) = run_pair
        with pytest.raises(ObsError, match="nothing to compare"):
            compare_runs(
                load_run(trace=trace_a), load_run(metrics=metrics_b)
            )

    def test_cross_run_fingerprint_mismatch_is_a_note_not_fatal(
        self, tmp_path, run_pair
    ):
        (trace_a, metrics_a), _ = run_pair
        other = json.loads(metrics_a.read_text())
        other["manifest"]["experiments"]["F1"]["fingerprint"] = "zzz999"
        other_path = tmp_path / "other_metrics.json"
        other_path.write_text(json.dumps(other))
        report = compare_runs(
            load_run(metrics=metrics_a), load_run(metrics=other_path)
        )
        assert any("fingerprint" in note for note in report["notes"])


class TestCliDeterminism:
    def test_byte_identical_reports_at_any_jobs(self, run_pair, tmp_path, capsys):
        (trace_a, metrics_a), (trace_b, metrics_b) = run_pair
        outputs = []
        for jobs in ("1", "4"):
            out = tmp_path / f"report_j{jobs}.json"
            code = obs_cli.main(
                [
                    "explain", str(trace_a), str(trace_b),
                    "--metrics-before", str(metrics_a),
                    "--metrics-after", str(metrics_b),
                    "--jobs", jobs,
                    "--json", str(out),
                ]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        capsys.readouterr()

    def test_json_artifact_validates(self, run_pair, tmp_path, capsys):
        (trace_a, metrics_a), (trace_b, metrics_b) = run_pair
        out = tmp_path / "report.json"
        assert (
            obs_cli.main(
                [
                    "explain", str(trace_a), str(trace_b),
                    "--metrics-before", str(metrics_a),
                    "--metrics-after", str(metrics_b),
                    "--json", str(out),
                ]
            )
            == 0
        )
        report = read_json(out, OBS_REPORT)
        sections = [report[key] for key in ("spans", "counters", "metrics")]
        assert report["kind"] == "runs" and None not in sections
        capsys.readouterr()

    def test_mixed_artifact_kinds_exit_1(self, run_pair, capsys):
        (trace_a, metrics_a), _ = run_pair
        assert obs_cli.main(["explain", str(trace_a), str(metrics_a)]) == 1
        assert "cannot compare" in capsys.readouterr().err

    def test_unreadable_input_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert obs_cli.main(["aggregate", str(missing)]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_flamegraph_subcommand_round_trips(self, run_pair, tmp_path, capsys):
        from repro.obs.query import parse_collapsed

        (trace_a, _), _ = run_pair
        out = tmp_path / "trace.collapsed"
        assert obs_cli.main(["flamegraph", str(trace_a), "--out", str(out)]) == 0
        parsed = parse_collapsed(out.read_text())
        assert sum(parsed.values()) == pytest.approx(0.4e6, abs=2)
        capsys.readouterr()

    def test_diff_counters_subcommand(self, run_pair, tmp_path, capsys):
        snap_a = tmp_path / "a.json"
        snap_b = tmp_path / "b.json"
        snap_a.write_text(json.dumps(hw_snapshot()))
        snap_b.write_text(json.dumps(hw_snapshot(block_cycles=2100)))
        out = tmp_path / "dc.json"
        assert (
            obs_cli.main(
                ["diff-counters", str(snap_a), str(snap_b), "--json", str(out)]
            )
            == 0
        )
        assert "cycles.block" in capsys.readouterr().out
        assert read_json(out, OBS_REPORT)["kind"] == "counters"

    @pytest.mark.parametrize(
        "malformed",
        [
            {"schema": SNAPSHOT_SCHEMA, "per_proc": {}},
            {"schema": SNAPSHOT_SCHEMA, "totals": {"a": -1}, "per_proc": {}},
        ],
        ids=["no-totals", "negative-count"],
    )
    def test_diff_counters_rejects_malformed_snapshots(
        self, malformed, tmp_path, capsys
    ):
        # A snapshot with no totals once read as "no counters moved", and a
        # negative count as a mover; both are malformed artifacts (exit 1),
        # whichever side they are on.
        good = tmp_path / "good.json"
        bad = tmp_path / "bad.json"
        good.write_text(json.dumps(hw_snapshot()))
        bad.write_text(json.dumps(malformed))
        for before, after in ((bad, bad), (good, bad), (bad, good)):
            assert obs_cli.main(["diff-counters", str(before), str(after)]) == 1
            err = capsys.readouterr().err
            assert "FAILED" in err and "bad.json" in err


class TestCounterDeltas:
    """Satellite: relative deltas, stable top-movers, float tolerance."""

    def test_snapshot_deltas_are_signed_and_ranked(self):
        rows = snapshot_deltas(hw_snapshot(), hw_snapshot(block_cycles=400,
                                                          mispredicts=90))
        assert [r["counter"] for r in rows] == [
            "cycles.block", "branch.mispredict"
        ]
        assert rows[0]["delta"] == -600  # signed: improvements rank too
        assert rows[0]["relative"] == pytest.approx(-0.6)
        assert rows[0]["group"] == "cycles"
        assert rows[1]["delta"] == 50

    def test_top_movers_ordering_is_stable_under_ties(self):
        before = {"schema": SNAPSHOT_SCHEMA,
                  "totals": {"b.x": 10, "a.x": 10}, "per_proc": {}}
        after = {"schema": SNAPSHOT_SCHEMA,
                 "totals": {"b.x": 20, "a.x": 20}, "per_proc": {}}
        rows = snapshot_deltas(before, after)
        # equal |delta| -> alphabetical by counter name, every time
        assert [r["counter"] for r in rows] == ["a.x", "b.x"]

    def test_float_merge_noise_is_not_a_mover(self):
        rows = snapshot_deltas(
            hw_snapshot(energy=12.5), hw_snapshot(energy=12.5 * (1 + 1e-13))
        )
        assert all(r["counter"] != "radio.energy_uj" for r in rows)

    def test_counter_group_is_the_dotted_prefix(self):
        assert counter_group("cycles.block") == "cycles"
        assert counter_group("radio.energy_uj") == "radio"
        assert counter_group("ungrouped") == "ungrouped"
        assert FLOAT_COUNTER_RTOL < 1e-6
