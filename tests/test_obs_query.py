"""Contracts of the telemetry query engine (``repro.obs.query``).

Span forests must rebuild nesting from the recorded open order and depth
(never wall-clock — adopted worker spans keep foreign epochs), self-time
must partition inclusive time exactly, the flamegraph export must be valid
collapsed-stack text that round-trips with identical totals, and the
trace×metrics join must refuse mismatched runs.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ObsError
from repro.experiments.common import ExperimentConfig
from repro.obs.manifest import build_manifest
from repro.obs.query import (
    aggregate,
    critical_path,
    format_aggregate,
    format_critical_path,
    load_run,
    load_trace,
    parse_collapsed,
    to_collapsed,
)
from repro.obs.trace import TRACE_SCHEMA, Tracer, write_jsonl
from repro.obs.validate import ArtifactError


def span_line(name, start, end, depth, seq, pid=1, tid=1, attrs=None):
    return json.dumps(
        {
            "type": "span",
            "name": name,
            "start": start,
            "end": end,
            "depth": depth,
            "seq": seq,
            "pid": pid,
            "tid": tid,
            "attrs": attrs or {},
        }
    )


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def run_manifest(fingerprint="abc123"):
    """A real run manifest whose one experiment, F1, has ``fingerprint``."""
    manifest = build_manifest(ExperimentConfig(quick=True), [])
    manifest["experiments"] = {"F1": {"fingerprint": fingerprint}}
    return manifest


@pytest.fixture
def traced(tmp_path):
    """A real exporter-written trace: experiment > (sim.run > leaf, est)."""
    tracer = Tracer()
    with tracer.span("experiment"):
        with tracer.span("sim.run"):
            with tracer.span("sim.step"):
                pass
        with tracer.span("estimate.program"):
            pass
    return write_jsonl(
        tmp_path / "trace.jsonl",
        tracer,
        manifest={
            "schema_version": 1,
            "experiments": {"F1": {"fingerprint": "abc123"}},
        },
    )


class TestLoadTrace:
    def test_versioned_stream_round_trips(self, traced):
        forest = load_trace(traced)
        assert forest.schema == TRACE_SCHEMA
        assert forest.spans == 4
        assert forest.manifest["schema_version"] == 1
        assert forest.fingerprints() == {"F1": "abc123"}
        (root,) = forest.roots
        assert root.name == "experiment"
        assert [c.name for c in root.children] == ["sim.run", "estimate.program"]
        assert [c.name for c in root.children[0].children] == ["sim.step"]

    def test_legacy_headerless_stream_accepted(self, tmp_path):
        path = write_lines(
            tmp_path / "legacy.jsonl",
            [
                json.dumps({"type": "manifest", "schema_version": 1}),
                span_line("root", 0.0, 1.0, 0, 0),
                span_line("leaf", 0.2, 0.8, 1, 1),
            ],
        )
        forest = load_trace(path)
        assert forest.schema is None  # no header -> legacy
        assert forest.spans == 2
        assert forest.roots[0].children[0].name == "leaf"
        assert forest.manifest is not None

    def test_unknown_header_schema_is_loud(self, tmp_path):
        path = write_lines(
            tmp_path / "future.jsonl",
            [
                json.dumps({"type": "header", "schema": "repro.trace/99"}),
                span_line("root", 0.0, 1.0, 0, 0),
            ],
        )
        with pytest.raises(ObsError, match="repro.trace/99"):
            load_trace(path)

    def test_empty_and_span_free_traces_rejected(self, tmp_path):
        empty = write_lines(tmp_path / "empty.jsonl", [""])
        with pytest.raises(ObsError, match="no span records"):
            load_trace(empty)
        headers_only = write_lines(
            tmp_path / "h.jsonl",
            [json.dumps({"type": "header", "schema": TRACE_SCHEMA})],
        )
        with pytest.raises(ObsError, match="no span records"):
            load_trace(headers_only)

    def test_nesting_uses_depth_not_wallclock(self, tmp_path):
        # An adopted worker span keeps its foreign epoch: its start/end lie
        # entirely outside the parent's interval.  Interval math would
        # orphan it; the recorded depth must still nest it under the root.
        path = write_lines(
            tmp_path / "adopted.jsonl",
            [
                span_line("parent", 100.0, 101.0, 0, 0),
                span_line("adopted.child", 5.0, 5.5, 1, 1),
            ],
        )
        forest = load_trace(path)
        (root,) = forest.roots
        assert [c.name for c in root.children] == ["adopted.child"]

    def test_tracks_do_not_cross_nest(self, tmp_path):
        path = write_lines(
            tmp_path / "tracks.jsonl",
            [
                span_line("main", 0.0, 1.0, 0, 0, pid=1, tid=1),
                span_line("worker", 0.1, 0.9, 0, 1, pid=1, tid=2),
            ],
        )
        forest = load_trace(path)
        assert [r.name for r in forest.roots] == ["main", "worker"]
        assert forest.total_inclusive == pytest.approx(1.8)

    def test_validator_accepts_versioned_and_rejects_misplaced_header(
        self, traced, tmp_path
    ):
        forest = load_trace(traced)
        assert forest.schema == TRACE_SCHEMA and forest.spans == 4
        bad = write_lines(
            tmp_path / "bad.jsonl",
            [
                span_line("root", 0.0, 1.0, 0, 0),
                json.dumps({"type": "header", "schema": TRACE_SCHEMA}),
            ],
        )
        with pytest.raises(ArtifactError, match="header must be the first line"):
            load_trace(bad)


class TestAggregate:
    @pytest.fixture
    def forest(self, tmp_path):
        # root [0,10]; children a [0,4] and a [4,6]; b [6,9]; root self = 1
        return load_trace(
            write_lines(
                tmp_path / "t.jsonl",
                [
                    span_line("root", 0.0, 10.0, 0, 0),
                    span_line("a", 0.0, 4.0, 1, 1),
                    span_line("a", 4.0, 6.0, 1, 2),
                    span_line("b", 6.0, 9.0, 1, 3),
                ],
            )
        )

    def test_exclusive_partitions_inclusive(self, forest):
        rows = {r["name"]: r for r in aggregate(forest)}
        assert rows["root"]["inclusive_s"] == pytest.approx(10.0)
        assert rows["root"]["exclusive_s"] == pytest.approx(1.0)
        assert rows["a"]["count"] == 2
        assert rows["a"]["exclusive_s"] == pytest.approx(6.0)
        assert rows["a"]["min_s"] == pytest.approx(2.0)
        assert rows["a"]["max_s"] == pytest.approx(4.0)
        # self times partition the root's wall-clock exactly
        total_self = sum(r["exclusive_s"] for r in rows.values())
        assert total_self == pytest.approx(forest.total_inclusive)

    def test_ordering_is_self_time_then_name(self, forest):
        assert [r["name"] for r in aggregate(forest)] == ["a", "b", "root"]

    def test_critical_path_follows_heaviest_child(self, forest):
        path = critical_path(forest)
        assert [r["name"] for r in path] == ["root", "a"]
        assert path[0]["fraction_of_root"] == pytest.approx(1.0)
        assert path[1]["fraction_of_root"] == pytest.approx(0.4)

    def test_formatters_are_deterministic_text(self, forest):
        table = format_aggregate(aggregate(forest), top=2)
        assert table.splitlines()[1].startswith("a")
        assert "root" not in table  # top=2 keeps a and b only
        walk = format_critical_path(critical_path(forest))
        assert "root" in walk and "40.0% of root" in walk


class TestFlamegraph:
    def test_collapsed_lines_and_exact_round_trip(self, tmp_path):
        forest = load_trace(
            write_lines(
                tmp_path / "t.jsonl",
                [
                    span_line("root", 0.0, 1.0, 0, 0),
                    span_line("leaf", 0.0, 0.25, 1, 1),
                    span_line("leaf", 0.25, 0.5, 1, 2),
                ],
            )
        )
        text = to_collapsed(forest)
        assert text.endswith("\n")
        assert "root 500000" in text
        assert "root;leaf 500000" in text  # two calls re-aggregate
        parsed = parse_collapsed(text)
        # parse -> re-aggregate -> identical totals (integers, exact)
        assert parsed == {"root": 500000, "root;leaf": 500000}
        assert parse_collapsed(text) == parse_collapsed(
            "\n".join(sorted(text.splitlines()))
        )

    def test_semicolons_in_span_names_are_sanitized(self, tmp_path):
        forest = load_trace(
            write_lines(
                tmp_path / "t.jsonl",
                [span_line("a;b", 0.0, 1.0, 0, 0)],
            )
        )
        assert to_collapsed(forest) == "a:b 1000000\n"

    def test_zero_self_frames_are_dropped_but_nested_paths_kept(self, tmp_path):
        # A pure wrapper (self time 0) emits no line of its own, but still
        # appears as a frame on its children's stacks.
        forest = load_trace(
            write_lines(
                tmp_path / "t.jsonl",
                [
                    span_line("wrap", 0.0, 1.0, 0, 0),
                    span_line("leaf", 0.0, 1.0, 1, 1),
                ],
            )
        )
        assert to_collapsed(forest) == "wrap;leaf 1000000\n"

    def test_malformed_collapsed_text_rejected(self):
        with pytest.raises(ObsError, match="not an integer"):
            parse_collapsed("root;leaf abc\n")
        with pytest.raises(ObsError, match="no value field"):
            parse_collapsed("rootonly\n")


class TestLoadRun:
    def metrics_file(self, tmp_path, fingerprint="abc123", hw=None):
        payload = {
            "metrics": {"counters": {"sim.runs": 3}, "gauges": {}, "histograms": {}},
            "manifest": run_manifest(fingerprint),
        }
        if hw is not None:
            payload["hardware_counters"] = hw
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(payload))
        return path

    def test_join_carries_all_artifacts(self, traced, tmp_path):
        hw = {"schema": "repro.hwcounters/1", "totals": {}, "per_proc": {}}
        bundle = load_run(
            trace=traced, metrics=self.metrics_file(tmp_path, hw=hw)
        )
        assert bundle.forest.spans == 4
        assert bundle.metrics["counters"] == {"sim.runs": 3}
        assert bundle.hw_counters == hw
        assert bundle.fingerprints() == {"F1": "abc123"}

    def test_fingerprint_mismatch_is_an_error(self, traced, tmp_path):
        with pytest.raises(ObsError, match="not from the same run"):
            load_run(
                trace=traced,
                metrics=self.metrics_file(tmp_path, fingerprint="zzz999"),
            )

    def test_needs_at_least_one_artifact(self):
        with pytest.raises(ObsError, match="needs a trace"):
            load_run()
