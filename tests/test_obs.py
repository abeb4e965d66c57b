"""Unit tests for the telemetry layer (:mod:`repro.obs`).

Covers the tracer core (nesting, thread safety, deterministic adoption),
the metrics registry (instruments, snapshot merge), both trace exporters
(JSONL + Chrome ``trace_event``, round-tripped through ``json.loads``),
the run manifest, and the artifact checks the readers make (the CI smoke
job runs them through ``repro-obs check``).
The end-to-end bit-identity and CLI contracts live in
``tests/test_obs_integration.py``.
"""

from __future__ import annotations

import json
import pickle
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObsError, UnitExecutionError
from repro.obs import (
    DEFAULT_BUCKETS,
    TRACE_SCHEMA,
    Histogram,
    MetricsRegistry,
    Tracer,
    chrome_trace_events,
    current_registry,
    current_tracer,
    metrics_active,
    tracing,
    write_chrome_trace,
    write_jsonl,
    write_metrics,
)
from repro import obs
from repro.obs.manifest import build_manifest
from repro.obs.query import load_run, load_trace
from repro.obs.validate import (
    CHROME_TRACE,
    METRICS_FILE,
    ArtifactError,
    read_json,
    require_span_coverage,
)


class TestTracer:
    def test_spans_nest_and_record_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        # Inner closes first but seq reflects open order.
        assert by_name["outer"].seq < by_name["inner"].seq
        assert by_name["inner"].start >= by_name["outer"].start
        assert by_name["inner"].end <= by_name["outer"].end

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert [s.name for s in tracer.spans] == ["doomed"]
        # The stack unwound: the next span is back at depth 0.
        with tracer.span("after"):
            pass
        assert tracer.spans[-1].depth == 0

    def test_attrs_set_inside_the_body(self):
        tracer = Tracer()
        with tracer.span("work", fixed=1) as handle:
            handle.set(result=42)
        (span,) = tracer.spans
        assert span.attrs == {"fixed": 1, "result": 42}

    def test_instant_records_zero_duration(self):
        tracer = Tracer()
        tracer.instant("tick", k="v")
        (span,) = tracer.spans
        assert span.start == span.end
        assert span.attrs == {"k": "v"}

    def test_module_span_is_null_when_no_tracer(self):
        assert current_tracer() is None
        handle = obs.span("ignored", a=1)
        # Shared null object: usable as a context manager, records nothing.
        with handle as h:
            h.set(b=2)
        assert handle is obs.span("also_ignored")

    def test_tracing_installs_and_restores(self):
        tracer = Tracer()
        with tracing(tracer):
            assert current_tracer() is tracer
            with obs.span("seen"):
                pass
        assert current_tracer() is None
        assert [s.name for s in tracer.spans] == ["seen"]

    def test_threads_get_independent_depth_stacks(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def worker(label):
            with tracer.span(f"outer-{label}"):
                barrier.wait(timeout=10)
                with tracer.span(f"inner-{label}"):
                    pass

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        depths = {s.name: s.depth for s in tracer.spans}
        assert depths["inner-0"] == depths["inner-1"] == 1
        assert depths["outer-0"] == depths["outer-1"] == 0
        tids = {s.tid for s in tracer.spans}
        assert len(tids) == 2

    def test_adopt_restamps_seq_in_original_order(self):
        worker = Tracer()
        with worker.span("a"):
            pass
        with worker.span("b"):
            pass
        parent = Tracer()
        with parent.span("host"):
            pass
        parent.adopt(worker.spans, unit=3)
        names = [s.name for s in sorted(parent.spans, key=lambda s: s.seq)]
        assert names == ["host", "a", "b"]
        adopted = [s for s in parent.spans if s.name in ("a", "b")]
        assert all(s.attrs["unit"] == 3 for s in adopted)
        # Fresh seq values, strictly increasing, after the host span's.
        seqs = sorted(s.seq for s in parent.spans)
        assert seqs == list(range(len(seqs)))

    def test_adopt_offsets_depth_by_current_nesting(self):
        worker = Tracer()
        with worker.span("w_outer"):
            with worker.span("w_inner"):
                pass
        parent = Tracer()
        with parent.span("host"):
            parent.adopt(worker.spans)
        depths = {s.name: s.depth for s in parent.spans}
        assert depths == {"host": 0, "w_outer": 1, "w_inner": 2}

    def test_span_records_pickle(self):
        tracer = Tracer()
        with tracer.span("x", n=1):
            pass
        clone = pickle.loads(pickle.dumps(tracer.spans))
        assert clone == tracer.spans


@given(
    script=st.lists(
        st.sampled_from(["push", "pop", "instant"]), min_size=1, max_size=60
    )
)
@settings(max_examples=200, deadline=None)
def test_span_nesting_always_balances(script):
    """Property: any open/close/instant interleaving yields balanced spans.

    Whatever order the script pushes and pops, every recorded span must
    close inside its parent (interval containment per depth) and depth must
    equal the number of still-open ancestors at open time.
    """
    tracer = Tracer()
    open_stack = []
    expected = 0
    for op in script:
        if op == "push":
            cm = tracer.span(f"s{expected}")
            cm.__enter__()
            open_stack.append(cm)
            expected += 1
        elif op == "pop" and open_stack:
            open_stack.pop().__exit__(None, None, None)
        elif op == "instant":
            tracer.instant("i")
    while open_stack:
        open_stack.pop().__exit__(None, None, None)

    spans = sorted(tracer.spans, key=lambda s: s.seq)
    assert all(s.end >= s.start for s in spans)
    assert all(s.depth >= 0 for s in spans)
    # Replay open order: depth must match the live-ancestor count, exactly
    # the invariant an unbalanced tracer bug would break.
    live: list = []
    for s in spans:
        while live and not (live[-1].start <= s.start and s.end <= live[-1].end):
            live.pop()
        assert s.depth == len(live)
        if s.end > s.start:
            live.append(s)


class TestMetrics:
    def test_counter_rejects_negative_increment(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_histogram_bins_and_overflow(self):
        hist = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            hist.observe(value)
        assert hist.counts == [2, 1, 1]  # <=1, <=10, overflow
        assert hist.count == 4
        assert hist.total == pytest.approx(106.5)

    def test_histogram_rejects_nonincreasing_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=())

    def test_snapshot_merge_adds_counters_and_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(2)
        b.counter("n").inc(3)
        a.gauge("g").set(1)
        b.gauge("g").set(7)
        a.histogram("h", bounds=(1.0, 2.0)).observe(0.5)
        b.histogram("h", bounds=(1.0, 2.0)).observe(5.0)
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["n"] == 5
        assert snap["gauges"]["g"] == 7  # last write wins
        assert snap["histograms"]["h"]["counts"] == [1, 0, 1]
        assert snap["histograms"]["h"]["count"] == 2

    def test_merge_rejects_mismatched_bucket_layouts(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", bounds=(1.0, 2.0)).observe(0.5)
        b.histogram("h", bounds=(1.0, 3.0)).observe(0.5)
        with pytest.raises(ObsError, match="bucket bounds differ"):
            a.merge_snapshot(b.snapshot())

    def test_merge_rejects_misaligned_counts_vector_before_mutating(self):
        # A snapshot whose counts vector disagrees with its own bounds used
        # to partially merge (buckets added up to the mismatch point); it
        # must now fail loudly *before* touching the target registry.
        a = MetricsRegistry()
        a.histogram("h", bounds=(1.0, 2.0)).observe(0.5)
        before = a.snapshot()
        bad = {
            "histograms": {
                "h": {"bounds": [1.0, 2.0], "counts": [4, 4], "sum": 8.0, "count": 8}
            }
        }
        with pytest.raises(ObsError, match="misaligned"):
            a.merge_snapshot(bad)
        assert a.snapshot() == before

    def test_module_helpers_are_noops_when_off(self):
        assert current_registry() is None
        obs.inc("never", 5)
        obs.set_gauge("never", 1.0)
        obs.observe("never", 0.5)
        registry = MetricsRegistry()
        with metrics_active(registry):
            obs.inc("seen", 2)
        assert registry.snapshot()["counters"] == {"seen": 2}
        assert current_registry() is None

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert len(set(DEFAULT_BUCKETS)) == len(DEFAULT_BUCKETS)


class TestExporters:
    def _traced(self):
        tracer = Tracer()
        with tracer.span("experiment", id="t1"):
            with tracer.span("sim.run", program="blink"):
                pass
            with tracer.span("estimate.program", method="moments"):
                pass
        return tracer

    def test_jsonl_round_trip(self, tmp_path):
        tracer = self._traced()
        path = tmp_path / "trace.jsonl"
        write_jsonl(path, tracer.spans, manifest={"schema_version": 1})
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0] == {"type": "header", "schema": TRACE_SCHEMA}
        assert lines[1]["type"] == "manifest"
        spans = [rec for rec in lines if rec["type"] == "span"]
        assert [s["name"] for s in spans] == [
            "experiment",
            "sim.run",
            "estimate.program",
        ]
        seqs = [s["seq"] for s in spans]
        assert seqs == sorted(seqs)
        forest = load_trace(path)
        assert forest.spans == 3 and forest.manifest is not None

    def test_chrome_trace_round_trip_and_monotonic_ts(self, tmp_path):
        tracer = self._traced()
        path = tmp_path / "trace.json"
        write_chrome_trace(path, tracer.spans, manifest={"schema_version": 1})
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert {e["ph"] for e in events} == {"X"}
        assert all(e["dur"] >= 0 for e in events)
        # ts is monotonically non-decreasing within every (pid, tid) track.
        last = {}
        for event in events:
            track = (event["pid"], event["tid"])
            assert event["ts"] >= last.get(track, -1)
            last[track] = event["ts"]
        assert payload["otherData"] == {"schema_version": 1}
        read_json(path, CHROME_TRACE)

    def test_chrome_events_sorted_across_adopted_processes(self):
        # Fake spans from two "processes" interleaved in adoption order:
        # the exporter must still emit per-track monotonic timestamps.
        tracer = Tracer()
        worker = Tracer()
        with worker.span("late"):
            pass
        with tracer.span("host"):
            pass
        tracer.adopt(worker.spans)
        events = chrome_trace_events(tracer.spans)
        last = {}
        for event in events:
            track = (event["pid"], event["tid"])
            assert event["ts"] >= last.get(track, -1)
            last[track] = event["ts"]

    def test_exporters_reject_tracer_with_open_spans(self, tmp_path):
        # Flushing a tracer mid-span would silently drop the in-flight work
        # and read as a complete timeline; both exporters must refuse the
        # unbalanced stack and leave no artifact behind.
        tracer = Tracer()
        with tracer.span("finished"):
            pass
        cm = tracer.span("in_flight")
        cm.__enter__()
        try:
            assert tracer.open_spans == 1
            for writer, name in (
                (write_jsonl, "trace.jsonl"),
                (write_chrome_trace, "trace.json"),
            ):
                target = tmp_path / name
                with pytest.raises(ObsError, match="still open"):
                    writer(target, tracer)
                assert not target.exists()
        finally:
            cm.__exit__(None, None, None)
        # Balanced again: the same call succeeds and carries both spans.
        path = write_jsonl(tmp_path / "trace.jsonl", tracer)
        names = [
            rec["name"]
            for rec in map(json.loads, path.read_text().splitlines())
            if rec["type"] == "span"
        ]
        assert names == ["finished", "in_flight"]

    def test_metrics_file_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("sim.runs").inc(4)
        registry.histogram("h").observe(0.2)
        path = tmp_path / "metrics.json"
        write_metrics(path, registry, manifest=None)
        payload = json.loads(path.read_text())
        assert payload["metrics"]["counters"]["sim.runs"] == 4
        bundle = load_run(metrics=path)
        assert len(bundle.metrics["counters"]) == 1
        assert len(bundle.metrics["histograms"]) == 1


class TestManifest:
    def test_manifest_shape(self, quick_config=None):
        from repro.experiments.common import ExperimentConfig

        config = ExperimentConfig(quick=True, seed=2015, activations=600)
        manifest = build_manifest(config, ["t1", "f7"])
        assert manifest["schema_version"] == 1
        assert manifest["config"]["seed"] == 2015
        assert set(manifest["experiments"]) == {"t1", "f7"}
        for entry in manifest["experiments"].values():
            assert isinstance(entry["fingerprint"], str) and entry["fingerprint"]
        assert manifest["host"]["python"]
        json.dumps(manifest)  # plain JSON, no numpy leakage

    def test_fingerprint_tracks_config(self):
        from repro.experiments.common import ExperimentConfig

        a = build_manifest(ExperimentConfig(quick=True, seed=1), ["t1"])
        b = build_manifest(ExperimentConfig(quick=True, seed=2), ["t1"])
        assert (
            a["experiments"]["t1"]["fingerprint"]
            != b["experiments"]["t1"]["fingerprint"]
        )


class TestValidators:
    def test_jsonl_validator_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ArtifactError, match="not valid JSON"):
            load_trace(path)

    def test_jsonl_validator_rejects_decreasing_seq(self, tmp_path):
        span = {
            "type": "span", "name": "a", "start": 0.0, "end": 1.0,
            "depth": 0, "pid": 1, "tid": 0, "attrs": {},
        }
        path = tmp_path / "seq.jsonl"
        path.write_text(
            json.dumps({**span, "seq": 1}) + "\n" + json.dumps({**span, "seq": 0}) + "\n"
        )
        with pytest.raises(ArtifactError, match="seq"):
            load_trace(path)

    def test_chrome_validator_rejects_ts_regression(self, tmp_path):
        event = {"name": "a", "ph": "X", "dur": 1, "pid": 1, "tid": 0}
        path = tmp_path / "chrome.json"
        path.write_text(
            json.dumps({"traceEvents": [{**event, "ts": 5}, {**event, "ts": 3}]})
        )
        with pytest.raises(ArtifactError, match="decreases"):
            read_json(path, CHROME_TRACE)

    def test_metrics_validator_rejects_bucket_count_mismatch(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text(
            json.dumps(
                {
                    "metrics": {
                        "counters": {},
                        "gauges": {},
                        "histograms": {
                            "h": {"bounds": [1.0], "counts": [1], "sum": 1.0, "count": 1}
                        },
                    }
                }
            )
        )
        with pytest.raises(ArtifactError, match="buckets"):
            load_run(metrics=path)

    def test_metrics_validator_rejects_unknown_top_level_keys(self, tmp_path):
        # Regression: the serve embed landed as a new top-level key; the
        # reader must know the full vocabulary and reject strays instead
        # of silently ignoring them.
        path = tmp_path / "metrics.json"
        path.write_text(
            json.dumps(
                {
                    "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
                    "serve_stats": {},  # half-renamed embed key
                }
            )
        )
        with pytest.raises(ArtifactError, match="unknown top-level"):
            load_run(metrics=path)

    def test_metrics_validator_accepts_and_checks_serve_embed(self, tmp_path):
        serve = {
            "op": "stats",
            "schema": "repro.serve/1",
            "workers": 2,
            "uptime_s": 1.5,
            "totals": {"accepted": 10, "deferred": 1, "rejected": 0},
            "tenants": {"site-0@1.0": {"accepted": 10, "deferred": 1}},
            "latency": {"p50_ms": 1.0, "p99_ms": 4.0},
        }
        path = tmp_path / "metrics.json"
        payload = {
            "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
            "serve": serve,
        }
        path.write_text(json.dumps(payload))
        assert "serve" in read_json(path, METRICS_FILE)

        bad = dict(serve, schema="repro.serve/999")
        path.write_text(json.dumps({**payload, "serve": bad}))
        with pytest.raises(ArtifactError, match="schema"):
            read_json(path, METRICS_FILE)

        bad = {key: value for key, value in serve.items() if key != "totals"}
        path.write_text(json.dumps({**payload, "serve": bad}))
        with pytest.raises(ArtifactError, match="totals"):
            read_json(path, METRICS_FILE)

        bad = dict(serve, totals={"accepted": -1, "deferred": 0, "rejected": 0})
        path.write_text(json.dumps({**payload, "serve": bad}))
        with pytest.raises(ArtifactError, match="non-negative"):
            read_json(path, METRICS_FILE)

    def test_write_metrics_serve_embed_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("serve.shards_accepted").inc(3)
        serve = {
            "op": "stats",
            "schema": "repro.serve/1",
            "workers": 1,
            "uptime_s": 0.2,
            "totals": {"accepted": 3, "deferred": 0, "rejected": 0},
            "tenants": {},
            "latency": {"p99_ms": 0.5},
        }
        path = write_metrics(tmp_path / "m.json", registry, serve=serve)
        assert "serve" in read_json(path, METRICS_FILE)
        assert json.loads(path.read_text())["serve"]["workers"] == 1

    def test_span_coverage_requires_all_layers(self):
        with pytest.raises(ArtifactError, match="estimator"):
            require_span_coverage({"experiment", "sim.run"})
        covered = require_span_coverage({"experiment", "sim.run", "estimate.em"})
        assert covered == {"engine": True, "sim": True, "estimator": True}


class TestUnitExecutionError:
    def test_message_carries_unit_index(self):
        err = UnitExecutionError(3, "ValueError: boom", "Traceback ...")
        assert err.unit_index == 3
        assert "unit 3" in str(err)
        assert err.traceback_str == "Traceback ..."

    def test_survives_pickling(self):
        err = UnitExecutionError(7, "RuntimeError: x", "tb")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.unit_index == 7
        assert clone.message == "RuntimeError: x"
        assert clone.traceback_str == "tb"
