"""Estimator-health telemetry (:mod:`repro.obs.health`).

Four layers of coverage:

* detector unit tests — Page–Hinkley / CUSUM alarm-and-reset mechanics,
  innovation-signal math;
* a synthetic binomial calibration check — the coverage audit, fed honest
  Wald intervals over draws with a *known* generating probability, must
  read back ~nominal coverage;
* the F7-style drift suite — a compiled probe program streamed through a
  real :class:`~repro.core.online.OnlineEstimator`: injected regime shifts
  must alarm within a small delay, stationary streams must never alarm,
  and empirical CI coverage against the analytic generating probability
  must sit within three points of nominal;
* serve integration — per-tenant monitors in the ingestion service
  (uptime/health stats embeds, backlog SLO breaches, causal trace ids,
  bit-identity at any worker count), the fleet report/alert-log readers,
  and the ``repro-obs health`` CLI gate.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.core.online import OnlineEstimator, OnlineOptions
from repro.errors import ObsError
from repro.lang import compile_source
from repro.mote.platform import MICAZ_LIKE
from repro.obs import MetricsRegistry, Tracer, metrics_active, tracing
from repro.obs import health as health_module
from repro.obs import obs_cli
from repro.obs.health import (
    AlertEvent,
    CoverageAudit,
    Cusum,
    EstimatorHealthMonitor,
    PageHinkley,
    build_health_report,
    read_alert_log,
    residual_signals,
    write_alert_log,
)
from repro.obs.validate import (
    HEALTH_REPORT,
    SERVE_STATS,
    ArtifactError,
    check,
    read_json,
)
from repro.profiling import TimingProfiler
from repro.serve import IngestionService, ServiceConfig, parse_request_line
from repro.serve.loadgen import build_uploads, default_fleet, run_fleet
from repro.sim import run_program
from repro.workloads.inputs import build_sensors
from repro.workloads.registry import workload_by_name

# ---------------------------------------------------------------------------
# The drift probe: one branch whose taken-probability is known analytically.
# With ch ~ N(620, 120), P(v > 700) = 1 - Phi(80/120); the audit is held to
# *this* number, not the realized run's counters — realized truth is
# correlated with the estimate's own prefix and reads conservatively high.
# ---------------------------------------------------------------------------

PROBE_SRC = """
proc main() {
    var v = sense(ch);
    if (v > 700) {
        send(v);
    }
    led(0);
}
"""
P_TRUE = 1.0 - 0.5 * (1.0 + math.erf((700.0 - 620.0) / (120.0 * math.sqrt(2.0))))
SHARD = 40


@pytest.fixture(scope="module")
def probe_program():
    return compile_source(PROBE_SRC, "drift-probe")


def probe_durations(program, mean, seed, activations):
    """One regime's duration stream for the probe's ``main``."""
    sensors = build_sensors({"ch": (mean, 120.0)}, scenario="default", rng=seed)
    result = run_program(program, MICAZ_LIKE, sensors, activations=activations)
    profiler = TimingProfiler(MICAZ_LIKE, rng=seed + 1)
    return profiler.collect(result.records).durations("main")


def stream_shards(program, durations, monitor=None):
    """Absorb ``durations`` in fixed-size shards; returns (estimator, alarms).

    ``alarms`` is the list of shard indices where the drift-alarm count
    increased.
    """
    est = OnlineEstimator(program, MICAZ_LIKE, OnlineOptions(epsilon=None))
    monitor = est.attach_health(monitor or EstimatorHealthMonitor())
    alarm_shards = []
    for i in range(len(durations) // SHARD):
        before = monitor.drift_alarms
        est.absorb({"main": durations[i * SHARD : (i + 1) * SHARD]})
        if monitor.drift_alarms > before:
            alarm_shards.append(i)
    return est, monitor, alarm_shards


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# Detector units
# ---------------------------------------------------------------------------


class TestDetectors:
    def test_page_hinkley_quiet_on_stationary_noise(self):
        rng = np.random.default_rng(0)
        ph = PageHinkley()
        assert not any(ph.update(x) for x in rng.normal(0.0, 1.0, 500))
        assert ph.score < 1.0

    def test_cusum_quiet_on_stationary_noise(self):
        rng = np.random.default_rng(1)
        cusum = Cusum()
        assert not any(cusum.update(x) for x in rng.normal(0.0, 1.0, 500))
        assert cusum.score < 1.0

    @pytest.mark.parametrize("detector_cls", [PageHinkley, Cusum])
    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_level_shift_alarms_in_either_direction(self, detector_cls, direction):
        rng = np.random.default_rng(2)
        detector = detector_cls()
        stream = np.concatenate(
            [rng.normal(0.0, 1.0, 50), rng.normal(direction * 3.0, 1.0, 50)]
        )
        fired_at = None
        for i, x in enumerate(stream):
            if detector.update(x):
                fired_at = i
                break
        assert fired_at is not None, "a 3-sigma level shift must alarm"
        assert fired_at >= 50, "no alarm before the shift"
        # The alarming update reset the statistic; the detector is re-armed.
        assert detector.statistic == 0.0

    @pytest.mark.parametrize("detector_cls", [PageHinkley, Cusum])
    def test_alarm_resets_for_the_next_episode(self, detector_cls):
        detector = detector_cls()
        episodes = 0
        # Two separated bursts of a strong shift, quiet in between.
        for x in [0.0] * 20 + [5.0] * 20 + [0.0] * 40 + [5.0] * 20:
            if detector.update(x):
                episodes += 1
        assert episodes >= 2


class TestResidualSignals:
    class _Moments:
        def __init__(self, mean, variance):
            self.mean = mean
            self.variance = variance

    def test_z_score_of_the_shard_mean(self):
        moments = {"p": self._Moments(10.0, 4.0)}
        signals = residual_signals(moments, {"p": [11.0, 13.0, 12.0, 12.0]})
        # mean 12, mu 10, sigma 2, n 4 -> z = 2 / (2/2) = 2.
        assert signals == {"p": pytest.approx(2.0)}

    def test_skips_unpredicted_and_underpopulated_procedures(self):
        moments = {"p": self._Moments(10.0, 4.0)}
        signals = residual_signals(moments, {"p": [10.0], "ghost": [1.0, 2.0]})
        assert signals == {}  # "p" too small, "ghost" has no prediction

    def test_zero_variance_prediction_does_not_divide_by_zero(self):
        moments = {"p": self._Moments(10.0, 0.0)}
        signals = residual_signals(moments, {"p": [10.0, 10.0]})
        assert math.isfinite(signals["p"])


# ---------------------------------------------------------------------------
# Coverage audit
# ---------------------------------------------------------------------------


class TestCoverageAudit:
    def test_synthetic_binomial_calibration(self):
        # Honest 95% Wald intervals over binomial draws with a known p must
        # read back ~95% empirical coverage — the audit measures calibration,
        # it must not distort it.
        rng = np.random.default_rng(2015)
        audit = CoverageAudit()
        n, p = 200, 0.3
        for _ in range(2000):
            theta = rng.binomial(n, p) / n
            half_width = 1.96 * math.sqrt(max(theta * (1 - theta), 1e-12) / n)
            audit.record("probe", [theta], [half_width], [p], [float(n)])
        assert audit.checks == 2000
        assert audit.coverage() == pytest.approx(0.95, abs=0.02)

    def test_low_effective_count_is_not_audited(self):
        audit = CoverageAudit()
        recorded = audit.record("p", [0.5], [0.1], [0.5], [10.0])
        assert recorded == 0 and audit.checks == 0
        assert audit.coverage() is None

    def test_honest_ignorance_width_skipped_without_counts(self):
        audit = CoverageAudit()
        # Without arm counts the 0.5 half-width (the prior's full interval)
        # is the "nothing learned yet" marker and carries no information.
        assert audit.record("p", [0.5, 0.4], [0.5, 0.1], [0.9, 0.45]) == 1
        assert audit.coverage() == 1.0

    def test_length_mismatch_raises(self):
        audit = CoverageAudit()
        with pytest.raises(ObsError, match="lengths"):
            audit.record("p", [0.5, 0.6], [0.1], [0.5, 0.6])


# ---------------------------------------------------------------------------
# Alert events and logs
# ---------------------------------------------------------------------------


class TestAlerts:
    def test_vocabulary_is_closed(self):
        with pytest.raises(ObsError, match="unknown alert kind"):
            AlertEvent(kind="panic", severity="critical", source="t", value=1, threshold=1)
        with pytest.raises(ObsError, match="unknown severity"):
            AlertEvent(kind="drift", severity="mild", source="t", value=1, threshold=1)

    def test_log_round_trip(self, tmp_path):
        events = [
            AlertEvent(
                kind="drift", severity="critical", source="t", value=2.0,
                threshold=1.0, shard=7, procedure="main", detail="cusum alarm #1",
            ),
            AlertEvent(
                kind="slo-backlog", severity="critical", source="t", value=0.9,
                threshold=0.8,
            ),
        ]
        path = write_alert_log(tmp_path / "alerts.jsonl", events)
        assert read_alert_log(path) == events
        alerts = read_alert_log(path)
        assert len(alerts) == 2
        assert {alert.kind for alert in alerts} == {"drift", "slo-backlog"}

    def test_empty_log_is_valid(self, tmp_path):
        path = write_alert_log(tmp_path / "alerts.jsonl", [])
        assert read_alert_log(path) == []

    def test_read_rejects_wrong_schema_and_garbage(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        path.write_text('{"schema": "repro.health-alert/999", "kind": "drift"}\n')
        with pytest.raises(ObsError, match="schema"):
            read_alert_log(path)
        path.write_text("not json\n")
        with pytest.raises(ObsError, match="not valid JSON"):
            read_alert_log(path)

    def test_validator_rejects_unknown_kind(self, tmp_path):
        event = AlertEvent(
            kind="drift", severity="critical", source="t", value=1.0, threshold=1.0
        ).to_json()
        path = tmp_path / "alerts.jsonl"
        path.write_text(json.dumps({**event, "kind": "panic"}) + "\n")
        with pytest.raises(ArtifactError, match="unknown alert kind"):
            read_alert_log(path)


# ---------------------------------------------------------------------------
# Monitor mechanics (no simulator: a fake trajectory point)
# ---------------------------------------------------------------------------


@dataclass
class FakePoint:
    shard_index: int
    total_samples: int = 100
    families_rebuilt: int = 0
    thetas: dict = field(default_factory=dict)
    half_widths: dict = field(default_factory=dict)


class TestMonitor:
    def test_drift_alarm_after_warmup(self):
        monitor = EstimatorHealthMonitor(warmup_shards=4)
        fired = []
        for i in range(20):
            signal = 0.1 if i < 4 else 6.0
            fired += monitor.observe_absorb(FakePoint(i), signals={"p": signal})
            if fired:
                break
        assert fired and fired[0].kind == "drift"
        assert fired[0].procedure == "p"
        assert fired[0].severity == "critical"
        assert monitor.drift_alarms == 1
        assert monitor.alarmed_procedures == ("p",)
        assert "alarm #1" in fired[0].detail

    def test_warmup_must_be_at_least_one_shard(self):
        with pytest.raises(ObsError, match="warmup_shards"):
            EstimatorHealthMonitor(warmup_shards=0)

    def test_coverage_alert_is_edge_triggered(self, monkeypatch):
        monkeypatch.setattr(health_module, "MIN_COVERAGE_CHECKS", 5)
        monitor = EstimatorHealthMonitor(truth={"p": [0.5]})
        point = FakePoint(0, thetas={"p": [0.9]}, half_widths={"p": [0.01]})
        fired = []
        for i in range(10):
            fired += monitor.observe_absorb(
                FakePoint(i, thetas=point.thetas, half_widths=point.half_widths),
                signals={},
                arm_counts={"p": [100.0]},
            )
        coverage_alerts = [a for a in fired if a.kind == "coverage"]
        assert len(coverage_alerts) == 1  # breached once, not re-emitted
        assert monitor.audit.coverage() == 0.0

    def test_staleness_edge_triggered_with_fake_clock(self):
        now = [0.0]
        monitor = EstimatorHealthMonitor(clock=lambda: now[0])
        assert monitor.staleness_s(now=5.0) is None  # nothing absorbed yet
        monitor.observe_absorb(FakePoint(0), signals={})
        assert monitor.staleness_s(now=20.0) == 20.0
        assert monitor.staleness_s() == 0.0  # the injected clock
        now[0] = 30.0
        monitor.observe_absorb(FakePoint(1), signals={})  # fresh again
        assert monitor.staleness_s(now=30.0) == 0.0
        assert monitor.staleness_s(now=45.0) == 15.0
        assert monitor.summary(now=45.0)["staleness_s"] == 15.0

    def test_shards_since_rebuild_resets_on_rebuild(self):
        monitor = EstimatorHealthMonitor()
        for i in range(4):
            monitor.observe_absorb(FakePoint(i), signals={})
        assert monitor.summary()["shards_since_rebuild"] == 4
        monitor.observe_absorb(FakePoint(4, families_rebuilt=1), signals={})
        assert monitor.summary()["shards_since_rebuild"] == 0

    def test_alerts_fan_out_to_metrics_trace_and_sink(self):
        seen = []
        monitor = EstimatorHealthMonitor(sink=seen.append)
        registry, tracer = MetricsRegistry(), Tracer()
        with metrics_active(registry), tracing(tracer):
            monitor.emit("slo-backlog", "critical", value=0.9, threshold=0.8)
        assert [a.kind for a in seen] == ["slo-backlog"]
        assert monitor.alerts == tuple(seen)
        counters = registry.snapshot()["counters"]
        assert counters["health.alerts"] == 1
        assert counters["health.alerts.slo-backlog"] == 1
        (span,) = [s for s in tracer.spans if s.name == "health.alert.slo-backlog"]
        assert span.attrs["value"] == 0.9 and span.attrs["source"] == "estimator"

    def test_summary_is_json_clean_and_validates(self):
        monitor = EstimatorHealthMonitor(truth={"p": [0.5]})
        monitor.observe_absorb(
            FakePoint(0, thetas={"p": [0.5]}, half_widths={"p": [0.1]}),
            signals={"p": 0.3},
            arm_counts={"p": [100.0]},
        )
        summary = monitor.summary(now=monitor.staleness_s() and None)
        json.dumps(summary)
        report = build_health_report({"tenant": summary})
        check(report, HEALTH_REPORT, "test")
        assert len(report["tenants"]) == 1 and len(report["alerts"]) == 0


# ---------------------------------------------------------------------------
# The F7-style drift suite: a real estimator over the probe program
# ---------------------------------------------------------------------------


class TestDriftSuite:
    def test_stationary_streams_never_alarm_and_coverage_calibrates(
        self, probe_program
    ):
        weighted = 0.0
        checks = 0
        for seed in range(100, 110):
            durs = probe_durations(probe_program, 620.0, seed, activations=1600)
            monitor = EstimatorHealthMonitor(truth={"main": [P_TRUE]})
            _, monitor, alarms = stream_shards(probe_program, durs, monitor)
            assert alarms == [], f"false alarm on stationary seed {seed}"
            assert monitor.drift_score < 1.0
            weighted += monitor.audit.coverage() * monitor.audit.checks
            checks += monitor.audit.checks
        # Calibration against the analytic generating probability: within
        # three points of the nominal 95%.
        assert checks >= 100
        assert abs(weighted / checks - 0.95) <= 0.03

    def test_injected_drift_detected_within_two_warmup_windows(self, probe_program):
        window = EstimatorHealthMonitor().warmup_shards  # the detector's blind spot
        delays = []
        for seed in (200, 201, 202):
            base = probe_durations(probe_program, 620.0, seed, activations=1200)
            drifted = probe_durations(
                probe_program, 740.0, seed + 5000, activations=1200
            )
            durs = np.concatenate([base[: 30 * SHARD], drifted[: 30 * SHARD]])
            _, monitor, alarms = stream_shards(probe_program, durs)
            assert alarms, f"drift at shard 30 missed entirely (seed {seed})"
            assert alarms[0] >= 30, "no alarm before the onset"
            delays.append(alarms[0] - 30)
        assert sorted(delays)[len(delays) // 2] <= 2 * window

    def test_every_episode_flagged_after_recalibration(self, probe_program):
        # Two regime changes, spaced beyond the post-alarm re-warmup and the
        # estimator's own adaptation transient: each onset must be flagged
        # and nothing may fire in the stationary prefix.
        seed = 210
        r0 = probe_durations(probe_program, 620.0, seed, activations=1600)
        r1 = probe_durations(probe_program, 740.0, seed + 5000, activations=1800)
        r2 = probe_durations(probe_program, 620.0, seed + 9000, activations=1200)
        durs = np.concatenate(
            [r0[: 40 * SHARD], r1[: 45 * SHARD], r2[: 30 * SHARD]]
        )
        _, monitor, alarms = stream_shards(probe_program, durs)
        onsets = (40, 85)
        assert all(a >= onsets[0] for a in alarms), "alarm in the stationary prefix"
        for onset in onsets:
            delay = min(
                (a - onset for a in alarms if a >= onset), default=None
            )
            assert delay is not None and delay <= 16, (
                f"episode at shard {onset} not flagged within 2x warmup "
                f"(alarms at {alarms})"
            )
        assert monitor.drift_alarms >= len(onsets)

    def test_monitoring_is_purely_observational(self, probe_program):
        # Same stream with and without a monitor: trajectories bit-identical.
        durs = probe_durations(probe_program, 620.0, 300, activations=800)
        bare = OnlineEstimator(probe_program, MICAZ_LIKE, OnlineOptions(epsilon=None))
        for i in range(len(durs) // SHARD):
            bare.absorb({"main": durs[i * SHARD : (i + 1) * SHARD]})
        watched, _, _ = stream_shards(probe_program, durs)
        for p, q in zip(bare.trajectory, watched.trajectory):
            assert p.thetas.keys() == q.thetas.keys()
            for name in p.thetas:
                assert np.array_equal(p.thetas[name], q.thetas[name])
                assert np.array_equal(p.half_widths[name], q.half_widths[name])


# ---------------------------------------------------------------------------
# Serve integration
# ---------------------------------------------------------------------------


class TestServeHealth:
    def test_estimates_bit_identical_at_any_worker_count_with_health(self):
        fleet = default_fleet(
            n_tenants=2, n_motes=4, shards_per_mote=4, samples_per_proc=4, seed=31
        )
        reports = {}
        for n_workers in (1, 3):
            config = ServiceConfig(
                n_workers=n_workers, max_batch=4, health=True
            )
            reports[n_workers] = run(run_fleet(fleet, config))
        a, b = reports[1].estimates, reports[3].estimates
        assert set(a) == set(b)
        for tenant in a:
            assert set(a[tenant].thetas) == set(b[tenant].thetas)
            for proc in a[tenant].thetas:
                assert np.array_equal(a[tenant].thetas[proc], b[tenant].thetas[proc])

    def test_stats_payload_carries_uptime_and_health(self):
        fleet = default_fleet(
            n_tenants=2, n_motes=4, shards_per_mote=4, samples_per_proc=4, seed=31
        )
        config = ServiceConfig(n_workers=2, max_batch=4, health=True)
        report = run(run_fleet(fleet, config))
        stats = report.stats
        assert stats["uptime_s"] > 0.0
        check(stats, SERVE_STATS, "stats")
        assert "health" in stats
        for tenant_health in stats["health"].values():
            assert tenant_health["shards_absorbed"] > 0
            assert tenant_health["slo"]["state"] in ("ok", "breached")

    def test_health_off_means_no_monitors_and_no_embed(self):
        fleet = default_fleet(
            n_tenants=1, n_motes=2, shards_per_mote=2, samples_per_proc=4, seed=9
        )
        report = run(run_fleet(fleet, ServiceConfig(n_workers=1, max_batch=2)))
        assert "health" not in report.stats
        check(report.stats, SERVE_STATS, "stats")

    def test_slo_breach_emits_edge_triggered_alert(self):
        # Concurrent uploads fill the backlog before the worker runs: the
        # first absorbed batch leaves the backlog above SLO_BACKLOG_FRAC of
        # max_backlog.  Each burst is one breach episode and alerts exactly
        # once.
        fleet = default_fleet(
            n_tenants=1, n_motes=10, shards_per_mote=2, samples_per_proc=4, seed=31
        )
        spec = fleet.tenants[0]
        uploads = build_uploads(fleet)
        assert len(uploads) == 20

        async def two_bursts():
            service = IngestionService(
                ServiceConfig(n_workers=1, max_batch=1, max_backlog=10, health=True)
            )
            service.register_tenant(
                spec.deployment_id,
                spec.program_version,
                workload_by_name(spec.workload).program(),
                fleet.platform,
                options=spec.options(),
            )
            await service.start()
            states = []
            for burst in (uploads[:10], uploads[10:]):
                receipts = await asyncio.gather(*map(service.submit, burst))
                assert all(r.status == "accepted" for r in receipts)
                await service.drain()
                states.append(service.stats_payload()["health"][str(spec.tenant)])
            await service.stop()
            return service.alert_events(), states

        alerts, states = run(two_bursts())
        assert [a.kind for a in alerts] == ["slo-backlog", "slo-backlog"]
        assert all(a.value > a.threshold == 0.8 for a in alerts)
        # Drained, the backlog is back under the threshold: re-armed.
        assert [s["slo"]["state"] for s in states] == ["ok", "ok"]
        assert [s["alerts"] for s in states] == [1, 2]

    def test_backlog_full_deferrals_raise_one_slo_backlog_alert(self):
        # A sequential client against a backlog cap below the batch size:
        # four uploads are accepted, no batch fills, and the other 28 defer
        # as backlog-full.  The first deferral opens the breach episode and
        # alerts once; the drain's absorbed batch re-arms the SLO.
        fleet = default_fleet(n_tenants=1, n_motes=8, shards_per_mote=4)
        service = IngestionService(
            ServiceConfig(n_workers=1, max_batch=8, max_backlog=4, health=True)
        )
        report = run(run_fleet(fleet, service=service))
        assert (report.shards_accepted, report.shards_deferred) == (4, 28)
        alerts = service.alert_events()
        assert [a.kind for a in alerts] == ["slo-backlog"]
        assert alerts[0].value == 1.0 and alerts[0].threshold == 0.8
        (health,) = report.stats["health"].values()
        assert health["alerts"] == 1
        assert health["slo"]["state"] == "ok"

    def test_serve_drift_drill_alarms_and_degrades_coverage(self):
        # The CI drill in miniature: one tenant, regime change at shard 20.
        fleet = default_fleet(
            n_tenants=1,
            n_motes=8,
            shards_per_mote=40,
            samples_per_proc=20,
            seed=78,
            drift_at_shard=20,
        )
        config = ServiceConfig(n_workers=2, max_batch=8, health=True)
        report = run(run_fleet(fleet, config))
        health = report.stats["health"]["site-0@1.0"]
        assert health["drift_alarms"] >= 1
        assert health["alarmed_procedures"]
        # Post-onset shards are scored against base-regime truth: coverage
        # must degrade well below nominal.
        assert health["coverage"] < 0.9

    def test_upload_trace_id_becomes_the_causal_id(self):
        line = json.dumps(
            {
                "op": "upload", "deployment": "d", "version": "v", "mote": 1,
                "seq": 2, "samples": {"main": [5.0, 6.0]}, "trace": "req-abc",
            }
        )
        upload = parse_request_line(line)
        assert upload.trace_id == "req-abc"
        assert upload.causal_id == "req-abc"
        bare = json.loads(line)
        del bare["trace"]
        assert parse_request_line(json.dumps(bare)).causal_id == "d@v/1/2"

    def test_causal_id_propagates_ingest_to_absorb_to_query(self):
        fleet = default_fleet(
            n_tenants=1, n_motes=2, shards_per_mote=2, samples_per_proc=4, seed=9
        )
        spec = fleet.tenants[0]

        async def traced():
            service = IngestionService(ServiceConfig(n_workers=1, max_batch=2))
            service.register_tenant(
                spec.deployment_id,
                spec.program_version,
                workload_by_name(spec.workload).program(),
                fleet.platform,
                options=spec.options(),
            )
            tracer = Tracer()
            with tracing(tracer):
                await service.start()
                for upload in build_uploads(fleet):
                    await service.submit(upload)
                await service.drain()
                service.query(service.tenants[0], trace_id="q-1")
                await service.stop()
            return tracer

        tracer = run(traced())
        spans = {}
        for span in tracer.spans:
            spans.setdefault(span.name, []).append(span)
        ingest_ids = [s.attrs["causal"] for s in spans["serve.ingest"]]
        assert ingest_ids and all(
            cid.startswith("site-0@1.0/") for cid in ingest_ids
        )
        # Every absorb span lists the causal ids of exactly the uploads in
        # its batch, so upload -> batch -> absorb joins on the shared id.
        absorbed = [cid for s in spans["serve.absorb"] for cid in s.attrs["causal"]]
        assert sorted(absorbed) == sorted(ingest_ids)
        assert [s.attrs["causal"] for s in spans["serve.query"]] == ["q-1"]


# ---------------------------------------------------------------------------
# Fleet report + CLI gate
# ---------------------------------------------------------------------------


def make_summary(**overrides) -> dict:
    base = {
        "drift_score": 0.2,
        "drift_alarms": 0,
        "alarmed_procedures": [],
        "shards_absorbed": 40,
        "samples_absorbed": 1600,
        "shards_since_rebuild": 3,
        "staleness_s": 0.5,
        "coverage": 0.95,
        "coverage_checks": 100,
        "alerts": 0,
    }
    base.update(overrides)
    return base


class TestHealthReport:
    def test_fleet_rollup_math(self):
        report = build_health_report(
            {
                "a": make_summary(coverage=0.9, coverage_checks=100, drift_alarms=1),
                "b": make_summary(coverage=1.0, coverage_checks=300, drift_score=0.7),
            },
            alerts=[
                AlertEvent(
                    kind="drift", severity="critical", source="a",
                    value=2.0, threshold=1.0,
                )
            ],
        )
        fleet = report["fleet"]
        assert fleet["tenants"] == 2
        assert fleet["drift_alarms"] == 1
        assert fleet["alerts"] == 1
        assert fleet["max_drift_score"] == 0.7
        # Check-weighted: (0.9*100 + 1.0*300) / 400.
        assert fleet["coverage"] == pytest.approx(0.975)
        assert fleet["worst_coverage"] == 0.9
        assert fleet["coverage_checks"] == 400

    def test_report_file_validates_and_rejects_corruption(self, tmp_path):
        report = build_health_report({"t": make_summary()})
        path = tmp_path / "health.json"
        path.write_text(json.dumps(report))
        loaded = read_json(path, HEALTH_REPORT)
        assert len(loaded["tenants"]) == 1 and len(loaded["alerts"]) == 0

        broken = dict(report, fleet=dict(report["fleet"], alerts=5))
        path.write_text(json.dumps(broken))
        with pytest.raises(ArtifactError, match="fleet.alerts"):
            read_json(path, HEALTH_REPORT)

        bad_row = dict(report, tenants={"t": {"drift_score": -1}})
        path.write_text(json.dumps(bad_row))
        with pytest.raises(ArtifactError):
            read_json(path, HEALTH_REPORT)


def obs_health(argv):
    """Run ``repro-obs health`` with ``argv``; returns the exit code."""
    return obs_cli.main(["health", *argv])


class TestHealthCli:
    def write_report(self, tmp_path, name="health.json", **tenant_overrides):
        alerts = tenant_overrides.pop("alerts_list", [])
        report = build_health_report(
            {"t": make_summary(**tenant_overrides)}, alerts=alerts
        )
        path = tmp_path / name
        path.write_text(json.dumps(report))
        return path

    def test_usage_errors_exit_2(self, tmp_path, capsys):
        report = self.write_report(tmp_path)
        assert obs_health([]) == 2
        assert obs_health(["--report", str(report), "--stats", str(report)]) == 2
        assert obs_health(["--report", str(report), "--expect-drift"]) == 2
        capsys.readouterr()

    def test_healthy_report_passes_check(self, tmp_path, capsys):
        report = self.write_report(tmp_path)
        assert obs_health(["--report", str(report), "--check"]) == 0
        out = capsys.readouterr().out
        assert "healthy" in out and "fleet: 1 tenant(s)" in out

    def test_drift_alarms_fail_check_unless_expected(self, tmp_path, capsys):
        report = self.write_report(
            tmp_path,
            drift_alarms=2,
            alarmed_procedures=["main"],
            alerts=1,
            alerts_list=[
                AlertEvent(
                    kind="drift", severity="critical", source="t",
                    value=2.0, threshold=1.0, shard=31, procedure="main",
                )
            ],
        )
        assert obs_health(["--report", str(report), "--check"]) == 1
        assert "UNHEALTHY" in capsys.readouterr().err
        assert (
            obs_health(["--report", str(report), "--check", "--expect-drift"]) == 0
        )
        capsys.readouterr()

    def test_expect_drift_fails_on_quiet_fleet(self, tmp_path, capsys):
        report = self.write_report(tmp_path)
        assert (
            obs_health(["--report", str(report), "--check", "--expect-drift"]) == 1
        )
        assert "stayed quiet" in capsys.readouterr().err

    def test_breached_slo_always_fails_check(self, tmp_path, capsys):
        report = self.write_report(tmp_path, slo={"state": "breached"})
        assert obs_health(["--report", str(report), "--check"]) == 1
        assert "SLO breached" in capsys.readouterr().err

    def test_stats_input_with_alert_log_and_json_output(self, tmp_path, capsys):
        stats = {"health": {"t": make_summary(drift_alarms=1, alerts=1)}}
        stats_path = tmp_path / "stats.json"
        stats_path.write_text(json.dumps(stats))
        alerts_path = write_alert_log(
            tmp_path / "alerts.jsonl",
            [
                AlertEvent(
                    kind="drift", severity="critical", source="t",
                    value=3.0, threshold=1.0, shard=12,
                )
            ],
        )
        out_path = tmp_path / "report.json"
        code = obs_health(
            [
                "--stats", str(stats_path),
                "--alerts", str(alerts_path),
                "--json", str(out_path),
            ]
        )
        assert code == 0
        loaded = read_json(out_path, HEALTH_REPORT)
        assert len(loaded["tenants"]) == 1 and len(loaded["alerts"]) == 1
        capsys.readouterr()

    def test_metrics_file_and_fleet_report_shapes_accepted(self, tmp_path, capsys):
        # A --metrics file embeds the *full* report under "health"; a
        # repro-serve --json fleet report nests the stats payload.
        full = build_health_report({"t": make_summary()})
        metrics_path = tmp_path / "metrics.json"
        metrics_path.write_text(json.dumps({"health": full}))
        assert obs_health(["--stats", str(metrics_path)]) == 0
        fleet_path = tmp_path / "fleet.json"
        fleet_path.write_text(
            json.dumps({"stats": {"health": {"t": make_summary()}}})
        )
        assert obs_health(["--stats", str(fleet_path)]) == 0
        capsys.readouterr()

    def test_invalid_inputs_exit_1(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        assert obs_health(["--report", str(garbage)]) == 1
        no_health = tmp_path / "no_health.json"
        no_health.write_text(json.dumps({"metrics": {}}))
        assert obs_health(["--stats", str(no_health)]) == 1
        assert obs_health(["--report", str(tmp_path / "missing.json")]) == 1
        # An embedded full report is held to the report's shape.
        future = build_health_report({"t": make_summary()})
        future["schema"] = "repro.health-report/99"
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps({"health": future}))
        assert obs_health(["--stats", str(stale)]) == 1
        assert "FAILED to load" in capsys.readouterr().err

    def test_counter_movers_ride_along_with_drift(self, tmp_path, capsys):
        # A drift report can carry the hardware-counter movers between two
        # snapshots, so the alert names what the hardware was doing
        # differently, not just that a residual shifted.
        report = self.write_report(tmp_path, drift_alarms=1)
        snap = {
            "schema": "repro.hwcounters/1",
            "totals": {"cycles.block": 1000, "branch.mispredict": 40},
            "per_proc": {},
        }
        drifted = dict(snap, totals={"cycles.block": 2100, "branch.mispredict": 41})
        before = tmp_path / "before.json"
        after = tmp_path / "after.json"
        before.write_text(json.dumps(snap))
        after.write_text(json.dumps(drifted))
        out_path = tmp_path / "out.json"
        code = obs_health(
            [
                "--report", str(report),
                "--counters-before", str(before),
                "--counters-after", str(after),
                "--json", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "top moved counters" in out
        assert "cycles.block: 1000 -> 2100" in out
        saved = json.loads(out_path.read_text())
        assert saved["counter_movers"][0]["counter"] == "cycles.block"
        # the enriched artifact still validates (extra key tolerated)
        read_json(out_path, HEALTH_REPORT)

    def test_counter_flags_come_as_a_pair(self, tmp_path, capsys):
        report = self.write_report(tmp_path)
        snap = tmp_path / "snap.json"
        snap.write_text(json.dumps({"schema": "repro.hwcounters/1",
                                    "totals": {}, "per_proc": {}}))
        code = obs_health(
            ["--report", str(report), "--counters-before", str(snap)]
        )
        assert code == 2
        assert "pair" in capsys.readouterr().err
