"""OBS — bound the telemetry layer's overhead on the F1 workload.

The observability contract (docs/observability.md) promises
that instrumentation is effectively free: disabled sites are a global read
plus an early return, and enabled capture is a dict append per span.  This
benchmark pins the enabled-path cost: the full-size F1 experiment runs with
telemetry off and with a live tracer + metrics registry, interleaved
(ABAB...) so machine drift hits both arms equally, and the median observed
runtime must stay within 5% of the median plain runtime (plus a small
absolute slack so sub-second timer noise cannot flake the suite).

The estimator-health layer (docs/health.md) extends the same promise to
the serve path: attaching an :class:`~repro.obs.health.EstimatorHealthMonitor`
to every tenant — drift detectors, CI-calibration audit, backlog SLO — must
keep a fleet ingest run within the same 5% of its health-off baseline, and
must not perturb a single estimate bit.  The second benchmark pins that.

The measured ratios are recorded to ``benchmarks/results/obs.txt`` and
``benchmarks/results/obs_health.txt``.  Unlike the experiment renders,
those files carry wall-clock — host-dependent by nature — so they are
deliberately *not* golden files (``tests/test_golden_results.py`` skips
them).
"""

from __future__ import annotations

import asyncio
import statistics
import time
from pathlib import Path

import numpy as np

from repro.experiments import fig_f1_accuracy
from repro.obs import MetricsRegistry, Tracer, metrics_active, tracing
from repro.serve.loadgen import build_uploads, default_fleet, run_fleet
from repro.serve.service import ServiceConfig

RESULTS_DIR = Path(__file__).parent / "results"

#: Relative bound from the issue ("<5% on F1") plus absolute timer slack.
MAX_RATIO = 1.05
ABS_SLACK_SECONDS = 0.25
REPEATS = 3


def test_obs_overhead_under_five_percent(benchmark, experiment_config):
    def run_plain() -> tuple[float, str]:
        started = time.perf_counter()
        result = fig_f1_accuracy.run(experiment_config)
        return time.perf_counter() - started, result.render()

    def run_observed() -> tuple[float, str, int]:
        tracer, registry = Tracer(), MetricsRegistry()
        started = time.perf_counter()
        with tracing(tracer), metrics_active(registry):
            result = fig_f1_accuracy.run(experiment_config)
        return time.perf_counter() - started, result.render(), len(tracer.spans)

    def measure() -> tuple[list[float], list[float], str, str, int]:
        plain_times, observed_times = [], []
        plain_render = observed_render = ""
        span_count = 0
        for _ in range(REPEATS):
            seconds, plain_render = run_plain()
            plain_times.append(seconds)
            seconds, observed_render, span_count = run_observed()
            observed_times.append(seconds)
        return plain_times, observed_times, plain_render, observed_render, span_count

    # Warm-up (imports, numpy caches) outside the measurement.
    run_plain()

    plain_times, observed_times, plain_render, observed_render, span_count = (
        benchmark.pedantic(measure, rounds=1, iterations=1)
    )
    plain = statistics.median(plain_times)
    observed = statistics.median(observed_times)
    ratio = observed / plain

    # The free contract first: telemetry never perturbs the result.
    assert observed_render == plain_render
    assert span_count > 0

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "obs.txt").write_text(
        "== OBS: telemetry overhead on F1 (not a golden file; wall-clock) ==\n"
        f"plain_median_s     {plain:.3f}\n"
        f"observed_median_s  {observed:.3f}\n"
        f"ratio              {ratio:.4f}\n"
        f"spans_captured     {span_count}\n"
        f"repeats            {REPEATS}\n"
        f"bound              ratio <= {MAX_RATIO} (+{ABS_SLACK_SECONDS}s slack)\n"
    )

    assert observed <= plain * MAX_RATIO + ABS_SLACK_SECONDS, (
        f"telemetry overhead too high: observed {observed:.3f}s vs "
        f"plain {plain:.3f}s (ratio {ratio:.3f}, bound {MAX_RATIO})"
    )


def test_serve_health_overhead_under_five_percent(benchmark):
    fleet = default_fleet(
        n_tenants=2, n_motes=25, shards_per_mote=8, samples_per_proc=4, seed=2015
    )
    build_uploads(fleet)  # workload simulation is loadgen's cost, not health's

    def run_arm(health: bool):
        # Time the service's own measured window (submit + absorb + drain).
        # Tenant registration and upload generation are the load generator's
        # cost — with health on, registration also computes each tenant's
        # ground truth for the calibration audit, which a real deployment
        # never pays — so they stay outside the timed window, exactly as in
        # ``bench_serve.py``.
        config = ServiceConfig(n_workers=2, max_batch=16, health=health)
        report = asyncio.run(run_fleet(fleet, config))
        return report.wall_s, report

    def measure():
        plain_times, monitored_times = [], []
        plain_report = monitored_report = None
        for _ in range(REPEATS):
            seconds, plain_report = run_arm(False)
            plain_times.append(seconds)
            seconds, monitored_report = run_arm(True)
            monitored_times.append(seconds)
        return plain_times, monitored_times, plain_report, monitored_report

    run_arm(False)  # warm-up outside the measurement

    plain_times, monitored_times, plain_report, monitored_report = (
        benchmark.pedantic(measure, rounds=1, iterations=1)
    )
    plain = statistics.median(plain_times)
    monitored = statistics.median(monitored_times)
    ratio = monitored / plain

    # Observational purity first: monitors never touch the estimates.
    assert sorted(monitored_report.estimates) == sorted(plain_report.estimates)
    for name, plain_estimate in plain_report.estimates.items():
        monitored_estimate = monitored_report.estimates[name]
        for proc, theta in plain_estimate.thetas.items():
            assert np.array_equal(theta, monitored_estimate.thetas[proc])
        for proc, hw in plain_estimate.half_widths.items():
            assert np.array_equal(hw, monitored_estimate.half_widths[proc])

    # ... and the monitors really were watching.
    health = monitored_report.stats.get("health", {})
    assert len(health) == 2
    assert all(entry["shards_absorbed"] > 0 for entry in health.values())
    assert "health" not in plain_report.stats

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "obs_health.txt").write_text(
        "== OBS: estimator-health overhead on serve ingest "
        "(not a golden file; wall-clock) ==\n"
        f"plain_median_s      {plain:.3f}\n"
        f"monitored_median_s  {monitored:.3f}\n"
        f"ratio               {ratio:.4f}\n"
        f"shards_absorbed     "
        f"{sum(e['shards_absorbed'] for e in health.values())}\n"
        f"repeats             {REPEATS}\n"
        f"bound               ratio <= {MAX_RATIO} (+{ABS_SLACK_SECONDS}s slack)\n"
    )

    assert monitored <= plain * MAX_RATIO + ABS_SLACK_SECONDS, (
        f"health-monitoring overhead too high: monitored {monitored:.3f}s vs "
        f"plain {plain:.3f}s (ratio {ratio:.3f}, bound {MAX_RATIO})"
    )
