"""Pipeline benchmark: the paper's loop and ``repro.serve`` ingest, end to end
and split by layer.

Run from the repository root::

    python3 pipebench/run.py --workload loop-hybrid --seed 2015 --trace 0

Workloads (``README.md`` in this directory says why each exists):

* ``loop-hybrid``  — six programs through profile → collect → estimate
  (``method="hybrid"``) → place → evaluate (:mod:`loop`);
* ``loop-moments`` — the same loop with ``method="moments"``;
* ``serve-ingest`` — six tenants on one ``IngestionService``, one
  closed-loop client (:mod:`ingest`).

``--trace 0`` runs :data:`PASSES` whole passes and prints the end-to-end
metrics; ``--trace 1`` alternates :data:`PAIRS` untraced and traced passes
and prints the per-layer split.  ``--seconds`` is recorded but does not
change the pass count.  Every timing is wall time corrected to the
reference host speed (:mod:`hostspeed`).  Every pass is checked; a failed
check exits 1 without a result.  The last
stdout line is the JSON result ``{"correct", "attempted", "failed",
"metrics"}``; the lines above it stamp the host and describe the run.
"""

from __future__ import annotations

import time

_PROCESS_START = time.monotonic()  # before any heavy import: setup starts here

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

#: ``--workload`` → (module in this directory, keyword arguments).
WORKLOADS = {
    "loop-hybrid": ("loop", {"method": "hybrid"}),
    "loop-moments": ("loop", {"method": "moments"}),
    "serve-ingest": ("ingest", {}),
}

#: Passes per untraced run; loop_s is their median.  The count is fixed,
#: not set by elapsed time, so every commit is measured over the same
#: number of passes however fast its code runs.
PASSES = 3

#: Least time between two host-speed readings within a pass.
PROBE_INTERVAL_S = 0.2

#: Untraced/traced pass pairs per traced run.
PAIRS = 2

#: Fresh processes timed per run for setup_s (the median is reported).
SETUP_PROBES = 3

#: End-to-end metrics: name → unit.  Directions and bounds live in
#: BENCHMARK.json at the repository root.
END_TO_END = {
    "setup_s": "s",
    "loop_s": "s",
    "peak_rss_mb": "MB",
    "theta_mae": "prob",
    "mispredict_rate": "frac",
    "cycles_per_activation": "cycles",
    "layout_rom_bytes": "B",
    "ok_frac": "frac",
}

#: Per-layer metrics: name → unit.
PER_LAYER = {
    "bench.window_s": "s",
    "bench.unattributed_s": "s",
    "bench.host_probe_s": "s",
    "bench.host_slowdown": "ratio",
    "sim.run_s": "s",
    "sim.activations": "count",
    "sim.mote_cycles_per_s": "cycles/s",
    "sim.vector_run_s": "s",
    "sim.vector_mote_cycles_per_s": "cycles/s",
    "profiling.collect_s": "s",
    "profiling.samples": "count",
    "profiling.distinct_duration_frac": "frac",
    "core.estimate_s": "s",
    "core.moments_self_s": "s",
    "core.moment_fits": "count",
    "core.em_self_s": "s",
    "core.em_fits": "count",
    "core.em_iterations": "count",
    "core.em_reenumerations": "count",
    "core.em_converged_frac": "frac",
    "core.online_absorb_s": "s",
    "core.online_refits": "count",
    "core.online_family_reuse_frac": "frac",
    "placement.place_s": "s",
    "placement.procedures": "count",
    "serve.submit_s": "s",
    "serve.absorb_s": "s",
    "serve.other_s": "s",
    "serve.batches": "count",
    "serve.shards_per_batch": "count",
    "serve.deferred": "count",
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p90_ms": "ms",
    "setup.import_s": "s",
    "lang.compile_s": "s",
    "serve.loadgen_s": "s",
    "obs.trace_overhead_frac": "frac",
    "obs.spans": "count",
}

#: The window's layers.  Each takes the inclusive time of spans that own
#: a whole subtree, or the self (exclusive) time of spans whose children
#: belong elsewhere; together they partition ``bench.window`` and the
#: remainder is reported as ``bench.unattributed_s``.  ``bench.*`` spans
#: are this benchmark's wrappers around each public call; the rest are the
#: program's own spans.
INCLUSIVE = {
    "bench.host_probe_s": ("bench.host_probe",),
    "sim.vector_run_s": ("sim.vector_run",),
    "profiling.collect_s": ("bench.profiling.collect",),
    "placement.place_s": ("bench.placement.place",),
    "serve.submit_s": ("serve.ingest",),
}
EXCLUSIVE = {
    "sim.run_s": (
        "bench.sim.run", "sim.run", "bench.sim.evaluate", "sim.batch", "sim.merge_batches",
    ),
    "core.estimate_s": (
        "bench.core.estimate", "estimate.program", "estimate.proc", "estimate.moments",
    ),
    "core.em_self_s": ("estimate.em",),
    "core.online_absorb_s": ("estimate.online.shard",),
    "serve.absorb_s": ("serve.absorb",),
    "serve.other_s": ("bench.serve.submit", "bench.serve.drain"),
}


class CheckFailed(Exception):
    """A pass produced wrong output; the run reports no numbers."""


def run_pass(workload, timer: "CallTimer"):
    """One pass, started from a collected heap so passes stay comparable,
    and closed by a host-speed reading."""
    gc.collect()
    outcome = workload.run_pass(timer)
    timer.close()
    return outcome


class CallTimer:
    """Times each call into a layer, wraps it in a benchmark span, and reads
    the host's slowdown before a call once :data:`PROBE_INTERVAL_S` has
    passed since the last reading."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.slowdowns: list[float] = []
        self._reading_before: list[int] = []
        self._next_probe = 0.0

    def probe(self) -> None:
        """Read the host's slowdown (outside any timed call)."""
        from repro import obs

        with obs.span("bench.host_probe"):
            self.slowdowns.append(hostspeed.slowdown())
        self._next_probe = time.perf_counter() + PROBE_INTERVAL_S

    @contextmanager
    def __call__(self, name: str):
        from repro import obs

        if time.perf_counter() >= self._next_probe:
            self.probe()
        with obs.span(name):
            started = time.perf_counter()
            yield
            self.seconds.append(time.perf_counter() - started)
        self._reading_before.append(len(self.slowdowns) - 1)

    def close(self) -> None:
        """The reading after the pass's last call, outside the window."""
        self.slowdowns.append(hostspeed.slowdown())

    def pass_s(self) -> float:
        """The pass's wall time at the reference host speed: every call
        corrected by the readings just before and just after it."""
        return sum(
            hostspeed.corrected(seconds, self.slowdowns[k], self.slowdowns[k + 1])
            for seconds, k in zip(self.seconds, self._reading_before)
        )


def blas_threads():
    """OpenBLAS's thread-pool size as the loaded library reports it."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def environment() -> dict:
    """The host stamp every result carries."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": platform.python_version(),
    }


def timed_reading() -> tuple[float, float, float]:
    """A host-speed reading with the clock before and after it."""
    started = time.monotonic()
    slowdown = hostspeed.slowdown()
    return started, slowdown, time.monotonic()


def probe_setup(module_name: str, kwargs: dict, seed: int) -> list:
    """Set up as a run does, reading the host's speed when the child starts,
    after its imports and when set-up is done."""
    readings = [timed_reading()]
    module = importlib.import_module(module_name)
    readings.append(timed_reading())
    module.Workload(seed=seed, **kwargs)
    readings.append(timed_reading())
    return readings


def setup_seconds(args: argparse.Namespace) -> list[tuple[float, float]]:
    """``(corrected, wall)`` set-up seconds of fresh processes, from spawn to
    first timed call.  Each stage (interpreter start, imports, building the
    workload) is corrected by the readings around it; the readings
    themselves are not counted."""
    samples = []
    for _ in range(SETUP_PROBES):
        _, slowdown, _ = timed_reading()
        spawned = time.monotonic()
        child = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
            ],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        corrected = wall = 0.0
        stage_start = spawned
        for started, reading, finished in json.loads(child.stdout.splitlines()[-1]):
            wall += started - stage_start
            corrected += hostspeed.corrected(started - stage_start, slowdown, reading)
            stage_start, slowdown = finished, reading
        samples.append((corrected, wall))
    return samples


def run_checks(workload, outcomes: list) -> None:
    """Fail the run on a wrong output, or on passes whose outputs differ."""
    problems = workload.check(outcomes)
    if problems:
        raise CheckFailed("; ".join(problems))


def untraced(workload, args) -> tuple[dict, list[str], tuple[int, int]]:
    """End-to-end metrics from :data:`PASSES` whole passes."""
    timers, outcomes = [], []
    started = time.perf_counter()
    for index in range(PASSES):
        timer = CallTimer()
        outcomes.append(run_pass(workload, timer))
        timers.append(timer)
        if index == 0:
            # Peak of set-up plus one pass: later passes only add allocator
            # fragmentation.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    window_s = time.perf_counter() - started
    run_checks(workload, outcomes)
    quality = workload.quality(outcomes[0])
    attempted, failed = workload.work(outcomes[0])
    loop_s = statistics.median(timer.pass_s() for timer in timers)
    setup = setup_seconds(args)
    metrics = {
        "setup_s": statistics.median(corrected for corrected, _ in setup),
        "loop_s": loop_s,
        "peak_rss_mb": peak_rss_mb,
        **quality,
        "ok_frac": 1.0 - failed / attempted,
    }
    notes = workload.report(outcomes[0], loop_s) + [
        f"passes: {len(outcomes)} in {window_s:.3f} s; per pass, loop_s "
        f"{', '.join(f'{t.pass_s():.4f}' for t in timers)} s from wall "
        f"{', '.join(f'{sum(t.seconds):.4f}' for t in timers)} s",
        f"host slowdown: median {_median_slowdown(timers):.4f} over "
        f"{sum(len(t.slowdowns) for t in timers)} readings",
        f"set-up probes: setup_s {', '.join(f'{c:.4f}' for c, _ in setup)} s "
        f"from wall {', '.join(f'{w:.4f}' for _, w in setup)} s",
        f"failed_frac {failed / attempted!r} frac (gated as ok_frac)",
    ]
    return metrics, notes, (attempted * len(outcomes), failed * len(outcomes))


def layer_split(tracer, counters: dict) -> dict:
    """Per-layer times and counts of one traced pass."""
    from repro.obs.query import aggregate, load_trace
    from repro.obs.trace import write_jsonl

    with tempfile.TemporaryDirectory(dir=HERE, prefix=".trace-") as tmp:
        forest = load_trace(write_jsonl(Path(tmp) / "pass.jsonl", tracer))
    rows = {row["name"]: row for row in aggregate(forest)}

    def total(names, key):
        return sum(rows[name][key] for name in names if name in rows)

    split = {name: total(spans, "inclusive_s") for name, spans in INCLUSIVE.items()}
    split.update({name: total(spans, "exclusive_s") for name, spans in EXCLUSIVE.items()})
    window = total(("bench.window",), "inclusive_s")
    cycles = {"sim.run": 0, "sim.vector_run": 0}
    for node in forest.walk():
        if node.name in cycles:
            cycles[node.name] += node.attrs.get("cycles", 0)
    em_fits = counters.get("estimator.em_fits", 0)
    families = counters.get("online.family_reuses", 0) + counters.get("online.family_rebuilds", 0)
    return {
        **split,
        "bench.window_s": window,
        "bench.unattributed_s": window - sum(split.values()),
        "core.moments_self_s": total(("estimate.moments",), "exclusive_s"),
        "sim.activations": counters.get("sim.activations", 0),
        "sim.mote_cycles_per_s": _ratio(cycles["sim.run"], total(("sim.run",), "inclusive_s")),
        "sim.vector_mote_cycles_per_s": _ratio(cycles["sim.vector_run"], split["sim.vector_run_s"]),
        "core.moment_fits": counters.get("estimator.moment_fits", 0),
        "core.em_fits": em_fits,
        "core.em_iterations": counters.get("estimator.em_iterations", 0),
        "core.em_reenumerations": counters.get("estimator.em_reenumerations", 0),
        "core.em_converged_frac": _ratio(
            em_fits - counters.get("estimator.em_nonconverged", 0), em_fits
        ),
        "core.online_refits": counters.get("online.shards", 0),
        "core.online_family_reuse_frac": _ratio(
            counters.get("online.family_reuses", 0), families
        ),
        "obs.spans": forest.spans,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median_slowdown(timers: list[CallTimer]) -> float:
    return statistics.median(s for timer in timers for s in timer.slowdowns)


def traced(workload, setup: dict) -> tuple[dict, list[str], tuple[int, int]]:
    """Per-layer metrics from alternating untraced and traced passes."""
    from repro.obs import MetricsRegistry, Tracer, metrics_active, tracing

    plain, traced_timers, outcomes, splits = [], [], [], []
    for pair in range(PAIRS):
        # Alternate which arm goes first so neither always runs warmer.
        order = (False, True) if pair % 2 == 0 else (True, False)
        for with_trace in order:
            if with_trace:
                tracer, registry = Tracer(), MetricsRegistry()
                timer = CallTimer()
                with tracing(tracer), metrics_active(registry):
                    outcomes.append(run_pass(workload, timer))
                traced_timers.append(timer)
                splits.append(layer_split(tracer, registry.snapshot()["counters"]))
            else:
                timer = CallTimer()
                outcomes.append(run_pass(workload, timer))
                plain.append(timer)
    run_checks(workload, outcomes)
    plain_s = statistics.median(timer.pass_s() for timer in plain)
    traced_s = statistics.median(timer.pass_s() for timer in traced_timers)
    metrics = {
        name: statistics.fmean(split[name] for split in splits) for name in splits[0]
    }
    metrics.update(workload.layer_counts(outcomes[0]))
    metrics.update(setup)
    metrics["obs.trace_overhead_frac"] = traced_s / plain_s - 1.0
    metrics["bench.host_slowdown"] = _median_slowdown(traced_timers)
    for name in PER_LAYER:
        metrics.setdefault(name, 0)
    attempted, failed = workload.work(outcomes[0])
    notes = workload.report(outcomes[0], plain_s) + [
        f"pairs: {len(splits)}; untraced {plain_s:.4f} s, traced {traced_s:.4f} s "
        f"(median pass at reference speed)",
    ]
    return metrics, notes, (attempted * len(outcomes), failed * len(outcomes))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument(
        "--seconds",
        type=float,
        default=30.0,
        help="nominal run length, recorded only: a run makes a fixed number of passes",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="set up only, reading the host's speed at each stage (how setup_s is timed)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"pipebench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    module_name, kwargs = WORKLOADS[args.workload]
    if args.setup_probe:
        print(json.dumps(probe_setup(module_name, kwargs, args.seed)))
        return 0
    module = importlib.import_module(module_name)
    imported = time.monotonic()
    workload = module.Workload(seed=args.seed, **kwargs)
    try:
        if args.trace:
            setup = {"setup.import_s": imported - _PROCESS_START, **workload.setup_seconds}
            metrics, notes, (attempted, failed) = traced(workload, setup)
            units = PER_LAYER
        else:
            metrics, notes, (attempted, failed) = untraced(workload, args)
            units = END_TO_END
    except CheckFailed as exc:
        print(f"pipebench: check failed: {exc}", file=sys.stderr)
        return 1
    print(f"# env: {json.dumps(environment(), sort_keys=True)}")
    print(
        f"# workload: {args.workload}; seed={args.seed}; trace={args.trace}; "
        f"seconds={args.seconds:g} (nominal)"
    )
    for line in notes:
        print(f"# {line}")
    for name in units:
        print(f"# {name:<34} {metrics[name]!r:>24} {units[name]}")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
