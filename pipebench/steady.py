"""Repeat pipebench runs and record how steady every metric is.

Run from the repository root::

    python3 pipebench/steady.py --seeds 1 2 3 4 5 6 7 8 9 10 \\
        --out pipebench/results/steadiness.json

Runs ``run.py`` once per (seed, workload), seed-major so each workload's
runs spread over the whole set, and records per metric and workload
the median, quartiles (``statistics.quantiles(values, n=4)``), min, max
and spread (interquartile range over median), next to the bound
``BENCHMARK.json`` fixes.  Every run's raw result and host stamp is kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; its result line, host stamp and wall time."""
    started = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[len("# env: "):]) for line in lines if line.startswith("# env: "))
    return {
        "workload": workload,
        "seed": seed,
        "wall_s": time.monotonic() - started,
        "env": env,
        "notes": [line[2:] for line in lines[:-1] if line.startswith("# ")],
        "result": json.loads(lines[-1]),
    }


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument(
        "--baseline", type=Path, help="an earlier record: also print each median's shift from it"
    )
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs = []
    for seed in args.seeds:
        for workload in args.workloads:
            run = run_once(workload, seed, args.seconds, args.trace)
            runs.append(run)
            print(f"{workload} seed={seed} {run['wall_s']:.1f}s", file=sys.stderr, flush=True)

    summary: dict = {}
    for workload in args.workloads:
        mine = [r["result"]["metrics"] for r in runs if r["workload"] == workload]
        summary[workload] = {}
        for name in mine[0]:
            stats = summarize([m[name]["value"] for m in mine]) if len(mine) > 1 else {}
            stats["unit"] = mine[0][name]["unit"]
            stats["bound"] = bounds.get(name)
            summary[workload][name] = stats
    record = {
        "schema": "pipebench.steadiness/1",
        "env": runs[0]["env"],
        "seconds": args.seconds,
        "trace": args.trace,
        "seeds": args.seeds,
        "summary": summary,
        "runs": runs,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    baseline = json.loads(args.baseline.read_text())["summary"] if args.baseline else {}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    for workload, metrics in summary.items():
        print(f"== {workload}")
        for name, stats in metrics.items():
            if "median" not in stats:
                continue
            bound = stats["bound"]
            flag = "" if bound is None or stats["spread"] <= bound / 3 else "  <-- above bound/3"
            line = (
                f"  {name:<30} median {stats['median']:<12.6g} "
                f"[{stats['min']:.6g}, {stats['max']:.6g}] spread {stats['spread']:.4f}"
                f" bound {bound}{flag}"
            )
            before = baseline.get(workload, {}).get(name, {}).get("median")
            if before:
                worse = (stats["median"] - before) / before
                worse = worse if better.get(name) == "lower" else -worse
                line += f"  worse than baseline by {worse:+.4f}"
                if bound is not None and worse > bound:
                    line += "  <-- beyond bound"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
