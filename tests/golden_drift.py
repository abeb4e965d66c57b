"""Re-render every experiment at the golden configuration and diff the goldens.

``benchmarks/results/<id>.txt`` holds each runner experiment's render at
``--seed 2015 --activations 3000``.  This script renders every entry of
``ALL_EXPERIMENTS`` at that configuration (serially, in this process),
compares each render with its file byte for byte, prints a unified diff
per drifted file, and exits 1 naming every drifted file (0 when none
drifted)::

    PYTHONPATH=src python -m tests.golden_drift
"""

from __future__ import annotations

import difflib
import sys

from repro.experiments import ALL_EXPERIMENTS
from tests.test_golden_results import GOLDEN_CONFIG, RESULTS_DIR


def drifted_goldens() -> list[str]:
    """Golden files whose experiment no longer renders them, diffs printed."""
    drifted = []
    for exp_id, run in ALL_EXPERIMENTS.items():
        path = RESULTS_DIR / f"{exp_id}.txt"
        golden = path.read_text(encoding="utf-8")
        live = run(GOLDEN_CONFIG).render() + "\n"
        if live != golden:
            drifted.append(path.name)
            sys.stdout.writelines(
                difflib.unified_diff(
                    golden.splitlines(keepends=True),
                    live.splitlines(keepends=True),
                    fromfile=f"golden/{path.name}",
                    tofile=f"live/{path.name}",
                )
            )
    return drifted


def main() -> int:
    drifted = drifted_goldens()
    if drifted:
        print(f"drifted: {', '.join(drifted)}")
        return 1
    print(f"all {len(ALL_EXPERIMENTS)} goldens match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
