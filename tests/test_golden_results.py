"""Golden-file regression tests for the rendered result tables.

``benchmarks/results/*.txt`` are the checked-in renders the benchmarks
produced at full configuration.  Two layers of pinning:

* **Round-trip**: every golden file parses back into ``Table`` objects
  whose re-render reproduces the original bytes: the renderer still lays
  out every golden as it was written, and the parser the checks below
  lean on reads each one exactly.
* **Live regression**: the cheap, fully deterministic T1 experiment is
  re-run at the golden configuration and its render must equal the golden
  file byte for byte.  Any accidental change to table formatting, float
  rendering, or T1's static program analysis shows up as a diff here.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.common import ExperimentConfig
from repro.util.tables import Table

RESULTS_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "results"
# obs.txt / obs_health.txt (telemetry overhead ratios) and serve.txt (ingest
# throughput + latency percentiles) record wall-clock, host-dependent
# numbers — they are not seed-determined renders and cannot be pinned
# byte-for-byte.
GOLDEN_FILES = sorted(
    p
    for p in RESULTS_DIR.glob("*.txt")
    if p.stem not in ("obs", "obs_health", "serve")
)
GOLDEN_CONFIG = ExperimentConfig(activations=3000, seed=2015, quick=False)


def parse_rendered_tables(text: str) -> list[tuple[str, list[str], list[list[str]], str]]:
    """Extract ``(title, columns, rows, original_block)`` per rendered table.

    A table block is ``title / rule / header / rule / rows... / rule``.
    Cells never contain runs of two spaces (the column separator), so rows
    split on the header's column offsets recover the original cells.
    """
    lines = text.split("\n")
    tables = []
    i = 0
    while i < len(lines):
        if re.fullmatch(r"-+", lines[i]) and i >= 1:
            title = lines[i - 1]
            header = lines[i + 1]
            assert re.fullmatch(r"-+", lines[i + 2]), "header must be framed by rules"
            # Column start offsets from the header line.
            starts = [m.start() for m in re.finditer(r"(?<!\S)\S", header)]
            bounds = list(zip(starts, starts[1:] + [None]))
            columns = [header[a:b].strip() for a, b in bounds]
            rows = []
            j = i + 3
            while not re.fullmatch(r"-+", lines[j]):
                rows.append([lines[j][a:b].strip() for a, b in bounds])
                j += 1
            tables.append((title, columns, rows, "\n".join(lines[i - 1 : j + 1])))
            i = j + 1
        else:
            i += 1
    return tables


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=lambda p: p.stem)
class TestGoldenRoundTrip:
    def test_file_is_nonempty_and_titled(self, path):
        text = path.read_text()
        assert text.startswith("== ")
        assert text.endswith("\n")

    def test_tables_roundtrip_byte_identically(self, path):
        text = path.read_text()
        tables = parse_rendered_tables(text)
        assert tables, f"{path.name} contains no parseable table"
        for title, columns, rows, original in tables:
            rebuilt = Table(title, columns)
            rebuilt.rows = rows
            assert rebuilt.render() == original, path.name

    def test_row_and_column_shape_is_consistent(self, path):
        for _, columns, rows, _ in parse_rendered_tables(path.read_text()):
            assert rows
            for row in rows:
                assert len(row) == len(columns)
                assert all(cell for cell in row), "no empty cells in a golden table"


class TestLiveAgainstGolden:
    def test_t1_render_matches_the_checked_in_golden(self):
        # T1 is static program analysis — activation-free, sub-second, and
        # a pure function of the seed-independent compiled workloads — so
        # the full-size golden can be regenerated inside the test suite.
        golden = (RESULTS_DIR / "t1.txt").read_text()
        live = ALL_EXPERIMENTS["t1"](GOLDEN_CONFIG)
        assert live.render() + "\n" == golden

    def test_f8_golden_carries_the_headline_shape(self):
        # The golden F8 table must keep telling the story the experiment
        # exists to tell (cheap structural pin; the full regeneration runs
        # in benchmarks/bench_f8_faults.py).
        tables = parse_rendered_tables((RESULTS_DIR / "f8.txt").read_text())
        _, columns, rows, _ = tables[0]
        col = {name: k for k, name in enumerate(columns)}
        for row in rows:
            if row[col["fault_rate"]] == "0":
                assert row[col["mae_full"]] == "0"
                assert row[col["mae_tomo"]] == row[col["mae_robust"]]
                assert row[col["delivered"]] == "1"
            else:
                assert float(row[col["delivered"]]) < 1.0
                assert float(row[col["mae_robust"]]) <= float(row[col["mae_tomo"]])
