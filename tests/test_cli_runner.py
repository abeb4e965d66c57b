"""Tests for the repro-experiments command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.runner import main


class TestCli:
    def test_list_prints_all_ids(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out.split()
        assert sorted(out) == sorted(ALL_EXPERIMENTS)

    def test_no_arguments_is_an_error(self, capsys):
        assert main([]) == 2
        assert "nothing to run" in capsys.readouterr().err

    def test_unknown_id_is_an_error(self, capsys):
        assert main(["zz"]) == 2
        err = capsys.readouterr().err
        assert "zz" in err
        assert "t1" in err  # lists the known ids

    def test_runs_t1_quick(self, capsys):
        assert main(["t1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "benchmark characteristics" in out
        assert "blink" in out
        assert "finished in" in out

    def test_writes_nothing_it_was_not_asked_for(self, monkeypatch, tmp_path):
        # Every table is computed by the code in the tree: a run leaves no
        # state behind that a later run could read.
        monkeypatch.chdir(tmp_path)
        assert main(["t1", "--quick"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_platform_selection(self, capsys):
        assert main(["t1", "--quick", "--platform", "telosb"]) == 0
        out = capsys.readouterr().out
        assert "blink" in out

    def test_multiple_experiments_in_one_invocation(self, capsys):
        assert main(["t1", "f7", "--quick", "--activations", "600"]) == 0
        out = capsys.readouterr().out
        assert "T1" in out
        assert "F7" in out

    def test_bad_platform_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["t1", "--platform", "arduino"])

    def test_bad_jobs_is_an_error(self, capsys):
        assert main(["t1", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err


class TestParallelFlag:
    def test_jobs_output_matches_serial(self, capsys):
        args = ["t1", "f7", "--quick", "--activations", "600"]
        assert main([*args, "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main([*args, "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out

        def tables_only(text: str) -> list[str]:
            # Strip the wall-clock status lines; everything else must match.
            return [
                line
                for line in text.splitlines()
                if not line.startswith("[") and "experiments ok" not in line
            ]

        assert tables_only(serial) == tables_only(parallel)


class TestProgressFlag:
    def test_progress_lines_go_to_stderr(self, capsys):
        assert main(["t1", "--quick", "--progress"]) == 0
        captured = capsys.readouterr()
        assert "[t1] started" in captured.err
        assert "[t1] done in" in captured.err
        assert "[t1] started" not in captured.out


class TestJsonReport:
    def test_report_structure(self, capsys, tmp_path):
        report = tmp_path / "run.json"
        args = ["t3", "--quick", "--activations", "600", "--json", str(report)]
        assert main(args) == 0
        payload = json.loads(report.read_text())
        assert payload["config"]["seed"] == 2015
        (entry,) = payload["experiments"]
        assert entry["id"] == "t3"
        assert entry["ok"] is True
        assert entry["tables"][0]["columns"] == ["suite", "variant", "mae"]
        # Wall-clock fit stages live in the timing side-channel, not tables.
        assert any(key.startswith("fit:") for key in entry["timings"])


class TestFailureReporting:
    def test_failed_experiment_reported_at_exit_without_aborting(
        self, capsys, monkeypatch
    ):
        import repro.experiments as exp_pkg
        import repro.experiments.runner as runner_mod

        def boom(config):
            raise ExperimentError("injected failure")

        patched = dict(exp_pkg.ALL_EXPERIMENTS)
        patched["t1"] = boom
        monkeypatch.setattr(exp_pkg, "ALL_EXPERIMENTS", patched)
        monkeypatch.setattr(runner_mod, "ALL_EXPERIMENTS", patched)

        assert main(["t1", "f7", "--quick", "--activations", "600"]) == 1
        captured = capsys.readouterr()
        # The failure is reported...
        assert "t1: failed: " in captured.err
        assert "injected failure" in captured.err
        # ...and the rest of the run still happened.
        assert "F7" in captured.out
        assert "1/2 experiments ok" in captured.out
