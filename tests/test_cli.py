"""Tests for the command-line interface."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_names_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "figure99"])

    def test_protocol_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "2pc"])


class TestRunCommand:
    def test_prints_metrics_table(self, capsys):
        code = main([
            "run", "--transactions", "10", "--threads", "2",
            "--rate", "10", "--attributes", "20", "--ops", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "VVV/paxos-cp" in out
        assert "commits" in out

    def test_per_dc_prints_breakdown(self, capsys):
        code = main([
            "run", "--transactions", "6", "--threads", "1", "--rate", "20",
            "--ops", "2", "--per-dc", "--cluster", "VOC",
            "--protocol", "paxos",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "per datacenter" in out
        assert "V1" in out and "O" in out and "C" in out

    def test_groups_flag_shards_the_workload(self, capsys):
        code = main([
            "run", "--transactions", "12", "--threads", "2", "--rate", "10",
            "--ops", "3", "--groups", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "VVV/paxos-cp/4g" in out

    def test_per_dc_combined_with_groups_fans_out(self, capsys):
        code = main([
            "run", "--groups", "2", "--per-dc", "--transactions", "6",
            "--threads", "1", "--rate", "20", "--ops", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "per datacenter" in out
        # The sharded placement must not turn routine operations into
        # cross-group failures recorded as unavailable aborts.
        assert "service_unavailable" not in out

    def test_groups_flag_validated(self):
        with pytest.raises(SystemExit):
            main(["run", "--groups", "0", "--transactions", "2"])
        with pytest.raises(SystemExit):
            main(["run", "--groups", "4", "--rows", "2", "--transactions", "2"])

    def test_flags_reach_the_protocol(self, capsys):
        code = main([
            "run", "--transactions", "8", "--threads", "2", "--rate", "10",
            "--ops", "4", "--no-fastpath", "--max-promotions", "0",
            "--protocol", "paxos-cp",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "r1:" not in out  # promotions capped at 0 → no round-1 commits


class TestIsolationFlag:
    def test_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--isolation", "read-committed"])

    def test_si_run_names_cell_and_reports_anomalies(self, capsys):
        code = main([
            "run", "--transactions", "60", "--threads", "8", "--rate", "10",
            "--ops", "4", "--attributes", "4", "--protocol", "paxos",
            "--isolation", "si",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "VVV/paxos/si" in out
        assert "write_skew" in out

    def test_si_rejects_leased_leader(self):
        with pytest.raises(SystemExit, match="leased"):
            main(["run", "--isolation", "si", "--protocol", "leased-leader",
                  "--transactions", "2"])

    def test_si_rejects_queue_and_cross_group_traffic(self):
        with pytest.raises(SystemExit, match="single-group"):
            main(["run", "--isolation", "si", "--groups", "2",
                  "--cross-group-fraction", "0.2", "--transactions", "2"])
        with pytest.raises(SystemExit, match="single-group"):
            main(["run", "--isolation", "si", "--groups", "2",
                  "--queue-fraction", "0.2", "--transactions", "2"])

    def test_check_classifies_under_si(self, capsys):
        code = main([
            "check", "--transactions", "60", "--threads", "8", "--rate", "10",
            "--ops", "4", "--attributes", "4", "--protocol", "paxos",
            "--isolation", "si",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "first-committer-wins: OK" in out
        assert "classified anomalies (expected under si):" in out


class TestOpenLoopGuards:
    def test_open_loop_shards_guard_quotes_shared_message(self, capsys):
        with pytest.raises(SystemExit, match="single-lane"):
            main(["run", "--open-loop", "--shards", "2", "--groups", "2",
                  "--transactions", "2"])


class TestCheckCommand:
    def test_clean_run_reports_ok(self, capsys):
        code = main([
            "check", "--transactions", "10", "--threads", "2",
            "--rate", "10", "--ops", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "MVSG 1SR: OK" in out

    def test_check_survives_faults(self, capsys):
        code = main([
            "check", "--transactions", "10", "--threads", "2",
            "--rate", "10", "--ops", "4",
            "--loss", "0.1", "--duplicate", "0.2",
        ])
        assert code == 0

    def test_one_copy_check_never_imports_networkx(self):
        """Only the anomaly classifier needs the explicit ``networkx`` graph;
        a 1SR run and its MVSG check must not pay its import, which costs
        about as much as the rest of ``import repro.cluster``."""
        script = (
            "import sys\n"
            "import repro.cluster\n"
            "from repro.cli import main\n"
            "code = main(['check', '--protocol', 'paxos-cp', '--transactions', '50'])\n"
            "assert code == 0, code\n"
            "assert 'networkx' not in sys.modules\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            cwd=Path(__file__).resolve().parents[1] / "src",
        )
        assert child.returncode == 0, child.stderr
        assert "MVSG 1SR: OK" in child.stdout


class TestFigureCommand:
    def test_scaled_down_figure_runs(self, capsys):
        code = main(["figure", "figure8", "--transactions", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "== Figure 8 ==" in out
        assert "paper:" in out
