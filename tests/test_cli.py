"""Tests for the command-line interface."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _spec_from_args, build_parser, main
from repro.config import (
    CrashWindow,
    FaultProfile,
    FaultScheduleConfig,
    LossWindow,
    OutageWindow,
    PartitionWindow,
)


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


def faults_of(*argv: str) -> FaultScheduleConfig:
    """The fault schedule ``repro run`` builds from *argv*."""
    return _spec_from_args(build_parser().parse_args(["run", *argv])).cluster.faults


class TestFaultFlags:
    def test_no_flags_no_faults(self):
        assert faults_of() == FaultScheduleConfig()

    def test_outage(self):
        assert faults_of("--outage", "V1:100:50.5") == FaultScheduleConfig(
            outages=(OutageWindow("V1", 100.0, 50.5),)
        )

    def test_partition(self):
        assert faults_of("--partition", "V1:V2:10:20") == FaultScheduleConfig(
            partitions=(PartitionWindow("V1", "V2", 10.0, 20.0),)
        )

    def test_loss_episode(self):
        assert faults_of("--loss-episode", "0.3:5:6") == FaultScheduleConfig(
            loss_windows=(LossWindow(0.3, 5.0, 6.0),)
        )

    def test_crash(self):
        assert faults_of("--crash", "V2:100:400") == FaultScheduleConfig(
            crashes=(CrashWindow("V2", 100.0, 400.0),)
        )

    def test_repeated_flags_keep_their_order(self):
        assert faults_of(
            "--outage", "V2:5:1", "--outage", "V1:1:2",
        ).outages == (OutageWindow("V2", 5.0, 1.0), OutageWindow("V1", 1.0, 2.0))

    def test_fault_profile(self):
        assert faults_of("--fault-profile", "1000:200:5000") == FaultScheduleConfig(
            profile=FaultProfile(mttf_ms=1000.0, mttr_ms=200.0, horizon_ms=5000.0)
        )

    @pytest.mark.parametrize("flag, value, message", [
        ("--outage", "V1:100", "--outage expects 3 colon-separated fields"),
        ("--partition", "V1:V2:10", "--partition expects 4 colon-separated fields"),
        ("--loss-episode", "0.3:5:6:7",
         "--loss-episode expects 3 colon-separated fields"),
        ("--crash", "V1:100:400:1", "--crash expects 3 colon-separated fields"),
        ("--fault-profile", "1000:200",
         "--fault-profile expects 3 colon-separated fields"),
        ("--outage", "V1:soon:50", "--outage: 'soon' is not a number"),
        ("--partition", "V1:V2:10:long", "--partition: 'long' is not a number"),
        ("--loss-episode", "half:5:6", "--loss-episode: 'half' is not a number"),
        ("--crash", "V1:100:never", "--crash: 'never' is not a number"),
        ("--fault-profile", "1000:x:5000", "--fault-profile: 'x' is not a number"),
    ])
    def test_malformed_value_exits_with_the_parser_message(self, flag, value, message):
        with pytest.raises(SystemExit) as exit_info:
            faults_of(flag, value)
        assert exit_info.value.code == f"error: {message}" + (
            f", got {value!r}" if "fields" in message else ""
        )


#: ``repro run`` flags and where each lands: ``spec.…`` in the spec
#: ``_spec_from_args`` builds, ``args.…`` where ``cmd_run`` reads the parsed
#: value itself.  Every value differs from the flag's default.
FLAG_FIELDS = [
    ("--read-fraction", "0.25", "spec.workload.read_fraction", 0.25),
    ("--group-distribution", "zipfian", "spec.workload.group_distribution",
     "zipfian"),
    ("--engine", "sharded", "spec.cluster.engine", "sharded"),
    ("--cross-group-span", "3", "spec.workload.cross_group_span", 3),
    ("--users", "5000", "spec.workload.n_users", 5000),
    ("--offered-load", "12.5", "spec.workload.offered_load", 12.5),
    ("--pool", "3", "spec.workload.pool_size", 3),
    ("--max-pending", "7", "spec.workload.max_pending", 7),
    ("--duration-ms", "2500", "spec.workload.open_duration_ms", 2500.0),
    ("--retry-attempts", "5", "spec.cluster.protocol.retry_attempts", 5),
    ("--retry-backoff-cap-ms", "160", "spec.cluster.protocol.retry_backoff_cap_ms",
     160.0),
    ("--deadline-ms", "900", "spec.cluster.protocol.deadline_ms", 900.0),
    ("--trials", "4", "args.trials", 4),
]


def landed(argv: list[str], path: str) -> object:
    """The value at *path* after parsing ``repro run`` *argv*."""
    args = build_parser().parse_args(["run", *argv])
    root, *names = path.split(".")
    target = args if root == "args" else _spec_from_args(args)
    for name in names:
        target = getattr(target, name)
    return target


@pytest.mark.parametrize("flag, value, path, expected", FLAG_FIELDS,
                         ids=[flag for flag, *_ in FLAG_FIELDS])
def test_run_flag_reaches_its_field(flag, value, path, expected):
    assert landed([], path) != expected
    assert landed([flag, value], path) == expected


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
    def test_cell_name_keeps_the_poisson_suffix(self):
        args = build_parser().parse_args(["run", "--open-loop"])
        assert _spec_from_args(args).name == "VVV/paxos-cp/open-poisson"

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
        """``networkx`` is the tests' reference oracle, not a dependency: a
        1SR run and its MVSG check must not pay its import, which costs
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

    def test_si_check_classifies_without_networkx(self):
        """The anomaly classifier runs on the chained graph: with
        ``networkx`` unimportable an ``si`` check still names its write
        skew."""
        script = (
            "import sys\n"
            "sys.modules['networkx'] = None\n"
            "from repro.cli import main\n"
            "code = main(['check', '--isolation', 'si', '--protocol', 'paxos',\n"
            "             '--transactions', '60', '--threads', '8', '--rate', '10',\n"
            "             '--ops', '4', '--attributes', '4'])\n"
            "assert code == 0, code\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            cwd=Path(__file__).resolve().parents[1] / "src",
        )
        assert child.returncode == 0, child.stderr
        assert "write_skew" in child.stdout


class TestFigureCommand:
    def test_scaled_down_figure_runs(self, capsys):
        code = main(["figure", "figure8", "--transactions", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "== Figure 8 ==" in out
        assert "paper:" in out
