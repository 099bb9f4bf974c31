"""Tests for the profibus-rt command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scenario_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyse", "--scenario", "nope"])

    def test_policy_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyse", "--policy", "lifo"])


class TestAnalyse:
    def test_dm_schedulable_exit_zero(self, capsys):
        rc = main(["analyse", "--scenario", "factory-cell", "--policy", "dm"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "schedulable: True" in out
        assert "axis-setpoint" in out

    def test_fcfs_miss_exit_one(self, capsys):
        rc = main(["analyse", "--scenario", "factory-cell", "--policy", "fcfs"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "MISS" in out

    def test_ttr_override(self, capsys):
        rc = main(["analyse", "--scenario", "factory-cell", "--policy", "dm",
                   "--ttr", "8000"])
        out = capsys.readouterr().out
        assert "TTR=8000" in out

    def test_refined_flag(self, capsys):
        rc = main(["analyse", "--scenario", "factory-cell", "--policy", "dm",
                   "--refined"])
        assert rc in (0, 1)


class TestTtr:
    def test_reports_all_policies(self, capsys):
        rc = main(["ttr", "--scenario", "factory-cell"])
        out = capsys.readouterr().out
        assert rc == 0
        for pol in ("fcfs", "dm", "edf"):
            assert pol in out

    def test_single_master_fcfs_infeasible(self, capsys):
        rc = main(["ttr", "--scenario", "single-master"])
        out = capsys.readouterr().out
        assert "infeasible" in out


class TestSimulate:
    def test_sound_run_exit_zero(self, capsys):
        rc = main(["simulate", "--scenario", "single-master",
                   "--policy", "edf", "--horizon-ms", "500"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all bounds sound: True" in out

    def test_observed_column_present(self, capsys):
        main(["simulate", "--scenario", "single-master",
              "--policy", "fcfs", "--horizon-ms", "300"])
        out = capsys.readouterr().out
        assert "observed" in out
        assert "max TRR observed" in out


class TestReport:
    def test_breakdown_fields(self, capsys):
        rc = main(["report", "--scenario", "paper-illustration"])
        out = capsys.readouterr().out
        assert rc == 0
        for needle in ("ring latency", "Tdel (eq. 13)", "Tcycle (eq. 14)",
                       "per-master longest cycles"):
            assert needle in out


class TestBandwidth:
    def test_reports_fraction_per_policy(self, capsys):
        rc = main(["bandwidth", "--scenario", "factory-cell"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "% of bus time" in out
        for pol in ("fcfs", "dm", "edf"):
            assert pol in out


class TestExportAndFile:
    def test_export_then_analyse_file(self, tmp_path, capsys):
        path = tmp_path / "net.json"
        rc = main(["export", "--scenario", "single-master", str(path)])
        assert rc == 0
        assert path.exists()
        capsys.readouterr()
        rc = main(["analyse", "--file", str(path), "--policy", "dm"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "schedulable: True" in out

    def test_file_and_ttr_override(self, tmp_path, capsys):
        path = tmp_path / "net.json"
        main(["export", "--scenario", "single-master", str(path)])
        capsys.readouterr()
        rc = main(["analyse", "--file", str(path), "--policy", "dm",
                   "--ttr", "2000"])
        out = capsys.readouterr().out
        assert "TTR=2000" in out


class TestExitCodeMatrix:
    """One row per failure mode: the CLI must exit with a *clean*
    diagnostic and a documented code — argparse rejections exit 2,
    runtime rejections exit via SystemExit with a message (code 1 when
    raised with a string), never a traceback."""

    def test_bad_scenario_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyse", "--scenario", "not-a-plant"])
        assert exc.value.code == 2

    def test_bad_policy_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyse", "--policy", "lifo"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["analyse", "--mode", "generic"],
        ["sweep", "--mode", "fast"],
        ["bench"],
    ])
    def test_retired_engine_knobs_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_conflicting_scenario_and_file_exit_2(self, tmp_path):
        path = tmp_path / "net.json"
        with pytest.raises(SystemExit) as exc:
            main(["analyse", "--scenario", "factory-cell",
                  "--file", str(path)])
        assert exc.value.code == 2

    def test_missing_file_is_a_clean_message(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["analyse", "--file", str(tmp_path / "missing.json")])
        assert "cannot read scenario file" in str(exc.value.code)

    def test_malformed_file_is_a_clean_message(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit) as exc:
            main(["analyse", "--file", str(path)])
        assert "bad scenario file" in str(exc.value.code)

    def test_unknown_key_in_file_is_a_clean_message(self, tmp_path):
        path = tmp_path / "typo.json"
        path.write_text('{"masters": [{"address": 1, "dealine": 5}]}')
        with pytest.raises(SystemExit) as exc:
            main(["analyse", "--file", str(path)])
        assert "bad scenario file" in str(exc.value.code)

    def test_unknown_scenario_listed_before_file_processing(self, tmp_path):
        """Programmatic callers (argparse can't reach this): an unknown
        scenario is diagnosed with the valid choices *before* any file
        handling touches the filesystem."""
        import argparse

        from repro.cli import _load_network

        args = argparse.Namespace(
            scenario="bogus", file=str(tmp_path / "never-read.json"),
            ttr=None,
        )
        with pytest.raises(SystemExit) as exc:
            _load_network(args)
        message = str(exc.value.code)
        assert "unknown scenario 'bogus'" in message
        assert "factory-cell" in message  # the valid choices are listed

    def test_namespace_without_any_source_is_diagnosed(self):
        import argparse

        from repro.cli import _load_network

        with pytest.raises(SystemExit) as exc:
            _load_network(argparse.Namespace(scenario=None, file=None))
        assert "need --scenario or --file" in str(exc.value.code)


class TestTrace:
    def test_timeline_rendered(self, capsys):
        rc = main(["trace", "--scenario", "single-master", "--policy", "dm",
                   "--horizon-ms", "60", "--window-ms", "20", "--width", "60"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "token arrival" in out
        assert "bus utilisation" in out
        assert "|" in out
