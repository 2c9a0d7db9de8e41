"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_record_defaults(self):
        args = build_parser().parse_args(["record", "fft"])
        assert args.mode == "order-only"
        assert args.scale == 0.5
        assert args.checkpoint_every == 0

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["record", "volrend"])

    def test_unknown_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["record", "fft", "--mode",
                                       "bogus"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("argv", [["modes", "racey"],
                                      ["explore", "handoff"],
                                      ["chaos", "racey"],
                                      ["chaos", "squash-livelock"]])
    def test_runner_commands_reject_stress_apps(self, argv, capsys):
        """The runner builds programs through program_for, which has
        no stress apps: they fail at parsing, before any job runs."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_program_building_commands_keep_stress_apps(self):
        assert build_parser().parse_args(
            ["record", "racey"]).workload == "racey"
        assert build_parser().parse_args(
            ["trace", "--app", "starvation"]).workload == "starvation"
        assert build_parser().parse_args(
            ["explore", "lost-update"]).workload == "lost-update"

    def test_submit_kinds_come_from_the_job_table(self):
        from repro.runner.jobs import JOB_TABLE

        for kind in JOB_TABLE:
            assert build_parser().parse_args(
                ["submit", kind]).kind == kind
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "dance"])


class TestRecordReplayFlow:
    @pytest.fixture
    def recording_path(self, tmp_path):
        path = tmp_path / "run.dlrn"
        code = main(["record", "fft", "--scale", "0.1", "--seed", "3",
                     "--checkpoint-every", "8", "-o", str(path)])
        assert code == 0
        assert path.exists()
        return path

    def test_record_writes_file(self, recording_path):
        assert recording_path.stat().st_size > 0

    def test_replay_verifies(self, recording_path, capsys):
        code = main(["replay", str(recording_path)])
        assert code == 0
        assert "deterministic" in capsys.readouterr().out

    def test_replay_with_perturbation(self, recording_path):
        assert main(["replay", str(recording_path),
                     "--perturb-seed", "11"]) == 0

    def test_interval_replay(self, recording_path, capsys):
        code = main(["replay", str(recording_path),
                     "--from-commit", "9"])
        assert code == 0
        assert "interval replay" in capsys.readouterr().out

    def test_inspect(self, recording_path, capsys):
        code = main(["inspect", str(recording_path), "--timeline",
                     "--interleaving", "--limit", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "DeLorean recording" in out
        assert "Commit timeline" in out
        assert "interleaving" in out

    def test_missing_file_reports_error(self, tmp_path, capsys):
        code = main(["replay", str(tmp_path / "nope.dlrn")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_corrupt_file_reports_error(self, tmp_path, capsys):
        path = tmp_path / "bad.dlrn"
        path.write_bytes(b"not a recording at all")
        code = main(["inspect", str(path)])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestRacesCommand:
    @pytest.fixture
    def recording_path(self, tmp_path):
        path = tmp_path / "srv.dlrn"
        assert main(["record", "sjbb2k", "--scale", "0.2", "--seed",
                     "5", "--checkpoint-every", "10",
                     "-o", str(path)]) == 0
        return path

    def test_reports_contention(self, recording_path, capsys):
        code = main(["races", str(recording_path), "--top", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "contention" in out

    def test_no_dma_filter(self, recording_path, capsys):
        assert main(["races", str(recording_path), "--no-dma"]) == 0
        out = capsys.readouterr().out
        # No writer column may list the DMA engine once filtered.
        for row in out.splitlines():
            assert "dma" not in row.split()[1:2]

    def test_negative_top_clamps(self, recording_path, capsys):
        assert main(["races", str(recording_path), "--top", "-1"]) == 0
        out = capsys.readouterr().out
        total = int(out.split("(")[1].split(" lines")[0])
        assert f"... {total} more contended lines" in out

    def test_replay_window(self, recording_path, capsys):
        code = main(["races", str(recording_path), "--replay"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Replaying" in out or "full replay" in out
        assert "deterministic" in out

    def test_replay_needs_checkpoints(self, tmp_path, capsys):
        path = tmp_path / "plain.dlrn"
        assert main(["record", "sjbb2k", "--scale", "0.2", "--seed",
                     "5", "-o", str(path)]) == 0
        capsys.readouterr()
        code = main(["races", str(path), "--replay"])
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err


class TestModesCommand:
    def test_modes_table(self, capsys):
        code = main(["modes", "water-sp", "--scale", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "order-only" in out
        assert "picolog" in out
        assert "NO" not in out  # every mode replay verified


class TestRecordOptions:
    def test_stratify_and_picolog(self, tmp_path, capsys):
        path = tmp_path / "s.dlrn"
        assert main(["record", "barnes", "--scale", "0.1",
                     "--stratify", "-o", str(path)]) == 0
        assert "stratified PI log" in capsys.readouterr().out
        assert main(["record", "barnes", "--scale", "0.1", "--mode",
                     "picolog"]) == 0


class TestFlagConflicts:
    def test_strata_with_from_commit_rejected(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "r.dlrn"
        main(["record", "water-sp", "--scale", "0.1", "--stratify",
              "--checkpoint-every", "5", "-o", str(path)])
        capsys.readouterr()
        code = main(["replay", str(path), "--strata",
                     "--from-commit", "5"])
        assert code == 2
        assert "cannot combine" in capsys.readouterr().err
