"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_flow_args(self):
        args = build_parser().parse_args(["flow", "arm9", "7nm"])
        assert args.design == "arm9"
        assert args.node == "7nm"

    def test_invalid_node_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["flow", "arm9", "3nm"])

    def test_predict_args(self):
        args = build_parser().parse_args(
            ["predict", "usbf_device", "aes_cipher_top",
             "--uncertainty", "--mc-samples", "8", "--no-cache",
             "--model", "model.npz"])
        assert args.designs == ["usbf_device", "aes_cipher_top"]
        assert args.uncertainty and args.no_cache
        assert args.mc_samples == 8
        assert args.model == "model.npz"

    def test_predict_defaults(self):
        args = build_parser().parse_args(["predict", "usbf_device"])
        assert args.model is None
        assert args.mc_samples == 0
        assert not args.uncertainty and not args.no_cache
        assert args.repeat == 1

    def test_predict_requires_a_design(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["predict"])

    def test_train_save_model_flag(self):
        args = build_parser().parse_args(
            ["train", "--save-model", "out.npz"])
        assert args.save_model == "out.npz"

    def test_train_checkpoint_flags(self):
        args = build_parser().parse_args(["train"])
        assert args.checkpoint_every == 25
        assert args.resume is None
        args = build_parser().parse_args(
            ["train", "--checkpoint-every", "10",
             "--resume", "runs/x"])
        assert args.checkpoint_every == 10
        assert args.resume == "runs/x"

    def test_train_rejects_removed_no_fused_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--no-fused"])


class TestBuildWorkersFlag:
    """``--build-workers`` is the one spelling of dataset-build processes;
    ``--workers`` survives as a warning alias where it used to mean that."""

    COMMANDS = (["predict", "usbf_device"], ["experiments"], ["serve"],
                ["train"], ["ladder"])

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_positive_count_parses(self, command):
        args = build_parser().parse_args(command + ["--build-workers", "3"])
        assert args.build_workers == 3

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_non_positive_count_rejected(self, command, count):
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + ["--build-workers", count])

    @pytest.mark.parametrize("command", COMMANDS[:3], ids=lambda c: c[0])
    def test_workers_alias_maps_to_build_workers_and_warns(self, command):
        with pytest.warns(FutureWarning, match="--build-workers"):
            args = build_parser().parse_args(command + ["--workers", "2"])
        assert args.build_workers == 2

    @pytest.mark.parametrize("command", COMMANDS[:3], ids=lambda c: c[0])
    def test_workers_alias_is_validated(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + ["--workers", "0"])

    def test_train_workers_still_means_training_shards(self):
        args = build_parser().parse_args(["train", "--workers", "2"])
        assert args.workers == 2
        assert args.build_workers == 1

    def test_experiments_module_entry_point_takes_the_flag(self):
        from repro.experiments.runner import main as runner_main

        with pytest.raises(SystemExit):
            runner_main(["--build-workers", "0"])


class TestCommands:
    def test_libs(self, capsys):
        assert main(["libs"]) == 0
        out = capsys.readouterr().out
        assert "sky130_synth" in out and "asap7_synth" in out

    def test_sta_report(self, capsys):
        assert main(["sta", "usbf_device", "7nm", "--paths", "1"]) == 0
        out = capsys.readouterr().out
        assert "WNS" in out and "Startpoint:" in out

    def test_export(self, tmp_path, capsys):
        assert main(["export", "usbf_device", "7nm",
                     str(tmp_path)]) == 0
        assert (tmp_path / "usbf_device.v").exists()
        assert (tmp_path / "usbf_device.def").exists()
        assert (tmp_path / "usbf_device.spef").exists()
        assert (tmp_path / "asap7_synth.lib").exists()

    def test_exported_files_parse_back(self, tmp_path):
        main(["export", "usbf_device", "7nm", str(tmp_path)])
        from repro.io import parse_liberty, parse_verilog

        lib = parse_liberty((tmp_path / "asap7_synth.lib").read_text())
        netlist = parse_verilog(
            (tmp_path / "usbf_device.v").read_text(), lib
        )
        netlist.validate()


class TestReportRunCommand:
    @staticmethod
    def _write_run(run_dir):
        from repro.obs import RunLogger
        from repro.train import TrainConfig

        with RunLogger(run_dir) as logger:
            logger.log_manifest(config=TrainConfig(steps=3),
                                seeds={"train": 0})
            for t in range(3):
                logger.log_step(t, {"lr": 1e-3, "step_seconds": 0.01,
                                    "total": 2.0 - 0.5 * t})
            logger.log_event("final_weights", source="final-iterate")
            logger.log_summary(
                per_design={"usbf_device": {"r2": 0.9}},
                timings={"flow.run": {"calls": 1, "seconds": 1.0}},
                mean_r2=0.9)
        return run_dir

    def test_report_run(self, tmp_path, capsys):
        run_dir = self._write_run(tmp_path / "run")
        assert main(["report-run", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "total  [first" in out
        assert "final weights: final-iterate" in out
        assert "flow.run" in out

    def test_report_run_with_diff(self, tmp_path, capsys):
        run_a = self._write_run(tmp_path / "a")
        run_b = self._write_run(tmp_path / "b")
        assert main(["report-run", str(run_a),
                     "--diff", str(run_b)]) == 0
        out = capsys.readouterr().out
        assert f"manifest diff vs {run_b}" in out

    def test_missing_run_dir_fails(self, tmp_path, capsys):
        assert main(["report-run", str(tmp_path / "absent")]) == 1
        assert "not a run directory" in capsys.readouterr().out


class TestReportCommand:
    def test_report(self, capsys):
        assert main(["report", "usbf_device", "7nm"]) == 0
        out = capsys.readouterr().out
        assert "gate mix" in out
        assert "total power" in out

    def test_report_with_mc(self, capsys):
        assert main(["report", "usbf_device", "7nm",
                     "--mc-samples", "4"]) == 0
        out = capsys.readouterr().out
        assert "statistical STA" in out
