"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.experiment == "table1"
        assert args.scale == "default"
        assert args.dataset is None

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--scale", "huge"])

    def test_snapshot_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["snapshot"])

    def test_snapshot_save_defaults(self):
        args = build_parser().parse_args(["snapshot", "save", "out.sktsnap"])
        assert args.snapshot_command == "save"
        assert args.path == "out.sktsnap"
        assert args.dataset == "dblp"
        assert args.topk == 0 and not args.summary


class TestMain:
    def test_table1_smoke(self, capsys):
        assert main(["table1", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "TREEBANK" in out and "DBLP" in out

    def test_fig8_single_dataset(self, capsys):
        assert main(["fig8", "--scale", "smoke", "--dataset", "dblp"]) == 0
        out = capsys.readouterr().out
        assert "DBLP" in out
        assert "TREEBANK" not in out

    def test_out_file_written(self, capsys, tmp_path):
        out = tmp_path / "report.txt"
        assert main(["table1", "--scale", "smoke", "--out", str(out)]) == 0
        capsys.readouterr()
        assert "Table 1" in out.read_text()

    def test_fig10_with_s1_override(self, capsys):
        code = main(
            ["fig10", "--scale", "smoke", "--dataset", "treebank", "--s1", "25"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "s1=25" in out
        assert "s1=50" not in out


class TestSnapshotCommands:
    OPTS = ["--n-trees", "40", "--s1", "10", "--s2", "3", "--streams", "13"]

    def test_save_then_load_and_query(self, capsys, tmp_path):
        path = tmp_path / "snap.sktsnap"
        assert main(["snapshot", "save", str(path)] + self.OPTS) == 0
        assert path.exists()
        capsys.readouterr()
        code = main(["snapshot", "load", str(path), "--query", "(article (author))"])
        assert code == 0
        out = capsys.readouterr().out
        assert "format version:  3" in out
        assert "trees:           40" in out
        assert "estimate:" in out

    def test_load_corrupt_snapshot_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "bad.sktsnap"
        path.write_bytes(b"not a snapshot")
        assert main(["snapshot", "load", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_resume_continues_from_checkpoint(self, capsys, tmp_path):
        ckpts = str(tmp_path / "ckpts")
        base = ["snapshot", "resume", ckpts, "--every", "10"] + self.OPTS
        assert main(base) == 0
        first = capsys.readouterr().out
        assert "resumed from 0 checkpointed trees" in first
        assert main(base[:5] + ["--n-trees", "60"] + self.OPTS[2:]) == 0
        second = capsys.readouterr().out
        assert "resumed from 40 checkpointed trees; processed 20 more" in second
