"""Command-line interface: validation, artifacts, determinism, precedence."""

import csv
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pwlu
from pwlu import cli
from pwlu.checkpoint import load_model
from pwlu.cli import main
from pwlu.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, load_shape_params
from pwlu.errors import CheckpointError

FAST = ["--dataset", "spirals", "--n-per-class", "40", "--noise", "0.05",
        "--arch", "2,6,2", "--epochs", "4", "--t-prime-epochs", "1",
        "--n-intervals", "4", "--batch-size", "16"]


def run_train(tmp_path, name="run", extra=()):
    out = tmp_path / name
    code = main(["train", *FAST, "--out", str(out), *extra])
    return code, out


class TestValidation:
    @pytest.mark.parametrize("argv,field", [
        (["train", "--n-intervals", "3"], "n_intervals"),
        (["train", "--n-intervals", "0"], "n_intervals"),
        (["train", "--half-width", "-1"], "half_width"),
        (["train", "--arch", "2"], "arch"),
        (["train", "--arch", "2,x,2"], "arch"),
        (["train", "--epochs", "4", "--t-prime-epochs", "4"], "t_prime_epochs"),
        (["train", "--epochs", "4", "--t-prime-epochs", "0"], "t_prime_epochs"),
        (["sweep-n", "--n-list", "4,4"], "n_list"),
        (["sweep-n", "--n-list", "4,7"], "n_list"),
        (["train", "--dataset", "idx:only_one_path"], "dataset"),
        (["export"], "checkpoint"),
        (["train", "--n-per-class", "0"], "n_per_class"),
        (["train", "--noise", "-1"], "noise"),
        (["bench", "--repetitions", "0"], "repetitions"),
        (["train", "--half-width", "nan"], "half_width"),
        (["train", "--lr", "nan"], "lr"),
        (["train", "--noise", "nan"], "noise"),
        (["train", "--activation", "foo"], "activation"),
        (["train", "--epochs", "abc"], "epochs"),
        (["train", "--seed", "-1"], "seed"),
        (["bench", "--batch-elems", "-5"], "batch_elems"),
        (["train", "--half-width", "inf"], "half_width"),
        (["train", "--momentum", "nan"], "momentum"),
        (["train", "--momentum", "inf"], "momentum"),
        (["train", "--weight-decay", "nan"], "weight_decay"),
        (["train", "--lr", "inf"], "lr"),
        (["train", "--noise", "inf"], "noise"),
        (["train", "--epochs", "-1"], "epochs"),
        (["train", "--lr", "-0.5"], "lr"),
        (["train", "--batch-size", "0"], "batch_size"),
        (["train", "--half-width", "1e308"], "half_width"),  # 2 * half_width overflows
        (["train", "--half-width", "1e-13"], "half_width"),  # below MIN_BOUNDARY_WIDTH
        (["train", "--momentum", "-0.5"], "momentum"),
        (["train", "--weight-decay", "-0.5"], "weight_decay"),
    ])
    def test_rejected_with_exit_2(self, capsys, argv, field):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"field={field}" in err and "message=" in err

    @pytest.mark.parametrize("argv", [
        ["train", "--arch", "2,8,1"],  # one output for two classes
        ["sweep-n", "--arch", "3,6,2", "--n-list", "4,8"],  # three inputs for two features
    ])
    def test_arch_must_fit_the_data(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 2
        assert "field=arch" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "sweep-n", "bench", "export"])
    def test_out_that_is_a_file_exits_1(self, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_text("")
        code = main([command, "--checkpoint", str(tmp_path / "c.bin"), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: type=FileExistsError") and err.count("\n") == 1

    def test_t_prime_ignored_when_realign_off(self, tmp_path):
        code, _ = run_train(tmp_path, extra=["--realign", "off",
                                             "--t-prime-epochs", "99"])
        assert code == 0


class TestTrain:
    def test_artifacts(self, tmp_path, capsys):
        code, out = run_train(tmp_path)
        assert code == 0
        assert "final_test_accuracy=" in capsys.readouterr().out
        for name in ("config.txt", "metrics.csv", "checkpoint.bin",
                      "alignment_pre.csv", "alignment_post.csv"):
            assert (out / name).exists(), name
        header, *rows = (out / "metrics.csv").read_text().splitlines()
        assert header == "epoch,iteration,train_loss,lr,test_accuracy"
        for row in rows:
            for cell in row.split(","):
                float(cell)  # a cell like np.float64(0.1) raises ValueError

    def test_same_seed_byte_identical(self, tmp_path):
        _, a = run_train(tmp_path, "a", ["--seed", "3"])
        _, b = run_train(tmp_path, "b", ["--seed", "3"])
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()

    def test_different_seed_differs(self, tmp_path):
        _, a = run_train(tmp_path, "a", ["--seed", "3"])
        _, b = run_train(tmp_path, "b", ["--seed", "4"])
        assert (a / "metrics.csv").read_bytes() != (b / "metrics.csv").read_bytes()

    def test_zero_epochs_checkpoint_is_init(self, tmp_path):
        from pwlu.layers import build_mlp

        code, out = run_train(tmp_path, extra=["--epochs", "0", "--realign", "off"])
        assert code == 0
        model = load_model(out / "checkpoint.bin")
        fresh = build_mlp([2, 6, 2], "pwlu", np.random.default_rng(0),
                          n_intervals=4, seed=0)
        for la, lb in zip(model.layers, fresh.layers):
            if hasattr(la, "weight"):
                np.testing.assert_array_equal(la.weight, lb.weight)
        for la, lb in zip(model.pwlu_layers(), fresh.pwlu_layers()):
            for pa, pb in zip(la.units, lb.units):
                np.testing.assert_array_equal(pa.y_points, pb.y_points)
        assert not (out / "alignment_pre.csv").exists()

    def test_missing_idx_file_is_runtime_error(self, tmp_path, capsys):
        images, labels = tmp_path / "nope.idx", tmp_path / "nope2.idx"
        code = main(["train", "--dataset", f"idx:{images},{labels}",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: type=IdxFormatError")

    def test_relu_baseline_runs(self, tmp_path, capsys):
        code, out = run_train(tmp_path, extra=["--activation", "relu"])
        assert code == 0
        assert not (out / "alignment_pre.csv").exists()


class TestSweep:
    def test_single_element(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep-n", *FAST, "--n-list", "4", "--out", str(out)])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "n_intervals,final_test_accuracy,final_train_loss,status"
        assert len(lines) == 2 and lines[1].startswith("4,")
        assert (out / "n4" / "checkpoint.bin").exists()

    def test_two_values(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep-n", *FAST, "--n-list", "4,8", "--out", str(out)])
        assert code == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 3

    def test_error_status_with_a_comma_stays_one_field(self, tmp_path):
        # 8 training samples: too few for realignment's percentiles, in every run
        out = tmp_path / "sweep"
        code = main(["sweep-n", "--n-per-class", "4", "--batch-size", "4", "--arch", "2,6,2",
                     "--epochs", "4", "--t-prime-epochs", "1", "--n-list", "4,8",
                     "--out", str(out)])
        assert code == 0
        with open(out / "sweep.csv", newline="") as fh:
            table = list(csv.reader(fh))
        assert [len(row) for row in table] == [4, 4, 4]
        status = "error: need at least 20 samples, got 8"
        assert table[1:] == [["4", "nan", "nan", status], ["8", "nan", "nan", status]]

    def test_unreadable_dataset_exits_1_before_any_run(self, tmp_path, capsys):
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(struct.pack(">4I", IDX_IMAGES_MAGIC, 10, 2, 2) + bytes(3))
        labels.write_bytes(struct.pack(">2I", IDX_LABELS_MAGIC, 10) + bytes(10))
        out = tmp_path / "sweep"
        code = main(["sweep-n", "--dataset", f"idx:{images},{labels}", "--n-list", "4,8",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: type=TruncatedPayloadError") and err.count("\n") == 1
        assert "payload holds 3 bytes, header promises 40" in err
        assert list(out.iterdir()) == []


class TestBench:
    def test_quick(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(["bench", "--repetitions", "3", "--batch-elems", "1000",
                     "--out", str(out)])
        assert code == 0
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[0] == "kernel,mean_ms,std_ms"
        names = [l.split(",")[0] for l in lines[1:]]
        assert names == ["relu", "reference", "fused_f64", "fused_f32"]

    def test_checkpoint_times_the_model_both_ways(self, tmp_path, capsys):
        _, run = run_train(tmp_path)
        out = tmp_path / "bench"
        code = main(["bench", "--checkpoint", str(run / "checkpoint.bin"),
                     "--repetitions", "3", "--batch-elems", "1000", "--out", str(out)])
        assert code == 0
        rows = [l.split(",") for l in (out / "bench.csv").read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["relu", "reference", "fused_f64", "fused_f32",
                                        "model_forward", "model_predict"]
        assert all(float(mean) > 0 and float(std) >= 0 for _, mean, std in rows)


class TestExport:
    def test_round_trip(self, tmp_path):
        _, run = run_train(tmp_path)
        out = tmp_path / "exp"
        code = main(["export", "--checkpoint", str(run / "checkpoint.bin"),
                     "--out", str(out)])
        assert code == 0
        entries = load_shape_params(str(out / "shapes.json"))
        model = load_model(run / "checkpoint.bin")
        units = [p for layer in model.pwlu_layers() for p in layer.units]
        assert len(entries) == len(units)
        for (_, _, loaded), orig in zip(entries, units):
            np.testing.assert_array_equal(loaded.y_points, orig.y_points)

    def test_missing_checkpoint_is_runtime_error(self, tmp_path, capsys):
        code = main(["export", "--checkpoint", str(tmp_path / "nope.bin"),
                     "--out", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize("corrupt", [
        lambda raw: raw[:-9],                       # truncated tail
        lambda raw: raw + b"\0" * 8,                # trailing bytes
        lambda raw: raw[:20] + b"\xff" + raw[21:],  # header is not UTF-8 JSON
        lambda raw: raw.replace(b'"version": 4', b'"version": 1'),  # v1 is not read
        lambda raw: raw.replace(b'"version": 4', b'"version": 2'),  # nor is v2
        lambda raw: raw.replace(b'"version": 4', b'"version": 3'),  # nor is v3
    ])
    def test_corrupt_checkpoint_is_runtime_error(self, tmp_path, capsys, corrupt):
        _, run = run_train(tmp_path)
        path = run / "checkpoint.bin"
        path.write_bytes(corrupt(path.read_bytes()))
        code = main(["export", "--checkpoint", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: type=CheckpointError")

    def test_conv_layer_is_unknown(self, tmp_path, capsys):
        # No conv layer type exists; a manifest that names one fails as any unknown type does.
        _, run = run_train(tmp_path)
        path = run / "checkpoint.bin"
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12:12 + hlen])
        header["layers"][0]["type"] = "conv"
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + hlen:])
        with pytest.raises(CheckpointError, match="unknown layer type 'conv'"):
            load_model(path)
        code = main(["export", "--checkpoint", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: type=CheckpointError")


class TestConfigFile:
    def test_precedence_cli_over_file_over_default(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\nepochs=4\nn_intervals=8\nseed=5\n")
        out = tmp_path / "o"
        code = main(["train", *FAST, "--config", str(cfg),
                     "--n-intervals", "4", "--out", str(out)])
        assert code == 0
        text = (out / "config.txt").read_text()
        assert "n_intervals=4" in text     # CLI beats file
        assert "seed=5" in text            # file beats default
        assert "momentum=0.9" in text      # default survives

    def test_resolved_config_reproduces_run(self, tmp_path):
        _, a = run_train(tmp_path, "a", ["--seed", "2"])
        out = tmp_path / "b"
        code = main(["train", "--config", str(a / "config.txt"), "--out", str(out)])
        assert code == 0
        assert (a / "metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("lr=0.1\nbogus_key=1\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "field=config" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        assert main(["train", "--config", str(cfg)]) == 2

    def test_unparsable_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs=abc\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "field=epochs" in capsys.readouterr().err

    def test_missing_file_rejected(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert "field=config" in capsys.readouterr().err

    def test_default_config_txt(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_training", lambda config, train, test, out_dir: {
            "final_test_accuracy": 0.0, "final_train_loss": 0.0})
        out = tmp_path / "o"
        assert main(["train", "--out", str(out)]) == 0
        assert (out / "config.txt").read_text() == "".join(f"{line}\n" for line in [
            "activation=pwlu", "arch=2,32,32,2", "batch_elems=1000000", "batch_size=64",
            "checkpoint=", "dataset=spirals", "epochs=60", "granularity=channel",
            "half_width=3.0", "lr=0.1", "momentum=0.9", "n_intervals=16",
            "n_list=4,8,12,16,20", "n_per_class=600", "noise=0.02", f"out={out}",
            "realign=on", "repetitions=500", "seed=0", "t_prime_epochs=5",
            "weight_decay=0.0",
        ])


def run_python(*args, cwd=None):
    """Run a fresh interpreter that imports this checkout's package."""
    src = str(Path(pwlu.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, cwd=cwd,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})


class TestModuleEntryPoint:
    @staticmethod
    def python_m_pwlu(*args):
        return run_python("-m", "pwlu", *args)

    def test_help_exits_zero(self):
        proc = self.python_m_pwlu("--help")
        assert proc.returncode == 0, proc.stderr
        assert "train" in proc.stdout

    def test_bad_config_exit_code_passes_through(self):
        proc = self.python_m_pwlu("train", "--epochs", "-1")
        assert proc.returncode == 2
        assert "field=epochs" in proc.stderr


# fused_bench.py is left out: it is a timing loop over kernel functions, with no result to check.
@pytest.mark.parametrize("demo", ["shape_gallery.py", "train_spirals.py"])
def test_demo_runs(tmp_path, demo):
    proc = run_python(str(Path(__file__).resolve().parents[1] / "demos" / demo), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
