"""Command-line interface: validation, artifacts, determinism, precedence."""

import contextlib
import csv
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pwlu
from pwlu import cli
from pwlu.checkpoint import load_model, save_checkpoint
from pwlu.cli import main
from pwlu.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, load_shape_params
from pwlu.errors import CheckpointError, DegenerateParameterError
from pwlu.kernel import init_pwlu_relu
from pwlu.layers import build_mlp
from pwlu.optim import TrainSchedule
from pwlu.trainer import Trainer

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
        (["sweep-n", "--activation", "relu", "--epochs", "4", "--t-prime-epochs", "4"],
         "activation"),  # relu skips the t_prime_epochs check, so the sweep must stop here
        (["sweep-n", "--activation", "swish", "--epochs", "0"], "activation"),
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

    # 10 spirals points at batch 1: each collect epoch gives a channel unit 10 samples,
    # and a layer unit 10 per hidden channel of its narrowest layer.
    @pytest.mark.parametrize("extra, code", [
        (["--t-prime-epochs", "1"], 2),
        (["--t-prime-epochs", "2"], 0),
        (["--t-prime-epochs", "1", "--granularity", "layer", "--arch", "2,3,1,2"], 2),
        (["--t-prime-epochs", "1", "--granularity", "layer", "--arch", "2,2,2"], 0),
    ])
    def test_collect_phase_needs_samples_for_the_reports(self, tmp_path, capsys, extra, code):
        out = tmp_path / "o"
        argv = ["train", "--n-per-class", "5", "--batch-size", "1", "--epochs", "3", *extra]
        assert main([*argv, "--out", str(out)]) == code
        if code == 2:  # rejected before any training
            assert "field=t_prime_epochs" in capsys.readouterr().err
            assert list(out.iterdir()) == []

    def test_sweep_collect_phase_needs_samples_for_the_reports(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["sweep-n", "--n-per-class", "5", "--batch-size", "1", "--epochs", "3",
                "--t-prime-epochs", "1", "--n-list", "4,8"]
        assert main([*argv, "--out", str(out)]) == 2
        assert "field=t_prime_epochs" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_t_prime_ignored_when_realign_off(self, tmp_path):
        code, _ = run_train(tmp_path, extra=["--realign", "off",
                                             "--t-prime-epochs", "99"])
        assert code == 0


class TestSchedule:
    """`RunConfig.schedule` turns the config's epochs into the trainer's iterations."""

    def test_realign_off_or_no_pwlu_has_no_realign_iteration(self):
        for fields in (dict(realign="off"), dict(activation="relu")):
            config = cli.RunConfig("train", epochs=4, t_prime_epochs=1, **fields)
            assert config.schedule(1200).realign_iteration == 0

    def test_batch_larger_than_the_data_is_one_iteration_per_epoch(self):
        schedule = cli.RunConfig("train", epochs=4, t_prime_epochs=1, batch_size=64).schedule(10)
        assert (schedule.total_iterations, schedule.realign_iteration) == (4, 1)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 3000), st.integers(1, 300), st.integers(2, 8), st.data())
    def test_iterations_are_whole_trainer_epochs(self, n_train, batch_size, epochs, data):
        t_prime = data.draw(st.integers(1, epochs - 1))
        config = cli.RunConfig("train", epochs=epochs, t_prime_epochs=t_prime,
                               batch_size=batch_size)
        schedule = config.schedule(n_train)
        model = build_mlp([2, 2], "relu", np.random.default_rng(0))
        trainer = Trainer(model, schedule, np.zeros((n_train, 2)),
                          np.zeros(n_train, dtype=np.int64), batch_size=batch_size)
        assert schedule.total_iterations == epochs * trainer.iters_per_epoch
        assert schedule.realign_iteration == t_prime * trainer.iters_per_epoch


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

    @pytest.mark.parametrize("samples", [0, 1])
    def test_idx_too_small_to_split_is_runtime_error(self, tmp_path, capsys, samples):
        # 0 samples failed in a reshape, 1 sample left an empty 90% train split
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(struct.pack(">4I", IDX_IMAGES_MAGIC, samples, 1, 2)
                           + bytes(2 * samples))
        labels.write_bytes(struct.pack(">2I", IDX_LABELS_MAGIC, samples) + bytes(samples))
        code = main(["train", "--dataset", f"idx:{images},{labels}", "--arch", "2,4,1",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: type=IdxFormatError") and err.count("\n") == 1
        assert f"{samples} samples, need at least 2" in err

    def test_diverging_run_prints_one_error_line(self, tmp_path, capsys):
        # Overflows in the bank, the Dense matmul and the loss: numpy's warnings stay silent.
        argv = ["train", "--n-per-class", "5", "--batch-size", "1", "--epochs", "3",
                "--t-prime-epochs", "1", "--granularity", "layer"]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: type=NonFiniteLossError") and err.count("\n") == 1

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

    def test_error_status_with_a_comma_stays_one_field(self, tmp_path, monkeypatch):
        # Every run fails with a runtime fault whose message holds a comma.
        message = "pwlu0: unit 0: boundary interval [nan, 3.0] is degenerate (width nan)"

        def fail(*args):
            raise DegenerateParameterError(message)

        monkeypatch.setattr(cli, "run_training", fail)
        out = tmp_path / "sweep"
        code = main(["sweep-n", *FAST, "--n-list", "4,8", "--out", str(out)])
        assert code == 0
        with open(out / "sweep.csv", newline="") as fh:
            table = list(csv.reader(fh))
        assert [len(row) for row in table] == [4, 4, 4]
        status = f"error: {message}"
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

    def assert_rejected_before_timing(self, capsys, out, argv, field):
        code = main(["bench", *argv, "--repetitions", "1", "--batch-elems", "100",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: field={field} message=") and err.count("\n") == 1
        assert not (out / "bench.csv").exists()

    def test_half_width_beyond_float32_is_rejected(self, tmp_path, capsys):
        # 1e200 casts to an infinite float32 boundary: fused_f32 would time a table
        # that gives 0 for every input.
        self.assert_rejected_before_timing(capsys, tmp_path / "bench",
                                           ["--half-width", "1e200"], "half_width")

    @pytest.mark.parametrize("center,half_width", [(0.0, 1e200), (5e299, 5e299)])
    def test_checkpoint_unit_beyond_float32_is_rejected(self, tmp_path, capsys, center,
                                                        half_width):
        # [0, 1e300] casts to finite float32 entries but a zero inverse interval length,
        # which sends every input to one segment.
        model = build_mlp([2, 4, 2], "pwlu", np.random.default_rng(0), n_intervals=4)
        bank, unit = model.pwlu_layers()[0], init_pwlu_relu(4, half_width, center=center)
        bank.b_l[0], bank.b_r[0] = unit.left_boundary, unit.right_boundary
        bank.y[0] = unit.y_points
        trainer = Trainer(model, TrainSchedule(1, 0, 0.1), np.zeros((4, 2)),
                          np.zeros(4, np.int64))
        save_checkpoint(tmp_path / "checkpoint.bin", trainer)
        self.assert_rejected_before_timing(
            capsys, tmp_path / "bench", ["--checkpoint", str(tmp_path / "checkpoint.bin")],
            "checkpoint")

    def test_half_width_within_float32_is_timed(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(["bench", "--half-width", "1e38", "--repetitions", "1",
                     "--batch-elems", "100", "--out", str(out)])
        assert code == 0
        assert (out / "bench.csv").read_text().count("\n") == 5


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

    # Batch 1 gives every unit a batch std of 0, so all four units are dead at realignment.
    DEAD_UNITS = ["train", "--n-per-class", "100", "--batch-size", "1", "--epochs", "2",
                  "--t-prime-epochs", "1", "--arch", "2,4,2"]
    DEAD_UNIT_LINE = ("warning: 4 unit(s) with input std below 1e-08; "
                      "realigning them to fixed half-width 0.50")

    def test_library_warning_is_one_prefixed_line(self, tmp_path):
        proc = self.python_m_pwlu(*self.DEAD_UNITS, "--out", str(tmp_path / "o"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [self.DEAD_UNIT_LINE]

    def test_repeated_main_calls_print_each_warning_once(self, tmp_path):
        script = ("import sys; from pwlu.cli import main; "
                  "sys.exit(main(sys.argv[1:]) or main(sys.argv[1:]))")
        proc = run_python("-c", script, *self.DEAD_UNITS, "--out", str(tmp_path / "o"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [self.DEAD_UNIT_LINE] * 2


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    assert main(["train", "--n-per-class", "5", "--arch", "2,3,2", "--epochs", "1",
                 "--realign", "off", "--n-intervals", "4", "--out", str(out)]) == 0
    return out / "checkpoint.bin"


# Each option's values that keep a run valid, then values that make it exit 1 or 2 whatever
# the others are.  `checkpoint` and `out` name paths that the test makes.  The ALWAYS
# options keep every run small (the defaults train on 1,200 points for 60 epochs) and the
# collect phase shorter than the epochs, with at least the 20 samples the reports need;
# every other option is left out or drawn.
CONTRACT_OPTIONS = {
    "dataset": (["spirals"], ["idx:one_path", "idx:missing_images,missing_labels", "mnist"]),
    "arch": (["2,4,2", "2,3,3,2", "2,16,16,2"], ["2", "2,x,2", "2,8,1", "3,4,2"]),
    "activation": (["pwlu", "relu", "swish"], ["gelu"]),
    "n_intervals": (["2", "4", "16"], ["3", "0"]),
    "granularity": (["channel", "layer"], ["unit"]),
    "realign": (["on", "off"], ["maybe"]),
    "t_prime_epochs": (["1"], ["0", "4"]),
    "half_width": (["0.5", "3.0", "10"], ["-1", "nan", "inf", "1e308"]),
    "epochs": (["2", "4"], ["-1", "abc"]),
    "lr": (["0.01", "0.1", "10"], ["-0.5", "nan"]),
    "momentum": (["0", "0.9"], ["-1", "inf"]),
    "weight_decay": (["0", "0.1"], ["-0.5", "nan"]),
    "batch_size": (["1", "2", "4"], ["0", "x"]),
    "seed": (["0", "1"], ["-1"]),
    "n_per_class": (["10", "20"], ["0"]),
    "noise": (["0", "0.02", "1"], ["-1", "nan"]),
    "n_list": (["4", "4,8", "2,16"], ["4,4", "3", "", "a"]),
    "repetitions": (["1"], ["0"]),
    "batch_elems": (["1", "100", "1000"], ["0"]),
    "checkpoint": (["tiny"], ["missing"]),
    "out": (["o"], ["file"]),
}
ALWAYS = {"t_prime_epochs", "epochs", "n_per_class", "n_list", "repetitions", "batch_elems",
          "out"}


@st.composite
def command_lines(draw):
    """A command and its options; none, one or two options take a failing value."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    pools = dict(CONTRACT_OPTIONS)
    if command == "sweep-n":  # it trains pwlu and rejects any other activation
        pools["activation"] = (["pwlu"], ["relu", "swish", "gelu"])
    n_broken = draw(st.sampled_from([0] * 8 + [1, 2]))  # a third or more exit 0
    broken = draw(st.sets(st.sampled_from(sorted(pools)), min_size=n_broken, max_size=n_broken))
    always = ALWAYS | broken | ({"checkpoint"} if command == "export" else set())
    options = {}
    for name, (valid, invalid) in pools.items():
        pool = st.sampled_from(invalid if name in broken else valid)
        value = draw(pool if name in always else st.none() | pool)
        if value is not None:
            options[name] = value
    return command, options


class TestContract:
    """Every command line exits 0, 1 or 2, with stderr lines that a script can parse."""

    @settings(deadline=None, max_examples=60)
    @given(command_lines())
    @example(("sweep-n", dict(activation="relu", n_per_class="20", arch="2,4,2", epochs="4",
                              t_prime_epochs="4", n_list="4")))
    @example(("train", dict(n_per_class="5", batch_size="1", epochs="3", t_prime_epochs="1",
                            granularity="layer")))
    def test_exit_code_and_stderr(self, tiny_checkpoint, line):
        command, options = line
        with tempfile.TemporaryDirectory() as tmp:
            paths = {"tiny": str(tiny_checkpoint), "missing": str(Path(tmp, "missing.bin")),
                     "o": str(Path(tmp, "o")), "file": str(Path(tmp, "file"))}
            Path(paths["file"]).write_text("")
            argv = [command]
            for name, value in {"out": "o", **options}.items():
                if name in ("checkpoint", "out"):
                    value = paths[value]
                argv += ["--" + name.replace("_", "-"), value]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code:
            assert lines and lines[-1].startswith("error: ")
            lines = lines[:-1]
        assert all(line.startswith("warning: ") for line in lines), lines


# ab_pairs.py and bank_bench.py are left out: they time runs and have no result to check
# (test_call_counts.py pins bank_bench.py's call counts).
@pytest.mark.parametrize("demo", ["shape_gallery.py", "train_spirals.py"])
def test_demo_runs(tmp_path, demo):
    proc = run_python(str(Path(__file__).resolve().parents[1] / "demos" / demo), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
