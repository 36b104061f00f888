"""Command-line entry point: training, interval-count sweeps, inference benchmark, export.

Option precedence is CLI flag > config file (flat key=value lines) >
built-in default.  The resolved configuration is echoed into the output
directory so a run can be reproduced from it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
import time
import typing
from pathlib import Path

import numpy as np

from .checkpoint import load_model, save_checkpoint
from .data import export_shapes, gen_spirals, load_idx, standardize
from .errors import ConfigError, PwluError
from .kernel import (MIN_BOUNDARY_WIDTH, build_fused, forward_fused, forward_reference,
                     init_pwlu_relu)
from .layers import ACTIVATIONS, Dense, build_mlp
from .optim import TrainSchedule
from .stats import write_alignment_csv
from .trainer import Trainer


def _option(default, help=None, choices=None, low=None):
    """A RunConfig field with its --flag help text and, if given, its choices or least value."""
    if choices:
        help = "|".join(choices)
    return dataclasses.field(default=default, metadata=dict(help=help, choices=choices, low=low))


@dataclasses.dataclass
class RunConfig:
    """The resolved run configuration.

    Every field after `subcommand` is one option: `--flag-name` on the command
    line and `flag_name=value` in a config file, coerced to its annotated type.
    """

    subcommand: str
    dataset: str = _option("spirals", "spirals | idx:IMAGES,LABELS")
    arch: str = _option("2,32,32,2", "comma-separated layer widths")
    activation: str = _option("pwlu", choices=tuple(ACTIVATIONS))
    n_intervals: int = 16
    granularity: str = _option("channel", choices=("layer", "channel"))
    realign: str = _option("on", choices=("on", "off"))
    t_prime_epochs: int = 5
    half_width: float = 3.0
    epochs: int = _option(60, low=0)
    lr: float = _option(0.1, low=0)
    momentum: float = _option(0.9, low=0)
    weight_decay: float = _option(0.0, low=0)
    batch_size: int = _option(64, low=1)
    seed: int = _option(0, low=0)
    out: str = _option("run_out", "output directory")
    n_per_class: int = _option(600, low=1)
    noise: float = _option(0.02, low=0)
    n_list: str = _option("4,8,12,16,20", "comma-separated interval counts for sweep-n")
    repetitions: int = _option(500, low=1)
    batch_elems: int = _option(1_000_000, low=1)
    checkpoint: str = ""

    def widths(self) -> list[int]:
        try:
            widths = [int(w) for w in self.arch.split(",")]
        except ValueError:
            raise ConfigError("arch", f"not a comma-separated width list: {self.arch!r}")
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise ConfigError("arch", f"need at least two positive widths, got {widths}")
        return widths

    def n_values(self) -> list[int]:
        try:
            values = [int(n) for n in self.n_list.split(",")]
        except ValueError:
            raise ConfigError("n_list", f"not a comma-separated integer list: {self.n_list!r}")
        if not values:
            raise ConfigError("n_list", "must be non-empty")
        if len(set(values)) != len(values):
            raise ConfigError("n_list", f"duplicate interval counts in {values}")
        for n in values:
            if n < 2 or n % 2 != 0:
                raise ConfigError("n_list", f"interval counts must be even and >= 2, got {n}")
        return values

    def validate(self) -> None:
        self.widths()
        if self.dataset != "spirals":
            if not self.dataset.startswith("idx:") or "," not in self.dataset[4:]:
                raise ConfigError(
                    "dataset",
                    f"must be 'spirals' or 'idx:IMAGES,LABELS', got {self.dataset!r}",
                )
        for name, option in _OPTIONS.items():
            value, choices = getattr(self, name), option.metadata.get("choices")
            if choices and value not in choices:
                raise ConfigError(name, f"must be {'|'.join(choices)}, got {value!r}")
            if _TYPES[name] is float and not np.isfinite(value):
                raise ConfigError(name, f"must be finite, got {value}")
            low = option.metadata.get("low")
            if low is not None and value < low:
                raise ConfigError(name, f"must be >= {low}, got {value}")
        if self.n_intervals < 2 or self.n_intervals % 2 != 0:
            raise ConfigError("n_intervals", f"must be even and >= 2, got {self.n_intervals}")
        if not MIN_BOUNDARY_WIDTH <= 2 * self.half_width < np.inf:
            raise ConfigError("half_width", f"2 * half_width must be finite and >= "
                                            f"{MIN_BOUNDARY_WIDTH}, got {2 * self.half_width}")
        if self.realign == "on" and self.activation == "pwlu":
            if not 1 <= self.t_prime_epochs < max(1, self.epochs):
                raise ConfigError(
                    "t_prime_epochs",
                    f"realign=on needs 1 <= t_prime_epochs < epochs "
                    f"({self.t_prime_epochs} vs {self.epochs})",
                )
        if self.subcommand == "sweep-n":
            self.n_values()
        if self.subcommand == "export" and not self.checkpoint:
            raise ConfigError("checkpoint", "export requires --checkpoint PATH")


_OPTIONS = {f.name: f for f in dataclasses.fields(RunConfig) if f.name != "subcommand"}
_TYPES = typing.get_type_hints(RunConfig)


def _parse_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}")
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("config", f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _coerce(name: str, value: str):
    """Convert a flag or config-file string to the option's annotated type."""
    kind = _TYPES[name]
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(name, f"not a valid {kind.__name__}: {value!r}")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    merged = {}
    if args.config:
        for key, value in _parse_config_file(args.config).items():
            if key not in _OPTIONS:
                raise ConfigError("config", f"unknown key {key!r} in {args.config}")
            merged[key] = _coerce(key, value)
    for name in _OPTIONS:
        cli_value = getattr(args, name)
        if cli_value is not None:
            merged[name] = _coerce(name, cli_value)
    config = RunConfig(subcommand=args.subcommand, **merged)
    config.validate()
    return config


def _write_resolved_config(config: RunConfig, out_dir: Path) -> None:
    lines = [f"{name}={getattr(config, name)}" for name in sorted(_OPTIONS)]
    (out_dir / "config.txt").write_text("\n".join(lines) + "\n")


def _load_datasets(config: RunConfig):
    """The standardized (train, test) split; ConfigError if --arch does not fit the data."""
    if config.dataset == "spirals":
        train = gen_spirals(config.n_per_class, config.noise, config.seed)
        test = gen_spirals(config.n_per_class, config.noise, config.seed + 100_000)
    else:
        images_path, labels_path = config.dataset[4:].split(",", 1)
        full = load_idx(images_path, labels_path)
        n_train = int(full.features.shape[0] * 0.9)
        train = dataclasses.replace(full, features=full.features[:n_train],
                                    labels=full.labels[:n_train])
        test = dataclasses.replace(full, features=full.features[n_train:],
                                   labels=full.labels[n_train:])
    widths, features = config.widths(), train.features.shape[1]
    classes = max(train.num_classes, test.num_classes)
    if widths[0] != features or widths[-1] < classes:
        raise ConfigError("arch", f"{config.arch} does not fit the data: need {features} "
                                  f"inputs and at least {classes} outputs")
    return standardize(train, test)


def run_training(config: RunConfig, train, test, out_dir: Path) -> dict:
    """Train per the config on the loaded data, write all artifacts, return summary values."""
    widths = config.widths()
    realign_active = config.realign == "on" and config.activation == "pwlu"
    rng = np.random.default_rng(config.seed)
    model = build_mlp(
        widths, config.activation, rng,
        n_intervals=config.n_intervals, granularity=config.granularity,
        half_width=config.half_width,
        pwlu_frozen=realign_active, pwlu_collecting=realign_active,
        seed=config.seed,
    )
    iters_per_epoch = max(1, train.features.shape[0] // config.batch_size)
    schedule = TrainSchedule(
        total_iterations=config.epochs * iters_per_epoch,
        realign_iteration=config.t_prime_epochs * iters_per_epoch if realign_active else 0,
        base_lr=config.lr,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
        seed=config.seed,
    )
    trainer = Trainer(model, schedule, train.features, train.labels,
                      batch_size=config.batch_size,
                      test_features=test.features, test_labels=test.labels)
    trainer.run()

    trainer.write_metrics_csv(out_dir / "metrics.csv")
    save_checkpoint(out_dir / "checkpoint.bin", trainer)
    if trainer.pre_reports:
        write_alignment_csv(trainer.pre_reports, out_dir / "alignment_pre.csv")
        write_alignment_csv(trainer.post_reports, out_dir / "alignment_post.csv")
    final_acc = model.accuracy(test.features, test.labels)
    final_loss = trainer.metrics[-1]["train_loss"] if trainer.metrics else float("nan")
    return {"final_test_accuracy": final_acc, "final_train_loss": final_loss}


def cmd_train(config: RunConfig) -> int:
    out_dir = Path(config.out)
    train, test = _load_datasets(config)
    _write_resolved_config(config, out_dir)
    summary = run_training(config, train, test, out_dir)
    print(f"final_test_accuracy={summary['final_test_accuracy']:.4f}")
    return 0


def cmd_sweep_n(config: RunConfig) -> int:
    out_dir = Path(config.out)
    train, test = _load_datasets(config)
    _write_resolved_config(config, out_dir)
    rows = []
    for n in config.n_values():
        run_dir = out_dir / f"n{n}"
        run_cfg = dataclasses.replace(config, n_intervals=n, activation="pwlu", out=str(run_dir))
        run_dir.mkdir(exist_ok=True)
        try:
            summary = run_training(run_cfg, train, test, run_dir)
            rows.append((n, summary["final_test_accuracy"],
                         summary["final_train_loss"], "ok"))
        except PwluError as exc:  # record the failure, keep sweeping
            rows.append((n, float("nan"), float("nan"), f"error: {exc}"))
    table_path = out_dir / "sweep.csv"
    with open(table_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")  # an error status may hold a comma
        writer.writerow(["n_intervals", "final_test_accuracy", "final_train_loss", "status"])
        writer.writerows((n, repr(acc), repr(loss), status) for n, acc, loss, status in rows)
    for n, acc, loss, status in rows:
        print(f"N={n:<3d} test_accuracy={acc:.4f} status={status}")
    return 0


def _time_kernel(fn, repetitions: int):
    fn()  # warmup
    samples = np.empty(repetitions)
    for i in range(repetitions):
        start = time.perf_counter()
        fn()
        samples[i] = time.perf_counter() - start
    # Python floats, so that bench.csv holds plain numbers under numpy 2.
    return float(samples.mean()) * 1e3, float(samples.std()) * 1e3


def cmd_bench(config: RunConfig) -> int:
    model = None
    if config.checkpoint:
        model = load_model(config.checkpoint)
        pwlu_layers = model.pwlu_layers()
        if not pwlu_layers:
            raise ConfigError("checkpoint", "checkpoint has no PWLU layers to benchmark")
        if not isinstance(model.layers[0], Dense):
            raise ConfigError("checkpoint", "the model bench needs a dense input layer")
        params = pwlu_layers[0].units[0]
    else:
        params = init_pwlu_relu(config.n_intervals, config.half_width)
    rng = np.random.default_rng(config.seed)
    x = rng.normal(0.0, 2.0, size=config.batch_elems)
    table64 = build_fused(params)
    table32 = build_fused(params, dtype=np.float32)
    x32 = x.astype(np.float32)

    kernels = [
        ("relu", lambda: np.maximum(x, 0.0)),
        ("reference", lambda: forward_reference(x, params)),
        ("fused_f64", lambda: forward_fused(x, table64)),
        ("fused_f32", lambda: forward_fused(x32, table32)),
    ]
    if model is not None:
        # The whole model on about batch_elems inputs: three-branch forward, then fused predict.
        in_dim = model.layers[0].in_dim
        batch = rng.normal(size=(max(1, config.batch_elems // in_dim), in_dim))
        kernels += [
            ("model_forward", lambda: model.forward(batch).argmax(axis=1)),
            ("model_predict", lambda: model.predict(batch)),
        ]
    rows = []
    for name, fn in kernels:
        mean_ms, std_ms = _time_kernel(fn, config.repetitions)
        rows.append((name, mean_ms, std_ms))
    with open(Path(config.out) / "bench.csv", "w") as fh:
        fh.write("kernel,mean_ms,std_ms\n")
        for name, mean_ms, std_ms in rows:
            fh.write(f"{name},{mean_ms!r},{std_ms!r}\n")
    for name, mean_ms, std_ms in rows:
        print(f"{name:<13s} mean={mean_ms:8.3f} ms  std={std_ms:.3f} ms")
    return 0


def cmd_export(config: RunConfig) -> int:
    out_dir = Path(config.out)
    model = load_model(config.checkpoint)
    export_shapes(model, out_dir / "shapes.csv", out_dir / "shapes.json")
    print(f"exported shapes to {out_dir / 'shapes.csv'}")
    return 0


COMMANDS = {"train": cmd_train, "sweep-n": cmd_sweep_n, "bench": cmd_bench, "export": cmd_export}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwlu",
        description="Train and inspect piecewise-linear-unit activation networks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="flat key=value config file")
        # Values stay strings here; resolve_config coerces and validates them.
        for name, option in _OPTIONS.items():
            p.add_argument("--" + name.replace("_", "-"), default=None,
                           help=option.metadata.get("help"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        Path(config.out).mkdir(parents=True, exist_ok=True)
        return COMMANDS[config.subcommand](config)
    except ConfigError as exc:
        print(f"error: field={exc.field} message={exc.message}", file=sys.stderr)
        return 2
    except (PwluError, OSError) as exc:
        print(f"error: type={type(exc).__name__} message={exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
