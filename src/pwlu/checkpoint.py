"""Self-describing binary checkpoint for models and training state.

File layout (documented so third-party tools can parse it):

    bytes 0..7    magic b"PWLUCKP1"
    bytes 8..11   header length H, little-endian uint32
    bytes 12..12+H-1   header, UTF-8 JSON
    remainder     raw little-endian float64 arrays, concatenated

The JSON header carries a version tag, the trainer scalars (iteration,
epoch-loss accumulators, batch size, schedule fields, generator states,
recorded metric rows) and a layer manifest.  Each manifest entry lists its
arrays as (name, shape) pairs; the binary tail stores those arrays in
manifest order, row-major.  Saving, loading, and saving again yields a
byte-identical file.
"""

from __future__ import annotations

import contextlib
import json
import math
import struct

import numpy as np

from .errors import CheckpointError
from .kernel import PwluParams
from .layers import Conv2d, Dense, Model, PwluActivation, Relu, Swish
from .optim import TrainSchedule
from .stats import RunningStats
from .trainer import Trainer

MAGIC = b"PWLUCKP1"
VERSION = 1


def _layer_manifest(layer):
    if isinstance(layer, Dense):
        meta = {"type": "dense", "name": layer.name,
                "in_dim": layer.weight.shape[0], "out_dim": layer.weight.shape[1]}
        arrays = [("weight", layer.weight), ("bias", layer.bias),
                  ("v_weight", layer.v_weight), ("v_bias", layer.v_bias)]
    elif isinstance(layer, Conv2d):
        meta = {"type": "conv", "name": layer.name,
                "out_ch": layer.weight.shape[0], "in_ch": layer.weight.shape[1],
                "ksize": layer.ksize, "padding": layer.padding}
        arrays = [("weight", layer.weight), ("bias", layer.bias),
                  ("v_weight", layer.v_weight), ("v_bias", layer.v_bias)]
    elif isinstance(layer, Relu):
        meta, arrays = {"type": "relu", "name": layer.name}, []
    elif isinstance(layer, Swish):
        meta, arrays = {"type": "swish", "name": layer.name}, []
    elif isinstance(layer, PwluActivation):
        meta = {
            "type": "pwlu", "name": layer.name, "granularity": layer.granularity,
            "n_channels": layer.n_channels,
            "n_intervals": layer.n_intervals,
            "frozen": layer.frozen, "collecting": layer.collecting,
            "stats": [{"mean": s.mean, "std": s.std, "count": s.update_count}
                      for s in layer.stats],
            "reservoir_seen": [layer.reservoir.seen] * layer.n_units,
            "reservoir_capacity": layer.reservoir.capacity,
            "reservoir_rng": [rng.bit_generator.state for rng in layer.reservoir.rngs],
        }
        edges = np.stack([layer.b_l, layer.b_r, layer.k_l, layer.k_r], axis=1)
        v_edges = np.stack([layer.v_b_l, layer.v_b_r, layer.v_k_l, layer.v_k_r], axis=1)
        arrays = []
        for u in range(layer.n_units):
            arrays += [
                (f"unit{u}_edges", edges[u]),
                (f"unit{u}_y", layer.y[u]),
                (f"unit{u}_v_edges", v_edges[u]),
                (f"unit{u}_v_y", layer.v_y[u]),
                (f"unit{u}_reservoir", layer.reservoir.buffer[u]),
            ]
    else:
        raise TypeError(f"cannot checkpoint layer type {type(layer).__name__}")
    meta["arrays"] = [[name, list(arr.shape)] for name, arr in arrays]
    return meta, arrays


def _rebuild_layer(meta, arrays):
    dummy_rng = np.random.default_rng(0)
    kind = meta["type"]
    if kind == "dense":
        layer = Dense(meta["in_dim"], meta["out_dim"], dummy_rng, name=meta["name"])
    elif kind == "conv":
        layer = Conv2d(meta["in_ch"], meta["out_ch"], meta["ksize"], dummy_rng,
                       padding=meta["padding"], name=meta["name"])
    elif kind == "relu":
        layer = Relu(name=meta["name"])
    elif kind == "swish":
        layer = Swish(name=meta["name"])
    elif kind == "pwlu":
        layer = PwluActivation(
            n_channels=meta["n_channels"], n_intervals=meta["n_intervals"],
            granularity=meta["granularity"], frozen=meta["frozen"],
            collecting=meta["collecting"], name=meta["name"],
        )
    else:
        raise CheckpointError(f"unknown layer type {kind!r} in checkpoint")
    if meta["arrays"] != _layer_manifest(layer)[0]["arrays"]:
        raise CheckpointError(f"layer {meta['name']!r}: stored arrays do not fit a {kind} layer")

    if kind in ("dense", "conv"):
        layer.weight, layer.bias, layer.v_weight, layer.v_bias = arrays
    elif kind == "pwlu":
        per_unit = 5
        for u in range(layer.n_units):
            edge, y, v_edge, v_y, _ = arrays[u * per_unit:(u + 1) * per_unit]
            layer.set_unit(u, PwluParams(
                n_intervals=layer.n_intervals, left_boundary=edge[0], right_boundary=edge[1],
                y_points=y, left_slope=edge[2], right_slope=edge[3],
            ))
            layer.v_b_l[u], layer.v_b_r[u], layer.v_k_l[u], layer.v_k_r[u] = v_edge
            layer.v_y[u] = v_y
        stats, seen, states = meta["stats"], meta["reservoir_seen"], meta["reservoir_rng"]
        if ({len(stats), len(seen), len(states)} != {layer.n_units}
                or len({s["count"] for s in stats}) > 1 or len(set(seen)) > 1):
            raise CheckpointError(f"layer {meta['name']!r}: units must share their counts")
        mean, std = np.array([[s["mean"], s["std"]] for s in stats], dtype=float).T
        layer.running_stats = RunningStats(mean, std, stats[0]["count"])
        layer.reservoir.buffer = np.stack(arrays[per_unit - 1::per_unit])
        layer.reservoir.seen = seen[0]
        for rng, state in zip(layer.reservoir.rngs, states):
            rng.bit_generator.state = state
    return layer


def save_checkpoint(path, trainer: Trainer) -> None:
    sched = trainer.schedule
    manifest = []
    all_arrays = []
    for layer in trainer.model.layers:
        meta, arrays = _layer_manifest(layer)
        manifest.append(meta)
        all_arrays.extend(arr for _, arr in arrays)

    header = {
        "version": VERSION,
        "t": trainer.t,
        "batch_size": trainer.batch_size,
        "epoch_loss_sum": trainer.epoch_loss_sum,
        "epoch_loss_count": trainer.epoch_loss_count,
        "schedule": {
            "total_iterations": sched.total_iterations,
            "realign_iteration": sched.realign_iteration,
            "base_lr": sched.base_lr,
            "momentum": sched.momentum,
            "weight_decay": sched.weight_decay,
            "warmup_frac": sched.warmup_frac,
            "seed": sched.seed,
        },
        "rng_state": trainer.rng.bit_generator.state,
        "metrics": trainer.metrics,
        "layers": manifest,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in all_arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


@contextlib.contextmanager
def _faults_as_checkpoint_error(path):
    """Report any structural fault met while decoding `path` as a CheckpointError."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError, struct.error) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {type(exc).__name__}: {exc}") from exc


def _read_checkpoint(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot open checkpoint {path}: {exc}") from exc
    if raw[:8] != MAGIC:
        raise CheckpointError(f"not a checkpoint file (magic {raw[:8]!r})")
    with _faults_as_checkpoint_error(path):
        (hlen,) = struct.unpack_from("<I", raw, 8)
        header = json.loads(raw[12:12 + hlen].decode("utf-8"))
        if header["version"] != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {header['version']}")
        offset = 12 + hlen
        layers = []
        for meta in header["layers"]:
            arrays = []
            for _, shape in meta["arrays"]:
                if not all(isinstance(dim, int) and dim >= 0 for dim in shape):
                    raise CheckpointError(f"invalid array shape {shape!r}")
                count = math.prod(shape)
                if offset + 8 * count > len(raw):
                    raise CheckpointError(f"checkpoint {path} is truncated")
                arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
                arrays.append(arr.reshape(shape).copy())
                offset += 8 * count
            layers.append(_rebuild_layer(meta, arrays))
        if offset != len(raw):
            raise CheckpointError(f"checkpoint {path} has {len(raw) - offset} trailing bytes")
    return header, layers


def load_model(path) -> Model:
    """Rebuild just the model, without any training state."""
    _, layers = _read_checkpoint(path)
    return Model(layers)


def load_checkpoint(path, train_features, train_labels,
                    test_features=None, test_labels=None) -> Trainer:
    """Rebuild a trainer mid-run.  Datasets are supplied by the caller."""
    header, layers = _read_checkpoint(path)
    with _faults_as_checkpoint_error(path):
        sched = TrainSchedule(**header["schedule"])
        trainer = Trainer(Model(layers), sched, train_features, train_labels,
                          batch_size=header["batch_size"],
                          test_features=test_features, test_labels=test_labels)
        trainer.t = header["t"]
        trainer.epoch_loss_sum = header["epoch_loss_sum"]
        trainer.epoch_loss_count = header["epoch_loss_count"]
        trainer.metrics = header["metrics"]
        trainer.rng.bit_generator.state = header["rng_state"]
    return trainer
