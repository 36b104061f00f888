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
manifest order, row-major: a layer's `params`, whole, then their velocities
`v_<param>`, and for a PWLU bank its running `mean` and `std` and its
`reservoir` buffer as it is: (U, capacity) while collecting, zero-width
otherwise.  A bank's `theta` and `v_theta` have shape (N+5, U): rows B_L,
B_R, K_L, K_R, then the N+1 heights.  Saving, loading, and saving again
yields a byte-identical file.
Versions before 4, which stored each bank field as its own array, are rejected.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import struct
import typing

import numpy as np

from .errors import CheckpointError
from .layers import Dense, Model, PwluActivation, Relu, Swish
from .optim import TrainSchedule
from .trainer import Trainer

MAGIC = b"PWLUCKP1"
VERSION = 4

# What each typed header field must hold; `type(v) is int` leaves out bool.
_SCALARS = {
    "count": ("a non-negative int", lambda v: type(v) is int and v >= 0),
    "size": ("a positive int", lambda v: type(v) is int and v > 0),
    "flag": ("a bool", lambda v: type(v) is bool),
    "number": ("a number", lambda v: type(v) in (int, float)),
    "rows": ("a list of objects", lambda v: type(v) is list and all(type(r) is dict for r in v)),
}


def _scalar(record, key, kind):
    """record[key], or a CheckpointError naming the field if it is not of `kind`."""
    what, ok = _SCALARS[kind]
    if not ok(record[key]):
        raise CheckpointError(f"checkpoint field {key!r} must be {what}, got {record[key]!r}")
    return record[key]


# Header fields read back into a trainer, its schedule and each layer type, each with its kind.
_TRAINER = {"t": "count", "epoch_loss_sum": "number", "epoch_loss_count": "count",
            "metrics": "rows"}
_SCHEDULE = {name: {int: "count", float: "number"}[kind]
             for name, kind in typing.get_type_hints(TrainSchedule).items()}
_DENSE = {"in_dim": "size", "out_dim": "size"}
_PWLU = {"n_channels": "size", "n_intervals": "size", "frozen": "flag", "collecting": "flag"}


def _fields(meta, table):
    return {key: _scalar(meta, key, kind) for key, kind in table.items()}


def _layer_manifest(layer):
    if isinstance(layer, Dense):
        meta = {"type": "dense", "name": layer.name,
                "in_dim": layer.weight.shape[0], "out_dim": layer.weight.shape[1]}
    elif isinstance(layer, Relu):
        meta = {"type": "relu", "name": layer.name}
    elif isinstance(layer, Swish):
        meta = {"type": "swish", "name": layer.name}
    elif isinstance(layer, PwluActivation):
        meta = {
            "type": "pwlu", "name": layer.name, "granularity": layer.granularity,
            **{key: getattr(layer, key) for key in _PWLU},
            "stats_count": layer.running_stats.update_count,
            "reservoir_seen": layer.reservoir.seen,
            "reservoir_rng": layer.reservoir.rng.bit_generator.state,
        }
    else:
        raise TypeError(f"cannot checkpoint layer type {type(layer).__name__}")
    names = [*layer.params, *(f"v_{p}" for p in layer.params)]
    arrays = [(name, getattr(layer, name)) for name in names]
    if isinstance(layer, PwluActivation):
        arrays += [("mean", layer.running_stats.mean), ("std", layer.running_stats.std),
                   ("reservoir", layer.reservoir.buffer)]
    meta["arrays"] = [[name, list(arr.shape)] for name, arr in arrays]
    return meta, arrays


def _rebuild_layer(meta, arrays):
    dummy_rng = np.random.default_rng(0)
    kind = meta["type"]
    if kind == "dense":
        layer = Dense(rng=dummy_rng, name=meta["name"], **_fields(meta, _DENSE))
    elif kind == "relu":
        layer = Relu(name=meta["name"])
    elif kind == "swish":
        layer = Swish(name=meta["name"])
    elif kind == "pwlu":
        layer = PwluActivation(granularity=meta["granularity"], name=meta["name"],
                               **_fields(meta, _PWLU))
    else:
        raise CheckpointError(f"unknown layer type {kind!r} in checkpoint")
    own_meta, own_arrays = _layer_manifest(layer)
    if meta["arrays"] != own_meta["arrays"]:
        raise CheckpointError(f"layer {meta['name']!r}: stored arrays do not fit a {kind} layer")
    # Copied in, not rebound: a PWLU bank's field attributes are views of its theta.
    for (_, own), stored in zip(own_arrays, arrays):
        own[...] = stored
    if kind == "pwlu":
        layer.check_params()
        layer.running_stats = dataclasses.replace(
            layer.running_stats, update_count=_scalar(meta, "stats_count", "count"))
        layer.reservoir.seen = _scalar(meta, "reservoir_seen", "count")
        layer.reservoir.rng.bit_generator.state = meta["reservoir_rng"]
    return layer


def save_checkpoint(path, trainer: Trainer) -> None:
    manifest = []
    all_arrays = []
    for layer in trainer.model.layers:
        meta, arrays = _layer_manifest(layer)
        manifest.append(meta)
        all_arrays.extend(arr for _, arr in arrays)

    header = {
        "version": VERSION,
        "batch_size": trainer.batch_size,
        **{key: getattr(trainer, key) for key in _TRAINER},
        "schedule": dataclasses.asdict(trainer.schedule),
        "rng_state": trainer.rng.bit_generator.state,
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
                arrays.append(arr.reshape(shape))  # a read-only view, copied into the layer
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
        for key, kind in _SCHEDULE.items():
            _scalar(header["schedule"], key, kind)
        sched = TrainSchedule(**header["schedule"])
        trainer = Trainer(Model(layers), sched, train_features, train_labels,
                          batch_size=_scalar(header, "batch_size", "size"),
                          test_features=test_features, test_labels=test_labels)
        for key, kind in _TRAINER.items():
            setattr(trainer, key, _scalar(header, key, kind))
        trainer.rng.bit_generator.state = header["rng_state"]
    return trainer
