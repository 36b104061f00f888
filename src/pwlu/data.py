"""Dataset generation and loading, plus export of learned activation shapes."""

from __future__ import annotations

import csv
import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (BadMagicError, CountMismatchError, DegenerateParameterError, IdxFormatError,
                     ShapeFileError, TruncatedPayloadError)
from .kernel import PwluParams, forward_reference
from .layers import Model

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# Shape export: sample density inside the boundary interval and how many
# points to extend past each boundary so the outer slopes are visible.
POINTS_PER_INTERVAL = 16
OVERSHOOT_POINTS = 8


@dataclass
class LabeledDataset:
    features: np.ndarray
    labels: np.ndarray
    name: str = "dataset"

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise CountMismatchError(
                f"{self.features.shape[0]} feature rows vs {self.labels.shape[0]} labels"
            )

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1


def gen_spirals(n_per_class: int, noise: float, seed: int,
                turns: float = 5.0) -> LabeledDataset:
    """Two interleaved 2-D spirals with Gaussian jitter, deterministic under seed.

    `turns` is the angular sweep in multiples of pi; the default winds far
    enough that a small fixed-activation MLP underfits while flexible
    activations can still separate the classes.
    """
    rng = np.random.default_rng(seed)
    feats, labels = [], []
    for c in (0, 1):
        frac = np.arange(n_per_class) / max(1, n_per_class - 1)
        radius = 0.2 + frac
        theta = frac * turns * np.pi + c * np.pi
        pts = np.stack([radius * np.sin(theta), radius * np.cos(theta)], axis=1)
        pts += rng.normal(0.0, noise, size=pts.shape)
        feats.append(pts)
        labels.append(np.full(n_per_class, c, dtype=np.int64))
    return LabeledDataset(np.concatenate(feats), np.concatenate(labels), name="spirals")


def standardize(train: LabeledDataset, *others: LabeledDataset):
    """Zero-mean unit-variance features, with moments fit on the train split."""
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    out = [LabeledDataset((ds.features - mean) / std, ds.labels, name=ds.name)
           for ds in (train, *others)]
    return out[0] if not others else tuple(out)


def _read_idx(path: str, expected_magic: int, n_dims: int):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IdxFormatError(f"cannot open IDX file {path}: {exc}") from exc
    if len(raw) < 4 + 4 * n_dims:
        raise TruncatedPayloadError(f"{path}: file shorter than its own header")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic != expected_magic:
        raise BadMagicError(
            f"{path}: magic 0x{magic:08x}, expected 0x{expected_magic:08x}"
        )
    dims = struct.unpack(f">{n_dims}I", raw[4:4 + 4 * n_dims])
    payload = raw[4 + 4 * n_dims:]
    expected = int(np.prod(dims))
    if len(payload) < expected:
        raise TruncatedPayloadError(
            f"{path}: payload holds {len(payload)} bytes, header promises {expected}"
        )
    data = np.frombuffer(payload[:expected], dtype=np.uint8)
    return data.reshape(dims)


def load_idx(images_path: str, labels_path: str) -> LabeledDataset:
    """Load an IDX image/label pair (big-endian headers, raw byte payloads).

    Pixels are scaled to [0, 1] doubles; the sample counts of the two files
    must agree.
    """
    images = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1)
    if images.shape[0] != labels.shape[0]:
        raise CountMismatchError(
            f"{images.shape[0]} images vs {labels.shape[0]} labels"
        )
    n, rows, cols = images.shape  # -1 cannot be inferred from a file of 0 images
    feats = images.reshape(n, rows * cols).astype(np.float64) / 255.0
    return LabeledDataset(feats, labels.astype(np.int64), name="idx")


def _unit_sample_grid(params: PwluParams) -> np.ndarray:
    d = params.interval_len
    n = params.n_intervals
    inner = np.linspace(params.left_boundary, params.right_boundary,
                        n * POINTS_PER_INTERVAL + 1)
    left = params.left_boundary - d * (1.0 - np.arange(OVERSHOOT_POINTS) / OVERSHOOT_POINTS)
    right = params.right_boundary + d * np.arange(1, OVERSHOOT_POINTS + 1) / OVERSHOOT_POINTS
    return np.concatenate([left, inner, right])


def export_shapes(model: Model, csv_path: str, json_path: str) -> None:
    """Write every unit's sampled curve (CSV) and raw parameters (JSON sidecar).

    The CSV has one row per sampled point with columns
    layer, unit, x, y, b_l, b_r, k_l, k_r; x spans one interval length past
    each boundary so the outer slopes are rendered.
    """
    sidecar = []
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "unit", "x", "y", "b_l", "b_r", "k_l", "k_r"])
        for layer in model.pwlu_layers():
            for u, params in enumerate(layer.units):
                xs = _unit_sample_grid(params)
                ys = forward_reference(xs, params)
                for x, y in zip(xs, ys):
                    writer.writerow([
                        layer.name, u, repr(float(x)), repr(float(y)),
                        repr(params.left_boundary), repr(params.right_boundary),
                        repr(params.left_slope), repr(params.right_slope),
                    ])
                sidecar.append({"layer": layer.name, "unit": u, **asdict(params),
                                "y_points": params.y_points.tolist()})
    with open(json_path, "w") as fh:
        json.dump(sidecar, fh, indent=2)


def load_shape_params(json_path: str) -> list[tuple[str, int, PwluParams]]:
    """Inverse of the JSON sidecar of :func:`export_shapes`; ShapeFileError if it is malformed."""
    try:
        with open(json_path) as fh:
            entries = json.load(fh)
        if type(entries) is not list or not all(type(e) is dict for e in entries):
            raise ShapeFileError(f"shape file {json_path} does not hold a list of objects")
        return [(e.pop("layer"), e.pop("unit"), PwluParams(**e)) for e in entries]
    except (OSError, ValueError, KeyError, TypeError, DegenerateParameterError) as exc:
        raise ShapeFileError(f"bad shape file {json_path}: {type(exc).__name__}: {exc}") from exc
