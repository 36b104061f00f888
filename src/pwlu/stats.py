"""Running input statistics, boundary realignment, and the alignment diagnostic."""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatchError, InsufficientSamplesError
from .kernel import PwluParams, init_pwlu_relu

logger = logging.getLogger(__name__)

# Exponential moving average weights for the running statistics.
STATS_MOMENTUM = 0.9

# Running std below this marks a dead unit; realignment falls back to a
# fixed half-width around the mean instead of a collapsed interval.
DEAD_STD_THRESHOLD = 1e-8
DEAD_UNIT_HALF_WIDTH = 0.5

# Batch std is the population (biased) estimator.
STD_DDOF = 0

RESERVOIR_CAPACITY = 4096


@dataclass(frozen=True)
class RunningStats:
    """Exponential moving average of input mean and std: of one unit, or as arrays of a bank."""

    mean: float | np.ndarray = 0.0
    std: float | np.ndarray = 1.0
    update_count: int = 0


def update_stats(stats: RunningStats, batch, momentum: float = STATS_MOMENTUM) -> RunningStats:
    """Blend each row of a batch into the stats: new = momentum*old + (1-momentum)*batch."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.size == 0:
        raise EmptyBatchError("cannot update running statistics from an empty batch")
    mean = momentum * stats.mean + (1.0 - momentum) * batch.mean(axis=-1)
    std = momentum * stats.std + (1.0 - momentum) * batch.std(axis=-1, ddof=STD_DDOF)
    if batch.ndim == 1:  # one unit keeps plain floats
        mean, std = float(mean), float(std)
    return RunningStats(mean=mean, std=std, update_count=stats.update_count + 1)


def realign_reset(params: PwluParams, stats: RunningStats) -> PwluParams:
    """Reset a unit to ReLU shape on the three-sigma interval of its inputs.

    Boundaries become mean +/- 3*std, outer slopes 0 and 1, and the heights
    re-sample max(x, 0) at the new grid, as `init_pwlu_relu` builds them (so
    the interval count must be even).  Dead units (std ~ 0) fall back to a
    half-width of 0.5 around the mean with a warning instead of erroring.
    """
    if stats.update_count < 1:
        raise EmptyBatchError("realignment requires at least one statistics update")
    half = 3.0 * stats.std
    if stats.std < DEAD_STD_THRESHOLD:
        logger.warning(
            "unit input std %.3g is effectively zero; realigning to fixed half-width %.2f",
            stats.std,
            DEAD_UNIT_HALF_WIDTH,
        )
        half = DEAD_UNIT_HALF_WIDTH
    return init_pwlu_relu(params.n_intervals, half, center=stats.mean)


def compute_iou(interval_a, interval_b) -> float:
    """Intersection-over-union of two closed intervals (left, right).

    A zero-length union means both intervals are single points: 1.0 if they
    coincide, 0.0 otherwise.
    """
    a_lo, a_hi = interval_a
    b_lo, b_hi = interval_b
    if a_hi < a_lo or b_hi < b_lo:
        raise ValueError("intervals must satisfy left <= right")
    inter = max(0.0, min(a_hi, b_hi) - max(a_lo, b_lo))
    union = (a_hi - a_lo) + (b_hi - b_lo) - inter
    if union <= 0.0:
        return 1.0 if (a_lo, a_hi) == (b_lo, b_hi) else 0.0
    return inter / union


def percentile_interval(samples, lo: float = 0.05, hi: float = 0.95, min_samples: int = 20):
    """Nearest-rank percentile interval [p_lo, p_hi] along the last axis (floats, or lists)."""
    samples = np.sort(np.asarray(samples, dtype=np.float64), axis=-1)
    n = samples.shape[-1]
    if n < min_samples:
        raise InsufficientSamplesError(f"need at least {min_samples} samples, got {n}")
    rank_lo = int(np.ceil(lo * n)) - 1
    rank_hi = int(np.ceil(hi * n)) - 1
    return samples[..., rank_lo].tolist(), samples[..., rank_hi].tolist()


class Reservoir:
    """Uniform fixed-capacity samples (algorithm R) of one stream, or of `streams` from one rng."""

    def __init__(self, capacity: int = RESERVOIR_CAPACITY, seed: int = 0,
                 streams: int | None = None):
        # zero-filled so a partially filled buffer serializes deterministically
        self.buffer = np.zeros((capacity,) if streams is None else (streams, capacity))
        self.seen = 0
        self.rng = np.random.default_rng(seed)

    @property
    def capacity(self) -> int:
        return self.buffer.shape[-1]

    def extend(self, values) -> None:
        vals = np.asarray(values, dtype=np.float64).reshape(self.buffer.shape[:-1] + (-1,))
        start = 0
        if self.seen < self.capacity:
            take = min(self.capacity - self.seen, vals.shape[-1])
            self.buffer[..., self.seen:self.seen + take] = vals[..., :take]
            self.seen += take
            start = take
        rest = np.atleast_2d(vals[..., start:])
        if rest.size:
            # Item number t replaces slot j ~ uniform[0, t) when j < capacity; one
            # call draws stream after stream, as per-item loops over the streams do.
            counts = self.seen + 1 + np.arange(rest.shape[1])
            slots = self.rng.integers(0, counts, size=rest.shape)
            kept = slots < self.capacity
            flat = (np.arange(rest.shape[0])[:, None] * self.capacity + slots)[kept]
            # When a slot is drawn twice the later item wins, as in the loop.
            last = flat.size - 1 - np.unique(flat[::-1], return_index=True)[1]
            self.buffer.put(flat[last], rest[kept][last])
            self.seen += rest.shape[1]

    def values(self) -> np.ndarray:
        return self.buffer[..., : min(self.seen, self.capacity)].copy()

    def percentile_interval(self, lo: float = 0.05, hi: float = 0.95):
        return percentile_interval(self.buffer[..., : min(self.seen, self.capacity)], lo=lo, hi=hi)


@dataclass(frozen=True)
class AlignmentReport:
    """Per-unit alignment between the boundary interval and the input mass."""

    layer_name: str
    unit_index: int
    b_l: float
    b_r: float
    p05: float
    p95: float
    iou: float

    @staticmethod
    def from_unit(layer_name: str, unit_index: int, params: PwluParams, p05: float, p95: float):
        return AlignmentReport(
            layer_name=layer_name,
            unit_index=unit_index,
            b_l=params.left_boundary,
            b_r=params.right_boundary,
            p05=p05,
            p95=p95,
            iou=compute_iou((params.left_boundary, params.right_boundary), (p05, p95)),
        )


def write_alignment_csv(reports, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer_name", "unit_index", "b_l", "b_r", "p05", "p95", "iou"])
        for r in reports:
            writer.writerow(
                [r.layer_name, r.unit_index, repr(r.b_l), repr(r.b_r),
                 repr(r.p05), repr(r.p95), repr(r.iou)]
            )
