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

# The alignment reports' percentiles (p05, p95), and the fewest samples per unit
# from which `percentile_interval`, and so the reports at realignment, estimates them.
PERCENTILES = (0.05, 0.95)
MIN_PERCENTILE_SAMPLES = 20


@dataclass(frozen=True)
class RunningStats:
    """Exponential moving average of input mean and std: of one unit, or as arrays of a bank."""

    mean: float | np.ndarray = 0.0
    std: float | np.ndarray = 1.0
    update_count: int = 0


def update_stats(stats: RunningStats, batch) -> RunningStats:
    """Blend each row of a batch into the stats: new = m*old + (1-m)*batch, m = STATS_MOMENTUM.

    Each row's mean is formed once and its std derived from it in the steps
    of numpy's `std`, so both have the bits of `batch.mean(-1)` and
    `batch.std(-1, ddof=STD_DDOF)`.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.size == 0:
        raise EmptyBatchError("cannot update running statistics from an empty batch")
    n = batch.shape[-1]
    batch_mean = np.add.reduce(batch, -1, keepdims=True) / n
    sq_dev = batch - batch_mean
    sq_dev *= sq_dev
    batch_std = np.sqrt(np.add.reduce(sq_dev, -1) / (n - STD_DDOF))
    mean = STATS_MOMENTUM * stats.mean + (1.0 - STATS_MOMENTUM) * batch_mean[..., 0]
    std = STATS_MOMENTUM * stats.std + (1.0 - STATS_MOMENTUM) * batch_std
    if batch.ndim == 1:  # one unit keeps plain floats
        mean, std = float(mean), float(std)
    return RunningStats(mean=mean, std=std, update_count=stats.update_count + 1)


def realign_reset(n_intervals: int, stats: RunningStats) -> PwluParams:
    """Reset a unit, or a bank from its (U,) stats, to ReLU shape on the three-sigma interval.

    Boundaries become mean +/- 3*std, outer slopes 0 and 1, and the heights
    re-sample max(x, 0) at the new grid, as `init_pwlu_relu` builds them (so
    the interval count must be even).  Dead units (std ~ 0) fall back to a
    half-width of 0.5 around the mean, with one warning per call, instead of erroring.
    """
    if stats.update_count < 1:
        raise EmptyBatchError("realignment requires at least one statistics update")
    dead = np.less(stats.std, DEAD_STD_THRESHOLD)
    if dead.any():
        logger.warning(
            "%d unit(s) with input std below %.3g; realigning them to fixed half-width %.2f",
            np.count_nonzero(dead),
            DEAD_STD_THRESHOLD,
            DEAD_UNIT_HALF_WIDTH,
        )
    half = np.where(dead, DEAD_UNIT_HALF_WIDTH, 3.0 * stats.std)
    return init_pwlu_relu(n_intervals, half, center=stats.mean)


def compute_iou(interval_a, interval_b) -> float | list[float]:
    """Intersection-over-union of closed intervals (left, right): floats, or (U,) arrays.

    Returns a float, or a list for arrays.  A zero-length union means both
    intervals are single points: 1.0 if they coincide, 0.0 otherwise.
    """
    a_lo, a_hi = (np.asarray(v, dtype=np.float64) for v in interval_a)
    b_lo, b_hi = (np.asarray(v, dtype=np.float64) for v in interval_b)
    if np.any(a_hi < a_lo) or np.any(b_hi < b_lo):
        raise ValueError("intervals must satisfy left <= right")
    inter = np.maximum(0.0, np.minimum(a_hi, b_hi) - np.maximum(a_lo, b_lo))
    union = (a_hi - a_lo) + (b_hi - b_lo) - inter
    same = np.where((a_lo == b_lo) & (a_hi == b_hi), 1.0, 0.0)
    return np.divide(inter, union, out=same, where=union > 0.0).tolist()


def percentile_interval(samples):
    """Nearest-rank interval [p05, p95] (`PERCENTILES`) along the last axis (floats, or lists)."""
    samples = np.sort(np.asarray(samples, dtype=np.float64), axis=-1)
    n = samples.shape[-1]
    if n < MIN_PERCENTILE_SAMPLES:
        raise InsufficientSamplesError(f"need at least {MIN_PERCENTILE_SAMPLES} samples, got {n}")
    rank_lo = int(np.ceil(PERCENTILES[0] * n)) - 1
    rank_hi = int(np.ceil(PERCENTILES[1] * n)) - 1
    return samples[..., rank_lo].tolist(), samples[..., rank_hi].tolist()


class Reservoir:
    """Uniform fixed-capacity samples (algorithm R) of one stream, or of `streams` from one rng.

    Once full, `extend` draws a batch's slots in one call, stream after stream as per-item
    loops over the streams do, and writes the kept items with one `put` in item order, so
    a slot drawn twice keeps the later item.
    """

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
        take = max(0, min(self.capacity - self.seen, vals.shape[-1]))
        self.buffer[..., self.seen:self.seen + take] = vals[..., :take]
        self.seen += take
        rest = np.atleast_2d(vals[..., take:])
        if rest.size:
            # Item number t replaces slot j ~ uniform[0, t) when j < capacity.
            counts = self.seen + 1 + np.arange(rest.shape[1])
            slots = self.rng.integers(0, counts, size=rest.shape)
            kept = np.flatnonzero(slots < self.capacity)
            flat = slots.take(kept)
            flat += kept // rest.shape[1] * self.capacity
            self.buffer.put(flat, rest.take(kept))
            self.seen += rest.shape[1]

    def values(self) -> np.ndarray:
        return self.buffer[..., : min(self.seen, self.capacity)].copy()

    def percentile_interval(self):
        return percentile_interval(self.buffer[..., : min(self.seen, self.capacity)])


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


def write_alignment_csv(reports, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer_name", "unit_index", "b_l", "b_r", "p05", "p95", "iou"])
        for r in reports:
            writer.writerow(
                [r.layer_name, r.unit_index, repr(r.b_l), repr(r.b_r),
                 repr(r.p05), repr(r.p95), repr(r.iou)]
            )
