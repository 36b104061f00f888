"""Piecewise linear activation unit: reference forward, analytic backward, fused inference.

The unit is a scalar function made of N uniform linear segments over
[left_boundary, right_boundary] with learnable segment heights, plus two
learnable slopes outside the boundaries.  The reference forward and backward
here are one-unit oracles; the bank forward and backward in :mod:`pwlu.layers`
and `build_fused` all read one `segment_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateParameterError, ShapeMismatchError

# Boundary intervals narrower than this are rejected: segment math divides
# by the interval length.
MIN_BOUNDARY_WIDTH = 1e-12


@dataclass(eq=False)
class PwluParams:
    """Learnable parameter bundle for a single activation unit.

    n_intervals is a structural hyperparameter; everything else is trained
    by gradient.  y_points holds the heights at the n_intervals + 1 grid
    points that demarcate the segments.
    """

    n_intervals: int
    left_boundary: float
    right_boundary: float
    y_points: np.ndarray
    left_slope: float
    right_slope: float

    def __post_init__(self):
        self.y_points = np.asarray(self.y_points, dtype=np.float64)
        self.left_boundary = float(self.left_boundary)
        self.right_boundary = float(self.right_boundary)
        self.left_slope = float(self.left_slope)
        self.right_slope = float(self.right_slope)
        self.validate()

    @property
    def interval_len(self) -> float:
        return (self.right_boundary - self.left_boundary) / self.n_intervals

    def grid(self) -> np.ndarray:
        """Demarcation points B_0..B_N (B_0 = left boundary, B_N = right)."""
        return self.left_boundary + np.arange(self.n_intervals + 1) * self.interval_len

    def validate(self) -> None:
        if self.n_intervals < 1:
            raise DegenerateParameterError(f"n_intervals must be >= 1, got {self.n_intervals}")
        if self.y_points.shape != (self.n_intervals + 1,):
            raise DegenerateParameterError(
                f"y_points must have length {self.n_intervals + 1}, "
                f"got shape {self.y_points.shape}"
            )
        width = self.right_boundary - self.left_boundary
        if not np.isfinite(width) or width < MIN_BOUNDARY_WIDTH:
            raise DegenerateParameterError(
                f"boundary interval [{self.left_boundary}, {self.right_boundary}] "
                f"is degenerate (width {width})"
            )
        values = [self.left_boundary, self.right_boundary, self.left_slope, self.right_slope]
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(self.y_points))):
            raise DegenerateParameterError("parameters contain non-finite values")


@dataclass(eq=False)
class PwluGrads:
    """Loss partials for one unit, summed over all batch elements.

    input_grad matches the input shape; the remaining fields mirror the
    trainable fields of :class:`PwluParams`.
    """

    left_boundary: float
    right_boundary: float
    y_points: np.ndarray
    left_slope: float
    right_slope: float
    input_grad: np.ndarray


@dataclass(eq=False)
class FusedPwluTable:
    """Precomputed slope/offset lookup for the single multiply-add fast path.

    slopes and offsets have n_intervals + 2 entries covering the extended
    segment index -1..n_intervals (stored with offset +1): -1 is the region
    left of the boundary, n_intervals the region right of it.
    """

    n_intervals: int
    left_boundary: float
    inv_interval_len: float
    slopes: np.ndarray
    offsets: np.ndarray


def interval_index(x, params: PwluParams):
    """Index of the segment containing x, for x inside the boundary interval.

    Floating-point floor can land exactly on n_intervals for x just below
    the right boundary; the result is clamped to n_intervals - 1.  NaN gets
    index 0, so the segment arithmetic carries it through to a NaN output.
    """
    raw = np.floor((np.asarray(x, dtype=np.float64) - params.left_boundary) / params.interval_len)
    return np.clip(np.nan_to_num(raw, nan=0.0), 0, params.n_intervals - 1).astype(np.int64)


def forward_reference(x, params: PwluParams) -> np.ndarray:
    """Exact three-branch evaluation of the piecewise linear unit."""
    params.validate()
    x = np.asarray(x, dtype=np.float64)
    b_l, b_r = params.left_boundary, params.right_boundary
    y = params.y_points
    d = params.interval_len

    left = x < b_l
    right = x >= b_r
    mid = ~(left | right)

    out = np.empty_like(x)
    out[left] = (x[left] - b_l) * params.left_slope + y[0]
    out[right] = (x[right] - b_r) * params.right_slope + y[params.n_intervals]
    xm = x[mid]
    idx = interval_index(xm, params)
    k = (y[idx + 1] - y[idx]) / d
    b_idx = b_l + idx * d
    out[mid] = (xm - b_idx) * k + y[idx]
    return out


def backward(x, upstream, params: PwluParams) -> PwluGrads:
    """Analytic partials of the unit, accumulated over the batch.

    The segment index is treated as a constant of the input, so boundary
    partials inside the interval reduce to
    d/dB_L = K_idx * (x - B_R) / (B_R - B_L) and
    d/dB_R = K_idx * (B_L - x) / (B_R - B_L).
    Per-element contributions are summed; input_grad stays elementwise.
    """
    params.validate()
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if x.shape != upstream.shape:
        raise ShapeMismatchError(f"input shape {x.shape} != upstream shape {upstream.shape}")

    b_l, b_r = params.left_boundary, params.right_boundary
    n = params.n_intervals
    y = params.y_points
    d = params.interval_len
    width = b_r - b_l

    left = x < b_l
    right = x >= b_r
    mid = ~(left | right)

    u_l, u_r, u_m = upstream[left], upstream[right], upstream[mid]
    x_l, x_r, x_m = x[left], x[right], x[mid]

    idx = interval_index(x_m, params)
    k = (y[idx + 1] - y[idx]) / d
    b_idx = b_l + idx * d

    input_grad = np.empty_like(x)
    input_grad[left] = u_l * params.left_slope
    input_grad[right] = u_r * params.right_slope
    input_grad[mid] = u_m * k

    g_bl = -params.left_slope * u_l.sum() + np.sum(u_m * k * (x_m - b_r) / width)
    g_br = -params.right_slope * u_r.sum() + np.sum(u_m * k * (b_l - x_m) / width)
    g_kl = np.sum(u_l * (x_l - b_l))
    g_kr = np.sum(u_r * (x_r - b_r))

    g_y = np.zeros(n + 1)
    # np.add.at processes indices in order, keeping accumulation deterministic.
    np.add.at(g_y, idx, u_m * (b_idx + d - x_m) / d)
    np.add.at(g_y, idx + 1, u_m * (x_m - b_idx) / d)
    g_y[0] += u_l.sum()
    g_y[n] += u_r.sum()

    return PwluGrads(
        left_boundary=float(g_bl),
        right_boundary=float(g_br),
        y_points=g_y,
        left_slope=float(g_kl),
        right_slope=float(g_kr),
        input_grad=input_grad,
    )


def segment_table(b_l, b_r, y, k_l, k_r):
    """Left edge, slope and height of every extended segment of one unit or a bank.

    b_l, b_r, k_l and k_r are scalars or (U,) arrays and y has shape
    (..., N+1); each result has shape (..., N+2).  Segment 0 lies left of the
    boundary interval, 1..N are the interior segments and N+1 lies right of
    it, so x in segment j evaluates to (x - edge_j) * slope_j + height_j.
    """
    n = y.shape[-1] - 1
    b_l, b_r, k_l, k_r = (np.asarray(v)[..., None] for v in (b_l, b_r, k_l, k_r))
    d = (b_r - b_l) / n
    edges = np.concatenate((b_l, b_l + np.arange(n) * d, b_r), axis=-1)
    slopes = np.concatenate((k_l, np.diff(y) / d, k_r), axis=-1)
    heights = np.concatenate((y[..., :1], y[..., :-1], y[..., n:]), axis=-1)
    return edges, slopes, heights


def build_fused(params: PwluParams, dtype=np.float64) -> FusedPwluTable:
    """Precompute the slope/offset table for constant-time inference.

    Entry j of the segment table stores its slope S_j and the offset
    O_j = height_j - edge_j*S_j, so that x*S + O reproduces all three
    branches of the reference forward.
    """
    params.validate()
    edges, slopes, heights = segment_table(params.left_boundary, params.right_boundary,
                                           params.y_points, params.left_slope, params.right_slope)
    return FusedPwluTable(
        n_intervals=params.n_intervals,
        left_boundary=dtype(params.left_boundary),
        inv_interval_len=dtype(1.0 / params.interval_len),
        slopes=slopes.astype(dtype),
        offsets=(heights - edges * slopes).astype(dtype),
    )


def forward_fused(x, table: FusedPwluTable) -> np.ndarray:
    """Single multiply-add evaluation via the precomputed table.

    The extended index clip(floor((x - B_L)/d), -1, N) folds the two outer
    branches into the same gather as the interior segments.  NaN takes the
    left branch, whose multiply-add keeps it NaN.
    """
    x = np.asarray(x, dtype=table.slopes.dtype)
    idx = np.nan_to_num(np.floor((x - table.left_boundary) * table.inv_interval_len), nan=-1.0)
    idx = np.clip(idx, -1, table.n_intervals).astype(np.int64) + 1
    return x * table.slopes[idx] + table.offsets[idx]


def init_pwlu_relu(n_intervals: int, half_width: float, center: float = 0.0) -> PwluParams:
    """ReLU-shaped initialization on the interval [center - half_width, center + half_width].

    Requires an even segment count so that with center 0, 0 falls exactly on a
    grid point, which makes the initialized unit reproduce max(x, 0) exactly.
    """
    if n_intervals % 2 != 0:
        raise DegenerateParameterError(
            f"ReLU initialization needs an even interval count, got {n_intervals}"
        )
    if not half_width > 0:
        raise DegenerateParameterError(f"half_width must be positive, got {half_width}")
    d = 2.0 * half_width / n_intervals
    grid = (center - half_width) + np.arange(n_intervals + 1) * d
    return PwluParams(
        n_intervals=n_intervals,
        left_boundary=center - half_width,
        right_boundary=center + half_width,
        y_points=np.maximum(grid, 0.0),
        left_slope=0.0,
        right_slope=1.0,
    )
